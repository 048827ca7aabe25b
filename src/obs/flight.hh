/**
 * @file
 * FlightRecorder: JSONL post-mortem dumps of the telemetry ring and
 * the active span stacks.
 *
 * A FlightRecorder is armed by `--flight-recorder PATH`.  When the
 * run ends abnormally — a crash signal, Ctrl-C, or `--deadline-s`
 * expiry — dump() writes a small JSONL document:
 *
 *   {"schema":"suit-flight-v1","reason":...,"series":[{name,kind}..]}
 *   {"sample":<id>,"host_us":...,"values":[...]}      (oldest first)
 *   {"span_thread":T,"depth":D,"name":...,"cat":...,"start_us":...}
 *
 * Sample values follow the telemetry ring convention: counters and
 * histograms are cumulative totals (so a validator can check they
 * never decrease), gauges are plain doubles.
 *
 * The span stack is the lightweight always-cheap sibling of the
 * Chrome trace: FlightSpan is an RAII guard over a global fixed
 * table of per-thread stacks (atomic name/cat/start words, atomic
 * depth), recording only while a recorder is armed — one relaxed
 * load and a branch otherwise.  Names and categories must be string
 * literals (the table stores the pointers).
 *
 * Crash-signal dumps are best-effort: the handler renders with the
 * normal (allocating) path, which is not async-signal-safe in
 * general but recovers the ring in the overwhelmingly common case —
 * the alternative on a crash is nothing at all.  Cancellation and
 * deadline dumps run in normal context and are fully defined.
 */

#ifndef SUIT_OBS_FLIGHT_HH
#define SUIT_OBS_FLIGHT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "obs/telemetry.hh"

namespace suit::obs {

/** Where and how much the flight recorder dumps. */
struct FlightConfig
{
    /** Output path; empty disables the recorder. */
    std::string path;
    /** Ring samples to include (most recent N). */
    std::size_t lastSamples = 64;
    /** Install SIGSEGV/SIGABRT/SIGBUS/SIGFPE dump handlers. */
    bool installSignalHandlers = true;
};

/** Armed post-mortem dumper; see the file comment. */
class FlightRecorder
{
  public:
    /**
     * Arm the recorder.  @p sampler provides the ring (may be null:
     * the dump then carries only the header and span stacks) and
     * must outlive the recorder.  At most one recorder is active at
     * a time (the newest wins).
     */
    explicit FlightRecorder(FlightConfig config,
                            const TelemetrySampler *sampler = nullptr);

    /** Disarms (restores signal handlers installed by this one). */
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Write the post-mortem document now, tagged with @p reason
     * ("sigint", "deadline", "cancelled", "crash-signal", ...).
     * Later dumps replace earlier ones.  @return false (with a
     * warning) when the file cannot be written.
     */
    bool dump(const char *reason);

    /** Dumps written so far. */
    std::uint64_t dumps() const { return dumps_; }

    const FlightConfig &config() const { return cfg_; }

    /** The armed recorder, or null. */
    static FlightRecorder *active();

  private:
    FlightConfig cfg_;
    const TelemetrySampler *sampler_;
    std::uint64_t dumps_ = 0;
    bool installedHandlers_ = false;
    FlightRecorder *previous_ = nullptr;
    // Reused across dumps so repeated dumps don't regrow buffers.
    std::vector<TelemetrySample> sampleScratch_;
};

/**
 * RAII span marker for flight-recorder stack dumps.  @p name and
 * @p cat must be string literals (static storage); recording is a
 * no-op unless a FlightRecorder is armed.
 */
class FlightSpan
{
  public:
    FlightSpan(const char *name, const char *cat);
    ~FlightSpan();

    FlightSpan(const FlightSpan &) = delete;
    FlightSpan &operator=(const FlightSpan &) = delete;

  private:
    int slot_ = -1; //!< thread-table slot; -1 = not recorded
};

/** True while a FlightRecorder is armed (spans are recording). */
bool flightSpansActive();

} // namespace suit::obs

#endif // SUIT_OBS_FLIGHT_HH

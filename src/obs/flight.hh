/**
 * @file
 * FlightRecorder: JSONL post-mortem dumps of the telemetry ring and
 * the active span stacks; Span: the one timed-region guard that feeds
 * those stacks, the Chrome trace and a latency histogram.
 *
 * A FlightRecorder is armed by `--flight-recorder PATH`.  When the
 * run ends abnormally — a crash signal, Ctrl-C, or `--deadline-s`
 * expiry — dump() writes a small JSONL document:
 *
 *   {"schema":"suit-flight-v1","reason":...,"series":[{name,kind}..]}
 *   {"sample":<id>,"host_us":...,"values":[...]}      (oldest first)
 *   {"span_thread":T,"depth":D,"name":...,"cat":...,"start_us":...}
 *
 * The header's series are the metrics of the newest ring sample, in
 * registration order; each sample line renders its own snapshot,
 * one value per metric: counters and histograms as cumulative totals
 * (so a validator can check they never decrease), gauges as plain
 * doubles.  An older sample may carry fewer values than the header
 * has series (metrics registered since), never more.
 *
 * A Span marks one timed region (a sweep cell, a fleet shard, a
 * journal write stage) for three sinks at once, each only while it
 * is on:
 *
 *  - the flight stack: a global fixed table of per-thread stacks
 *    (atomic name/cat/start words, atomic depth) that dump() lists,
 *    pushed only while a recorder is armed;
 *  - the Chrome trace: one 'X' event on the calling thread's host
 *    track (pool workers name theirs "worker N", any other thread's
 *    is "main"), emitted at close while a TraceSession is active;
 *  - an optional `*_ms` histogram of obs::metrics(), observed at
 *    close while the registry is enabled.
 *
 * With all three off a span costs at most three atomic loads and no
 * clock read.  Names and categories must be string literals (the
 * stack table stores the pointers).
 *
 * Crash-signal dumps are best-effort: the handler renders with the
 * normal (allocating) path, which is not async-signal-safe in
 * general but recovers the ring in the overwhelmingly common case —
 * the alternative on a crash is nothing at all.  A crash dump only
 * try-locks the ring: the crashing thread may be the sampler itself,
 * mid-sample, so when the mutex is held the dump writes the header
 * (with no series) and the span stacks but no sample lines.
 * Cancellation and deadline dumps wait for the ring mutex and run in
 * normal context, fully defined.
 */

#ifndef SUIT_OBS_FLIGHT_HH
#define SUIT_OBS_FLIGHT_HH

#include <chrono>
#include <cstddef>
#include <string>

#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace suit::obs {

/** Where and how much the flight recorder dumps. */
struct FlightConfig
{
    /** Output path; empty disables the recorder. */
    std::string path;
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
     * With @p crash (a crash-signal handler) the ring mutex is only
     * try-locked; see the file comment.  Later dumps replace earlier
     * ones.  @return false (with a warning) when the file cannot be
     * written.
     */
    bool dump(const char *reason, bool crash = false);

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
};

/**
 * RAII timed region; see the file comment.  @p name and @p cat must
 * be string literals (static storage).  @p ms, when valid, is a
 * histogram of obs::metrics() that receives the region's wall time
 * in milliseconds.
 */
class Span
{
  public:
    Span(const char *name, const char *cat, MetricId ms = {});
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach a trace arg to the 'X' event (kept only when traced). */
    template <typename V>
    void arg(const char *key, V value)
    {
        if (trace_)
            args_.emplace_back(key, value);
    }

  private:
    const char *name_;
    const char *cat_;
    TraceSession *trace_; //!< null when untraced
    MetricId ms_;         //!< invalid when not observed
    int slot_ = -1;       //!< flight stack slot; -1 = not pushed
    std::chrono::steady_clock::time_point start_;
    TraceArgs args_;
};

} // namespace suit::obs

#endif // SUIT_OBS_FLIGHT_HH

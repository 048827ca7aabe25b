/**
 * @file
 * One-stop observability wiring for the CLI tools.
 *
 * Every instrumented binary adds the same options and constructs one
 * CliScope around its run:
 *
 *   --metrics <path|->        write the metrics registry as JSON
 *   --trace-out <path|->      write a Chrome trace_event timeline
 *   --metrics-interval <s>    also dump the registry every s seconds
 *   --listen-metrics <port>   serve OpenMetrics on 127.0.0.1:port
 *   --metrics-series <path>   write the final OpenMetrics snapshot
 *   --flight-recorder <path>  arm the JSONL post-mortem dumper
 *
 * The flags decide what is recorded: the registry records when any
 * of them is given, and a trace session exists when --trace-out is.
 * The scope enables obs::metrics(), installs its TraceSession as the
 * active trace, and on finish()/destruction writes both outputs and
 * tears the wiring back down.
 *
 * Four flags need the telemetry sampler: --metrics-interval,
 * --listen-metrics, --metrics-series and --flight-recorder.  When any
 * of them is given the constructor creates the run's one
 * TelemetrySampler over obs::metrics(), ticking every
 * kSamplePeriodS, starts it (the only periodic obs thread), arms the
 * flight recorder against its ring of the last 64 snapshots and
 * starts the exposition server, all before any engine or pool
 * exists.
 *
 * --metrics-interval rides the sampler thread: after each periodic
 * sample a tick hook checks the elapsed time and, once the interval
 * has passed, renders the sampler's newest snapshot — to the
 * --metrics path via an atomic temp-file + rename (so a concurrent
 * reader never sees a torn JSON document), or as a table to stderr
 * when no path was given.  Dumps therefore land on sampler ticks: the
 * interval is rounded up to a whole sampler period.
 *
 * Declare the CliScope *before* any thread pool or engine whose
 * workers may emit events, so the session outlives every emitter.
 */

#ifndef SUIT_OBS_SETUP_HH
#define SUIT_OBS_SETUP_HH

#include <cstdint>
#include <memory>
#include <string>

#include "obs/flight.hh"
#include "obs/openmetrics.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "util/args.hh"

namespace suit::obs {

/** Declare the obs flags of the file comment on @p args. */
void addCliOptions(util::ArgParser &args);

/** RAII wiring of the obs flags; see the file comment. */
class CliScope
{
  public:
    /**
     * Read the obs flags from parsed @p args and wire the registry
     * and (with --trace-out) the active trace session accordingly.
     * fatal()s on a bad --metrics-interval value.
     */
    explicit CliScope(const util::ArgParser &args);

    /** Calls finish(). */
    ~CliScope();

    CliScope(const CliScope &) = delete;
    CliScope &operator=(const CliScope &) = delete;

    /** True when the registry is recording. */
    bool metricsEnabled() const { return metricsEnabled_; }

    /** The trace session, or null without --trace-out. */
    TraceSession *trace() { return trace_.get(); }

    /** The run's telemetry sampler, or null without a telemetry flag. */
    const TelemetrySampler *telemetry() const { return sampler_.get(); }

    /** The exposition server, or null (port 0 / bind failure). */
    MetricsServer *metricsServer() { return server_.get(); }

    /** The armed flight recorder, or null. */
    FlightRecorder *flightRecorder() { return flight_.get(); }

    /**
     * The run ended abnormally: take a final telemetry sample and
     * write the flight-recorder dump tagged @p reason ("sigint",
     * "deadline", ...).  No-op without --flight-recorder.
     */
    void noteInterruption(const char *reason);

    /**
     * Stop the exposition server and the sampler, take one final
     * sample, write the --metrics, --metrics-series and --trace-out
     * outputs, uninstall the active trace and disable the registry.
     * Idempotent; called by the destructor, but call it explicitly
     * when output ordering relative to other footers matters.
     */
    void finish();

  private:
    /**
     * Render and write the --metrics output: the sampler's latest
     * snapshot when there is a sampler, else a fresh registry
     * snapshot.  The --metrics-interval tick hook and finish() share
     * it.
     */
    void dumpMetrics() const;

    bool metricsEnabled_ = false;
    std::string metricsPath_;
    std::string tracePath_;
    double metricsIntervalS_ = 0.0;
    std::uint16_t listenPort_ = 0;
    std::string seriesPath_;
    std::string flightPath_;
    std::unique_ptr<TraceSession> trace_;
    // Written only by the constructor, before the sampler thread
    // starts; declared before the server and the flight recorder,
    // which read it and are destroyed first.
    std::unique_ptr<TelemetrySampler> sampler_;
    std::unique_ptr<MetricsServer> server_;
    std::unique_ptr<FlightRecorder> flight_;
    bool finished_ = false;
};

} // namespace suit::obs

#endif // SUIT_OBS_SETUP_HH

/**
 * @file
 * Structured event tracing with Chrome trace_event export.
 *
 * A TraceSession collects timeline events — spans (begin/end or
 * complete), instants and track metadata — and renders them as a
 * Chrome trace_event JSON document loadable in chrome://tracing or
 * Perfetto.  Two synthetic processes keep the two clock domains
 * apart on the timeline:
 *
 *  - kSimPid: simulated time.  Timestamps are simulated microseconds
 *    (ticks are picoseconds; use simUs() to convert).  Per-domain
 *    p-state transitions, #DO trap instants and deadline resets live
 *    here, one track per simulated domain.
 *  - kHostPid: wall-clock time since the session started.  Sweep
 *    cells, fleet shards, worker lifetimes and checkpoint writes
 *    live here, one track per host thread (threadTrack()); timed
 *    regions reach it through obs::Span (obs/flight.hh).
 *
 * Emission is mutex-serialised — trace points sit on rare paths
 * (p-state changes, traps, sweep-cell boundaries), never inside the
 * per-event simulator loop.  With no session installed a trace point
 * costs one atomic load of activeTrace(), which is the
 * project's "observability off" cost everywhere outside suit_sim's
 * always-on plain counters.
 *
 * Sessions cap at kMaxEvents events; later events are counted as
 * dropped rather than growing without bound (a full sweep can emit
 * millions of instants).
 */

#ifndef SUIT_OBS_TRACE_HH
#define SUIT_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/ticks.hh"

namespace suit::obs {

/** One "key": value argument attached to a trace event. */
struct TraceArg
{
    TraceArg(std::string key, const std::string &value);
    TraceArg(std::string key, const char *value);
    TraceArg(std::string key, double value);
    TraceArg(std::string key, std::uint64_t value);
    TraceArg(std::string key, std::int64_t value);
    TraceArg(std::string key, int value);
    TraceArg(std::string key, unsigned value);

    std::string key;
    std::string json; //!< value rendered as a JSON literal
};

using TraceArgs = std::vector<TraceArg>;

/** Chrome-trace event collector; see the file comment. */
class TraceSession
{
  public:
    /** Synthetic process id for simulated-time tracks. */
    static constexpr int kSimPid = 1;
    /** Synthetic process id for host wall-clock tracks. */
    static constexpr int kHostPid = 2;

    /** Events kept before further emission only counts drops. */
    static constexpr std::size_t kMaxEvents = 1u << 20;

    TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /**
     * Allocate a named track (a "thread" row on the timeline) under
     * @p pid and return its tid.  Emits the thread_name metadata.
     */
    int newTrack(int pid, const std::string &name);

    /**
     * Track for the calling host thread under kHostPid, creating and
     * naming it @p name on first use (later calls return the same
     * tid and ignore @p name).
     */
    int threadTrack(const std::string &name);

    /** @{
     * Event emission.  @p ts (and @p dur) are microseconds in the
     * clock domain of @p pid: simulated µs for kSimPid (simUs()),
     * hostNowUs() for kHostPid.
     */
    void begin(int pid, int tid, double ts, const std::string &name,
               const std::string &cat, const TraceArgs &args = {});
    void end(int pid, int tid, double ts);
    void complete(int pid, int tid, double ts, double dur,
                  const std::string &name, const std::string &cat,
                  const TraceArgs &args = {});
    void instant(int pid, int tid, double ts, const std::string &name,
                 const std::string &cat, const TraceArgs &args = {});
    /**
     * Counter event ('C'): each arg is one series of the named
     * counter group on the track; viewers plot args over ts as
     * stacked areas.  The fleet engine emits per-rack cumulative
     * domains/energy/p-state series this way.  @p args must be
     * non-empty (a counter without series plots nothing).
     */
    void counter(int pid, int tid, double ts, const std::string &name,
                 const TraceArgs &args);
    /** @} */

    /** Simulated-time ticks (ps) as trace microseconds. */
    static double simUs(util::Tick t)
    {
        return util::ticksToMicroseconds(t);
    }

    /** Wall-clock microseconds since this session was created. */
    double hostNowUs() const;

    /** @p t as microseconds since this session was created. */
    double hostUs(std::chrono::steady_clock::time_point t) const;

    /** Events currently buffered (metadata included). */
    std::size_t eventCount() const;

    /** Events discarded after the kMaxEvents cap was hit. */
    std::uint64_t dropped() const;

    /**
     * Render the whole trace as a Chrome trace_event JSON document
     * ({"traceEvents": [...]}; one event object per line).
     */
    std::string render() const;

    /**
     * Write render() to @p path ("-" for stdout).
     * @return false (with a warning) if the file cannot be written.
     */
    bool writeTo(const std::string &path) const;

  private:
    struct Event
    {
        char ph = 'i';
        int pid = 0;
        int tid = 0;
        double ts = 0.0;
        double dur = 0.0;
        std::string name;
        std::string cat;
        std::string argsJson; //!< pre-rendered "{...}", may be empty
    };

    void push(Event event);
    int newTrackLocked(int pid, const std::string &name);

    const std::chrono::steady_clock::time_point start_;

    mutable std::mutex mu_;
    std::vector<Event> events_;
    std::atomic<std::uint64_t> dropped_{0};
    std::map<int, int> nextTid_;                 //!< per pid
    std::map<std::thread::id, int> hostTracks_;
};

/**
 * @{
 * The active session trace points emit into, or null when tracing is
 * off (the default).  Installation is the CLI's job (obs::CliScope);
 * instrumented objects either latch the pointer once per run (the
 * simulator, the pool's workers and the fleet's rack tracks, so a
 * run's tracing is all-or-nothing) or read it per region (obs::Span).
 */
TraceSession *activeTrace();
void setActiveTrace(TraceSession *session);
/** @} */

} // namespace suit::obs

#endif // SUIT_OBS_TRACE_HH

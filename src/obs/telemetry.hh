/**
 * @file
 * Continuous telemetry: a background sampler that keeps the last
 * kRingSamples registry snapshots.
 *
 * A TelemetrySampler periodically snapshots a Registry into a ring
 * of TelemetrySample slots: a monotonic sample id, a host timestamp
 * and the full registry Snapshot in registration order.  Each slot
 * is refilled in place through Registry::snapshotInto(), so once
 * every slot has been written once the steady state allocates
 * nothing.  One mutex guards the whole ring; the sampler holds it
 * for the length of one snapshotInto() (a walk of the registry
 * shards), and readers hold it while they render.
 *
 * Every reader renders from the ring:
 *
 *  - renderLatest() renders the newest slot: the `--metrics-interval`
 *    dump (which runs as the start() tick hook, on the sampler
 *    thread), the OpenMetrics scrape and the final
 *    `--metrics`/`--metrics-series` writes;
 *  - tail() views every retained slot, oldest first: the flight
 *    recorder's post-mortem dump.
 *
 * Nothing re-walks the registry shards besides sampleOnce().
 *
 * obs::CliScope owns the one sampler of a CLI run; see setup.hh.
 */

#ifndef SUIT_OBS_TELEMETRY_HH
#define SUIT_OBS_TELEMETRY_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hh"

namespace suit::obs {

/** Telemetry sampler period of a CLI run, in seconds. */
inline constexpr double kSamplePeriodS = 0.1;

/** One ring slot: a registry snapshot and when it was taken. */
struct TelemetrySample
{
    std::uint64_t id = 0;  //!< monotonic, 1-based
    double hostUs = 0.0;   //!< microseconds since sampler creation
    Snapshot snapshot;     //!< registration order
};

/** Periodic registry sampler; see the file comment. */
class TelemetrySampler
{
  public:
    /** Samples the ring retains (and a flight dump writes). */
    static constexpr std::size_t kRingSamples = 64;

    /**
     * The retained samples, oldest first, read under the ring mutex
     * (held for the view's lifetime).
     */
    class Tail
    {
      public:
        /** Samples in view; 0 when a try-lock found the mutex held. */
        std::size_t size() const;
        /** Sample @p i, 0 = oldest. */
        const TelemetrySample &operator[](std::size_t i) const;

      private:
        friend class TelemetrySampler;
        Tail(const TelemetrySampler &sampler, bool tryLock);

        const TelemetrySampler &sampler_;
        std::unique_lock<std::mutex> lock_;
    };

    /** Bind to @p registry; start() samples every @p intervalS. */
    TelemetrySampler(Registry &registry, double intervalS);

    /** Stops the background thread. */
    ~TelemetrySampler();

    TelemetrySampler(const TelemetrySampler &) = delete;
    TelemetrySampler &operator=(const TelemetrySampler &) = delete;

    /**
     * @{ Background thread lifecycle; both are idempotent.  start()
     * calls @p onTick on the sampler thread after each periodic
     * sample (not after sampleOnce() calls from other threads); a
     * start() while running keeps the running thread and its hook.
     */
    void start(std::function<void()> onTick = {});
    void stop();
    bool running() const;
    /** @} */

    /**
     * Take one sample now (any thread; writers are serialised by the
     * ring mutex).  Returns the new sample id.
     */
    std::uint64_t sampleOnce();

    /** Samples taken so far (== the latest sample id). */
    std::uint64_t samplesTaken() const;

    /** Sampling period in seconds. */
    double intervalS() const { return intervalS_; }

    /**
     * Lock the ring and view its retained samples.  With @p tryLock
     * the view is empty when another thread holds the mutex, instead
     * of waiting for it.
     */
    Tail tail(bool tryLock = false) const;

    /**
     * Render the newest sample's snapshot (empty before the first
     * sample) with @p render — renderMetricsJson, renderMetricsTable
     * or renderOpenMetrics.  No registry shard walk.
     */
    std::string
    renderLatest(std::string (*render)(const Snapshot &)) const;

  private:
    void samplerMain(const std::function<void()> &onTick);

    Registry &reg_;
    const double intervalS_;
    const std::chrono::steady_clock::time_point start_;

    // The ring: kRingSamples slots, slot (id - 1) % kRingSamples
    // holds sample id.
    mutable std::mutex mu_;
    std::vector<TelemetrySample> ring_;
    std::uint64_t taken_ = 0;

    // Background thread.
    std::thread thread_;
    mutable std::mutex threadMu_;
    std::condition_variable threadCv_;
    bool threadStop_ = false;
};

} // namespace suit::obs

#endif // SUIT_OBS_TELEMETRY_HH

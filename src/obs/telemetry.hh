/**
 * @file
 * Continuous telemetry: a background sampler over the metrics
 * registry and a fixed-capacity lock-free time-series ring.
 *
 * A TelemetrySampler periodically snapshots a Registry and appends
 * one sample — every metric's scalar projection plus a monotonic
 * sample id and a host timestamp — to a ring of seqlock slots.
 * Readers (the OpenMetrics exposition server, the flight recorder,
 * the CLI series dump) are lock-free with respect to the sampler:
 * they re-read a slot whose sequence number changed underfoot and
 * skip slots that were overwritten mid-scan.  All slot payload words
 * are atomics under the per-slot sequence protocol, so the ring is
 * data-race-free by construction (and TSan-clean).
 *
 * Memory-ordering contract (the fence-free atomic seqlock):
 *
 *   writer: seq.store(odd, relaxed);
 *           payload stores (release);
 *           seq.store(even, release);
 *   reader: s1 = seq.load(acquire); payload loads (acquire);
 *           s2 = seq.load(relaxed);
 *           valid iff s1 == s2 and s1 is even.
 *
 * A payload store's release keeps the odd sequence store before it,
 * and a payload load's acquire keeps the second sequence load after
 * it: a reader that sees any payload word of a write in flight also
 * sees its odd sequence number.  Both orders are plain moves on x86,
 * and, unlike std::atomic_thread_fence, ThreadSanitizer models them.
 *
 * Steady state allocates nothing: the ring is sized at construction,
 * the registry is re-read through Registry::snapshotInto() into a
 * pair of reused Snapshot buffers (front = latest published, back =
 * scratch), and the series table only grows when a *new* metric
 * registers — which the registry treats as a rare, mutex-protected
 * event anyway.
 *
 * The retained front Snapshot is what every renderer reads through
 * renderLatest(): the `--metrics-interval` dump (which runs as the
 * start() tick hook, on the sampler thread), the OpenMetrics scrape
 * and the final `--metrics`/`--metrics-series` writes.  Nothing
 * re-walks the registry shards besides sampleOnce().
 *
 * obs::CliScope owns the one sampler of a CLI run; see setup.hh.
 */

#ifndef SUIT_OBS_TELEMETRY_HH
#define SUIT_OBS_TELEMETRY_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hh"

namespace suit::obs {

/** How a telemetry sampler should run. */
struct TelemetryConfig
{
    /** Sampling period in seconds (a CLI run uses kSamplePeriodS). */
    double intervalS = 0.1;
    /** Ring capacity in samples; fixed once constructed. */
    std::size_t ringCapacity = 256;
};

/** Identity of one ring series (a metric's scalar projection). */
struct SeriesInfo
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
};

/**
 * One decoded ring sample.  raw[i] belongs to series i: counters and
 * histograms store their cumulative total (deltas are differences of
 * consecutive samples), gauges store the double's bit pattern
 * (decode with seriesValue()).
 */
struct TelemetrySample
{
    std::uint64_t id = 0;  //!< monotonic, 1-based
    double hostUs = 0.0;   //!< microseconds since sampler creation
    std::vector<std::uint64_t> raw;
};

/** raw word of series @p kind as a double (bit-cast for gauges). */
double seriesValue(MetricKind kind, std::uint64_t raw);

/** Periodic registry sampler; see the file comment. */
class TelemetrySampler
{
  public:
    /** Series beyond this many are dropped (seriesDropped()). */
    static constexpr std::size_t kMaxSeries = 256;

    /** Bind to @p registry; the ring is sized from @p config. */
    explicit TelemetrySampler(Registry &registry,
                              TelemetryConfig config = {});

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
     * Take one sample now (any thread; writers are serialised
     * internally).  Returns the new sample id.
     */
    std::uint64_t sampleOnce();

    /** Samples taken so far (== the latest sample id). */
    std::uint64_t samplesTaken() const;

    /** Ring capacity in samples. */
    std::size_t ringCapacity() const { return capacity_; }

    /** Sampling period in seconds. */
    double intervalS() const { return cfg_.intervalS; }

    /** Metrics that could not fit in kMaxSeries ring series. */
    std::uint64_t seriesDropped() const;

    /** Copy of the series table (index = ring series id). */
    std::vector<SeriesInfo> series() const;

    /**
     * Decode up to the last @p n samples into @p out, oldest first.
     * Reuses @p out's capacity; slots overwritten mid-scan are
     * skipped.  Returns the number of samples written.
     */
    std::size_t lastSamplesInto(std::vector<TelemetrySample> &out,
                                std::size_t n) const;

    /** Convenience allocating wrapper around lastSamplesInto(). */
    std::vector<TelemetrySample> lastSamples(std::size_t n) const;

    /**
     * Render the most recent full registry snapshot (empty before
     * the first sample) with @p render — renderMetricsJson,
     * renderMetricsTable or renderOpenMetrics.  No registry shard
     * walk.
     */
    std::string
    renderLatest(std::string (*render)(const Snapshot &)) const;

  private:
    void samplerMain(const std::function<void()> &onTick);
    void refreshSeriesLocked(const Snapshot &snap);

    Registry &reg_;
    const TelemetryConfig cfg_;
    const std::size_t capacity_;

    // Ring storage: flat per-slot arrays of atomics, fixed at
    // construction.  values_ is capacity_ * kMaxSeries words.
    std::unique_ptr<std::atomic<std::uint64_t>[]> seq_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> ids_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> hostUsBits_;
    std::unique_ptr<std::atomic<std::uint32_t>[]> counts_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> values_;

    std::atomic<std::uint64_t> lastId_{0};
    std::atomic<std::uint64_t> seriesDropped_{0};

    // Series table: append-only, mutex-protected (rare growth).
    mutable std::mutex seriesMu_;
    std::vector<SeriesInfo> series_;
    std::atomic<std::uint32_t> seriesCount_{0};

    // Writer serialisation + the reused snapshot double buffer.
    std::mutex sampleMu_;
    mutable std::mutex snapMu_;
    Snapshot front_; //!< latest published snapshot
    Snapshot back_;  //!< sampler scratch

    const std::chrono::steady_clock::time_point start_;

    // Background thread.
    std::thread thread_;
    mutable std::mutex threadMu_;
    std::condition_variable threadCv_;
    bool threadStop_ = false;
};

} // namespace suit::obs

#endif // SUIT_OBS_TELEMETRY_HH

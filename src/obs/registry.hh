/**
 * @file
 * suit::obs metrics registry.
 *
 * A process-wide (or test-local) registry of named counters, gauges
 * and fixed-bucket histograms, designed so that *recording* a metric
 * from the simulator hot loop or a pool worker is lock-free:
 *
 *  - every metric registers once (mutex-protected) and receives a
 *    stable MetricId carrying its cell slot range;
 *  - every recording thread owns a private shard of atomic cells
 *    (modelled on the exec per-worker counters); add()/observe()
 *    touch only the calling thread's shard with relaxed atomics —
 *    no locks, no false sharing with readers;
 *  - snapshotInto() merges all shards under the registry mutex (the
 *    one merge loop; snapshot() sorts its result by name), which is
 *    race-free because the cells are atomics and shards are never
 *    freed before the registry;
 *  - the registry is *disabled* by default, and the enabled check is
 *    one relaxed atomic load, so instrumentation compiled into the
 *    PR 3 fast path costs near zero until a CLI turns it on.
 *
 * Gauges are registry-level (set() is rare and takes the mutex);
 * histograms occupy one shard cell per bucket plus one holding the
 * bits of the shard's sample sum (a double only its thread writes),
 * and snapshot into util::BucketHistogram, whose merge/percentile
 * helpers the exporters use, and MetricValue::sum.
 */

#ifndef SUIT_OBS_REGISTRY_HH
#define SUIT_OBS_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/stats.hh"

namespace suit::obs {

/** What a metric measures. */
enum class MetricKind { Counter, Gauge, Histogram };

/** Printable kind name ("counter", "gauge", "histogram"). */
const char *toString(MetricKind kind);

class Registry;

/**
 * Stable handle to a registered metric.  Cheap to copy; valid for
 * the registry's lifetime.  Obtain once (e.g. in a function-local
 * static) and reuse on the hot path.
 */
class MetricId
{
  public:
    MetricId() = default;

    /** True once bound to a metric. */
    bool valid() const { return info_ != nullptr; }

  private:
    friend class Registry;

    struct Info
    {
        std::string name;
        MetricKind kind = MetricKind::Counter;
        std::uint32_t firstSlot = 0; //!< shard cell index
        std::uint32_t slots = 0;     //!< cells occupied (0 for gauges)
        std::uint32_t gaugeIndex = 0;
        std::vector<double> bounds;  //!< histogram bucket bounds
    };

    explicit MetricId(const Info *info) : info_(info) {}

    const Info *info_ = nullptr;
};

/** One metric of a Snapshot. */
struct MetricValue
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    /** Counter total (counters only). */
    std::uint64_t count = 0;
    /** Gauge value (gauges only). */
    double value = 0.0;
    /** Merged histogram (histograms only). */
    suit::util::BucketHistogram histogram;
    /** Sum of the histogram's samples (histograms only). */
    double sum = 0.0;
};

/**
 * Point-in-time merge of every shard: name order from
 * Registry::snapshot(), registration order from snapshotInto().
 */
struct Snapshot
{
    std::vector<MetricValue> metrics;

    /** Metric by name; null when absent. */
    const MetricValue *find(const std::string &name) const;
};

/** Sharded metrics registry; see the file comment for the design. */
class Registry
{
  public:
    Registry();
    ~Registry();

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /**
     * Register (or look up) a counter.  Re-registering the same name
     * returns the existing id; the kind must match (panic otherwise).
     */
    MetricId counter(const std::string &name);

    /** Register (or look up) a gauge. */
    MetricId gauge(const std::string &name);

    /**
     * Register (or look up) a histogram over inclusive upper
     * @p bounds (strictly increasing; one implicit overflow bucket).
     * Re-registration must use identical bounds.
     */
    MetricId histogram(const std::string &name,
                       std::vector<double> bounds);

    /**
     * Add @p n to a counter.  Lock-free on the calling thread's
     * shard; dropped (one relaxed load) while the registry is
     * disabled.
     */
    void add(MetricId id, std::uint64_t n = 1);

    /** Record one histogram sample (lock-free, as add()). */
    void observe(MetricId id, double value);

    /** Set a gauge (mutex-protected; not for hot paths). */
    void set(MetricId id, double value);

    /** @{ Recording switch; disabled by default. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }
    /** @} */

    /**
     * Point-in-time snapshot sorted by metric name: snapshotInto()
     * followed by a stable sort.
     */
    Snapshot snapshot() const;

    /**
     * Merge every shard into @p out, reusing its buffers.  Metrics
     * appear in *registration* order (stable indices — the telemetry
     * ring's series ids), unlike snapshot()'s name order; the JSON
     * and table renderers sort by name themselves, so both orders
     * render identically there.  Once @p out has seen this
     * registry's metric set, refills allocate nothing — the
     * telemetry sampler's zero-steady-state-allocation contract.
     */
    void snapshotInto(Snapshot &out) const;

    /** Zero every cell and gauge (metrics stay registered). */
    void reset();

    /** Number of registered metrics. */
    std::size_t size() const;

  private:
    /**
     * Per-thread cell array.  Fixed capacity: growth would need
     * either a lock on the hot path or hazard tracking; kShardSlots
     * is two orders of magnitude above the libraries' metric count
     * and registration past it is a panic, not a corruption.
     */
    struct Shard
    {
        std::atomic<std::uint64_t> cells[1]; // flexible-array idiom
    };
    static constexpr std::uint32_t kShardSlots = 4096;

    MetricId registerMetric(const std::string &name, MetricKind kind,
                            std::vector<double> bounds);
    std::atomic<std::uint64_t> *cellsFor(const MetricId::Info &info);
    Shard &shardSlow();

    const std::uint64_t serial_; //!< distinguishes registry instances
    std::atomic<bool> enabled_{false};

    mutable std::mutex mu_;
    std::deque<MetricId::Info> infos_;       //!< stable addresses
    std::map<std::string, MetricId::Info *> byName_;
    std::uint32_t nextSlot_ = 0;
    std::vector<double> gauges_;
    std::map<std::thread::id, std::unique_ptr<Shard, void (*)(Shard *)>>
        shards_;
};

/**
 * Render @p snap as the "suit-obs-metrics-v1" JSON document, one
 * metric object per line, sorted by name regardless of the
 * snapshot's own order.  `--metrics-interval` dumps and the final
 * `--metrics` dump both go through it, which keeps them
 * byte-compatible.
 */
std::string renderMetricsJson(const Snapshot &snap);

/**
 * Render @p snap as an aligned text table sorted by name: counters
 * and gauges with their value, histograms with total, sum and
 * p50/p90/p99.
 */
std::string renderMetricsTable(const Snapshot &snap);

/** The process-wide registry the libraries record into. */
Registry &metrics();

} // namespace suit::obs

#endif // SUIT_OBS_REGISTRY_HH

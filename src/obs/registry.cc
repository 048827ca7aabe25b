#include "obs/registry.hh"

#include <algorithm>
#include <bit>
#include <new>

#include "obs/json.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace suit::obs {

namespace {

/**
 * Registries are identified by a process-unique serial so the
 * thread-local shard cache below can never confuse a test-local
 * registry reallocated at a recycled address with the one it cached.
 * Serial 0 is reserved as "nothing cached".
 */
std::atomic<std::uint64_t> g_next_serial{1};

/**
 * Per-thread shard cache: which registry the cached shard belongs to,
 * and the shard itself (type-erased because Shard is private).  The
 * hot path is two thread-local loads and a compare.
 */
thread_local std::uint64_t t_shard_serial = 0;
thread_local void *t_shard = nullptr;

} // namespace

const char *
toString(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "unknown";
}

const MetricValue *
Snapshot::find(const std::string &name) const
{
    for (const MetricValue &m : metrics) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

Registry::Registry()
    : serial_(g_next_serial.fetch_add(1, std::memory_order_relaxed))
{
}

Registry::~Registry()
{
    // Writers must be quiesced before destruction (same contract as
    // any other shared object); stale thread-local caches are defused
    // by the serial check, not by clearing them here.
}

MetricId
Registry::counter(const std::string &name)
{
    return registerMetric(name, MetricKind::Counter, {});
}

MetricId
Registry::gauge(const std::string &name)
{
    return registerMetric(name, MetricKind::Gauge, {});
}

MetricId
Registry::histogram(const std::string &name, std::vector<double> bounds)
{
    SUIT_ASSERT(!bounds.empty(),
                "histogram '%s' needs at least one bucket bound",
                name.c_str());
    return registerMetric(name, MetricKind::Histogram,
                          std::move(bounds));
}

MetricId
Registry::registerMetric(const std::string &name, MetricKind kind,
                         std::vector<double> bounds)
{
    // Validate bounds outside the lock; the BucketHistogram ctor
    // asserts strict monotonicity for us.
    if (kind == MetricKind::Histogram) {
        util::BucketHistogram check(bounds);
        (void)check;
    }

    std::lock_guard lock(mu_);
    if (auto it = byName_.find(name); it != byName_.end()) {
        MetricId::Info *info = it->second;
        SUIT_ASSERT(info->kind == kind,
                    "metric '%s' re-registered as %s (was %s)",
                    name.c_str(), toString(kind),
                    toString(info->kind));
        SUIT_ASSERT(info->bounds == bounds,
                    "histogram '%s' re-registered with different "
                    "bounds (%zu vs %zu)",
                    name.c_str(), bounds.size(), info->bounds.size());
        return MetricId(info);
    }

    MetricId::Info info;
    info.name = name;
    info.kind = kind;
    info.bounds = std::move(bounds);
    switch (kind) {
      case MetricKind::Counter:
        info.slots = 1;
        break;
      case MetricKind::Histogram:
        // The buckets, the overflow bucket and the sum.
        info.slots = static_cast<std::uint32_t>(info.bounds.size()) + 2;
        break;
      case MetricKind::Gauge:
        info.slots = 0;
        info.gaugeIndex = static_cast<std::uint32_t>(gauges_.size());
        gauges_.push_back(0.0);
        break;
    }
    SUIT_ASSERT(nextSlot_ + info.slots <= kShardSlots,
                "metric registry full registering '%s' "
                "(%u slots used of %u)",
                name.c_str(), nextSlot_, kShardSlots);
    info.firstSlot = nextSlot_;
    nextSlot_ += info.slots;

    infos_.push_back(std::move(info));
    MetricId::Info *stable = &infos_.back();
    byName_.emplace(stable->name, stable);
    return MetricId(stable);
}

Registry::Shard &
Registry::shardSlow()
{
    std::lock_guard lock(mu_);
    auto it = shards_.find(std::this_thread::get_id());
    if (it == shards_.end()) {
        void *mem = ::operator new(sizeof(std::atomic<std::uint64_t>) *
                                   kShardSlots);
        auto *cells = static_cast<std::atomic<std::uint64_t> *>(mem);
        for (std::uint32_t i = 0; i < kShardSlots; ++i)
            new (&cells[i]) std::atomic<std::uint64_t>(0);
        auto free_shard = +[](Shard *s) { ::operator delete(s); };
        it = shards_
                 .emplace(std::this_thread::get_id(),
                          std::unique_ptr<Shard, void (*)(Shard *)>(
                              reinterpret_cast<Shard *>(mem),
                              free_shard))
                 .first;
    }
    t_shard_serial = serial_;
    t_shard = it->second.get();
    return *it->second;
}

std::atomic<std::uint64_t> *
Registry::cellsFor(const MetricId::Info &info)
{
    Shard &shard = t_shard_serial == serial_
                       ? *static_cast<Shard *>(t_shard)
                       : shardSlow();
    return &shard.cells[info.firstSlot];
}

void
Registry::add(MetricId id, std::uint64_t n)
{
    if (!enabled() || !id.valid())
        return;
    SUIT_ASSERT(id.info_->kind == MetricKind::Counter,
                "add() on non-counter metric '%s'",
                id.info_->name.c_str());
    cellsFor(*id.info_)[0].fetch_add(n, std::memory_order_relaxed);
}

void
Registry::observe(MetricId id, double value)
{
    if (!enabled() || !id.valid())
        return;
    const MetricId::Info &info = *id.info_;
    SUIT_ASSERT(info.kind == MetricKind::Histogram,
                "observe() on non-histogram metric '%s'",
                info.name.c_str());
    const auto it = std::lower_bound(info.bounds.begin(),
                                     info.bounds.end(), value);
    const auto bucket =
        static_cast<std::size_t>(it - info.bounds.begin());
    std::atomic<std::uint64_t> *cells = cellsFor(info);
    cells[bucket].fetch_add(1, std::memory_order_relaxed);
    // Only this thread writes its shard, so a plain read-add-store
    // of the sum's bits loses nothing.
    std::atomic<std::uint64_t> &sum = cells[info.slots - 1];
    sum.store(std::bit_cast<std::uint64_t>(
                  std::bit_cast<double>(
                      sum.load(std::memory_order_relaxed)) +
                  value),
              std::memory_order_relaxed);
}

void
Registry::set(MetricId id, double value)
{
    if (!enabled() || !id.valid())
        return;
    SUIT_ASSERT(id.info_->kind == MetricKind::Gauge,
                "set() on non-gauge metric '%s'",
                id.info_->name.c_str());
    std::lock_guard lock(mu_);
    gauges_[id.info_->gaugeIndex] = value;
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    snapshotInto(snap);
    std::stable_sort(snap.metrics.begin(), snap.metrics.end(),
                     [](const MetricValue &a, const MetricValue &b) {
                         return a.name < b.name;
                     });
    return snap;
}

void
Registry::snapshotInto(Snapshot &out) const
{
    std::lock_guard lock(mu_);

    // Registration order: infos_ is append-only, so index i always
    // means the same metric and out's slots can be refilled in
    // place.  Cells are merged per metric, each cell read exactly
    // once, so concurrent writers cannot make a metric internally
    // inconsistent.
    if (out.metrics.size() != infos_.size())
        out.metrics.resize(infos_.size());
    std::size_t i = 0;
    for (const MetricId::Info &info : infos_) {
        MetricValue &mv = out.metrics[i++];
        mv.name = info.name;
        mv.kind = info.kind;
        mv.count = 0;
        mv.value = 0.0;
        switch (info.kind) {
          case MetricKind::Counter: {
            std::uint64_t total = 0;
            for (const auto &[tid, shard] : shards_) {
                (void)tid;
                total += shard->cells[info.firstSlot].load(
                    std::memory_order_relaxed);
            }
            mv.count = total;
            break;
          }
          case MetricKind::Gauge:
            mv.value = gauges_[info.gaugeIndex];
            break;
          case MetricKind::Histogram: {
            if (mv.histogram.bounds() == info.bounds)
                mv.histogram.resetCounts();
            else
                mv.histogram = util::BucketHistogram(info.bounds);
            const std::uint32_t sum_slot = info.slots - 1;
            for (std::uint32_t b = 0; b < sum_slot; ++b) {
                std::uint64_t total = 0;
                for (const auto &[tid, shard] : shards_) {
                    (void)tid;
                    total += shard->cells[info.firstSlot + b].load(
                        std::memory_order_relaxed);
                }
                mv.histogram.addCount(b, total);
            }
            mv.sum = 0.0;
            for (const auto &[tid, shard] : shards_) {
                (void)tid;
                mv.sum += std::bit_cast<double>(
                    shard->cells[info.firstSlot + sum_slot].load(
                        std::memory_order_relaxed));
            }
            mv.count = mv.histogram.total();
            break;
          }
        }
    }
}

void
Registry::reset()
{
    std::lock_guard lock(mu_);
    for (const auto &[tid, shard] : shards_) {
        (void)tid;
        for (std::uint32_t i = 0; i < nextSlot_; ++i)
            shard->cells[i].store(0, std::memory_order_relaxed);
    }
    std::fill(gauges_.begin(), gauges_.end(), 0.0);
}

std::size_t
Registry::size() const
{
    std::lock_guard lock(mu_);
    return byName_.size();
}

namespace {

/**
 * @p snap's metrics in name order, whatever the snapshot's own order:
 * the registration-order snapshots the telemetry sampler retains then
 * render identically to snapshot()'s name order.
 */
std::vector<const MetricValue *>
byName(const Snapshot &snap)
{
    std::vector<const MetricValue *> order;
    order.reserve(snap.metrics.size());
    for (const MetricValue &m : snap.metrics)
        order.push_back(&m);
    std::stable_sort(order.begin(), order.end(),
                     [](const MetricValue *a, const MetricValue *b) {
                         return a->name < b->name;
                     });
    return order;
}

} // namespace

std::string
renderMetricsTable(const Snapshot &snap)
{
    util::TablePrinter table({"metric", "kind", "value", "p50", "p90",
                              "p99"});
    for (const MetricValue *mp : byName(snap)) {
        const MetricValue &m = *mp;
        switch (m.kind) {
          case MetricKind::Counter:
            table.addRow({m.name, "counter",
                          util::sformat("%llu",
                                        static_cast<unsigned long long>(
                                            m.count)),
                          "", "", ""});
            break;
          case MetricKind::Gauge:
            table.addRow({m.name, "gauge",
                          util::sformat("%.6g", m.value), "", "", ""});
            break;
          case MetricKind::Histogram:
            table.addRow(
                {m.name, "histogram",
                 util::sformat("n=%llu sum=%.6g",
                               static_cast<unsigned long long>(
                                   m.histogram.total()),
                               m.sum),
                 util::sformat("%.6g", m.histogram.percentile(50.0)),
                 util::sformat("%.6g", m.histogram.percentile(90.0)),
                 util::sformat("%.6g", m.histogram.percentile(99.0))});
            break;
        }
    }
    return table.render();
}

std::string
renderMetricsJson(const Snapshot &snap)
{
    const std::vector<const MetricValue *> order = byName(snap);
    std::string out;
    out += "{\n";
    out += "  \"schema\": \"suit-obs-metrics-v1\",\n";
    out += "  \"metrics\": [\n";
    for (std::size_t i = 0; i < order.size(); ++i) {
        const MetricValue &m = *order[i];
        out += "    {";
        out += util::sformat("\"name\": %s, \"kind\": \"%s\"",
                             jsonQuote(m.name).c_str(),
                             toString(m.kind));
        switch (m.kind) {
          case MetricKind::Counter:
            out += util::sformat(", \"count\": %llu",
                                 static_cast<unsigned long long>(
                                     m.count));
            break;
          case MetricKind::Gauge:
            out += util::sformat(", \"value\": %.17g", m.value);
            break;
          case MetricKind::Histogram: {
            out += util::sformat(", \"count\": %llu",
                                 static_cast<unsigned long long>(
                                     m.histogram.total()));
            out += ", \"bounds\": [";
            const auto &bounds = m.histogram.bounds();
            for (std::size_t b = 0; b < bounds.size(); ++b) {
                if (b)
                    out += ", ";
                out += util::sformat("%.17g", bounds[b]);
            }
            out += "], \"buckets\": [";
            for (std::size_t b = 0; b < m.histogram.bucketCount();
                 ++b) {
                if (b)
                    out += ", ";
                out += util::sformat("%llu",
                                     static_cast<unsigned long long>(
                                         m.histogram.count(b)));
            }
            out += "]";
            out += util::sformat(
                ", \"sum\": %.17g, \"p50\": %.17g, \"p90\": %.17g, "
                "\"p99\": %.17g",
                m.sum,
                m.histogram.percentile(50.0),
                m.histogram.percentile(90.0),
                m.histogram.percentile(99.0));
            break;
          }
        }
        out += "}";
        if (i + 1 < order.size())
            out += ",";
        out += "\n";
    }
    out += "  ]\n";
    out += "}\n";
    return out;
}

Registry &
metrics()
{
    // Never destroyed: a CliScope's sampler thread may still be
    // reading it when fatal() calls std::exit() and static
    // destructors run.
    static Registry *const registry = new Registry;
    return *registry;
}

} // namespace suit::obs

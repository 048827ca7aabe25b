#include "obs/telemetry.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "util/logging.hh"

namespace suit::obs {

double
seriesValue(MetricKind kind, std::uint64_t raw)
{
    if (kind == MetricKind::Gauge)
        return std::bit_cast<double>(raw);
    return static_cast<double>(raw);
}

TelemetrySampler::TelemetrySampler(Registry &registry,
                                   TelemetryConfig config)
    : reg_(registry), cfg_(config),
      capacity_(std::max<std::size_t>(1, config.ringCapacity)),
      seq_(new std::atomic<std::uint64_t>[capacity_]),
      ids_(new std::atomic<std::uint64_t>[capacity_]),
      hostUsBits_(new std::atomic<std::uint64_t>[capacity_]),
      counts_(new std::atomic<std::uint32_t>[capacity_]),
      values_(new std::atomic<std::uint64_t>[capacity_ * kMaxSeries]),
      start_(std::chrono::steady_clock::now())
{
    SUIT_ASSERT(cfg_.intervalS > 0.0,
                "telemetry interval must be > 0, got %g",
                cfg_.intervalS);
    for (std::size_t i = 0; i < capacity_; ++i) {
        seq_[i].store(0, std::memory_order_relaxed);
        ids_[i].store(0, std::memory_order_relaxed);
        hostUsBits_[i].store(0, std::memory_order_relaxed);
        counts_[i].store(0, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < capacity_ * kMaxSeries; ++i)
        values_[i].store(0, std::memory_order_relaxed);
}

TelemetrySampler::~TelemetrySampler()
{
    stop();
}

void
TelemetrySampler::start(std::function<void()> onTick)
{
    std::lock_guard lock(threadMu_);
    if (thread_.joinable())
        return; // already running
    threadStop_ = false;
    thread_ = std::thread(
        [this, onTick = std::move(onTick)] { samplerMain(onTick); });
}

void
TelemetrySampler::stop()
{
    std::thread worker;
    {
        std::lock_guard lock(threadMu_);
        if (!thread_.joinable())
            return; // already stopped
        threadStop_ = true;
        worker = std::move(thread_);
    }
    threadCv_.notify_all();
    worker.join();
}

bool
TelemetrySampler::running() const
{
    std::lock_guard lock(threadMu_);
    return thread_.joinable();
}

void
TelemetrySampler::samplerMain(const std::function<void()> &onTick)
{
    const auto interval =
        std::chrono::duration<double>(cfg_.intervalS);
    std::unique_lock lock(threadMu_);
    while (!threadStop_) {
        if (threadCv_.wait_for(lock, interval,
                               [this] { return threadStop_; }))
            break;
        lock.unlock();
        sampleOnce();
        if (onTick)
            onTick();
        lock.lock();
    }
}

void
TelemetrySampler::refreshSeriesLocked(const Snapshot &snap)
{
    // Callers hold seriesMu_.  The registry is append-only in
    // registration order (snapshotInto order), so existing indices
    // never change meaning; only the new tail is appended.
    for (std::size_t i = series_.size(); i < snap.metrics.size();
         ++i) {
        if (series_.size() >= kMaxSeries) {
            seriesDropped_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        series_.push_back(
            {snap.metrics[i].name, snap.metrics[i].kind});
    }
    seriesCount_.store(static_cast<std::uint32_t>(series_.size()),
                       std::memory_order_release);
}

std::uint64_t
TelemetrySampler::sampleOnce()
{
    std::lock_guard writer(sampleMu_);

    reg_.snapshotInto(back_);
    {
        std::lock_guard lock(seriesMu_);
        refreshSeriesLocked(back_);
    }

    const std::uint64_t id =
        lastId_.load(std::memory_order_relaxed) + 1;
    const std::size_t slot = (id - 1) % capacity_;
    const std::size_t n =
        std::min<std::size_t>(back_.metrics.size(), kMaxSeries);
    const double host_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start_)
            .count();

    // Seqlock write: odd sequence marks the slot as in flux.
    const std::uint64_t s0 =
        seq_[slot].load(std::memory_order_relaxed);
    seq_[slot].store(s0 + 1, std::memory_order_relaxed);
    // Release payload stores: none becomes visible before the odd
    // sequence number (see the contract in telemetry.hh).
    ids_[slot].store(id, std::memory_order_release);
    hostUsBits_[slot].store(std::bit_cast<std::uint64_t>(host_us),
                            std::memory_order_release);
    counts_[slot].store(static_cast<std::uint32_t>(n),
                        std::memory_order_release);
    std::atomic<std::uint64_t> *row = &values_[slot * kMaxSeries];
    for (std::size_t i = 0; i < n; ++i) {
        const MetricValue &m = back_.metrics[i];
        std::uint64_t raw = 0;
        switch (m.kind) {
          case MetricKind::Counter:
          case MetricKind::Histogram:
            raw = m.count;
            break;
          case MetricKind::Gauge:
            raw = std::bit_cast<std::uint64_t>(m.value);
            break;
        }
        row[i].store(raw, std::memory_order_release);
    }
    seq_[slot].store(s0 + 2, std::memory_order_release);

    {
        std::lock_guard lock(snapMu_);
        std::swap(front_, back_);
    }
    lastId_.store(id, std::memory_order_release);
    return id;
}

std::uint64_t
TelemetrySampler::samplesTaken() const
{
    return lastId_.load(std::memory_order_acquire);
}

std::uint64_t
TelemetrySampler::seriesDropped() const
{
    return seriesDropped_.load(std::memory_order_relaxed);
}

std::vector<SeriesInfo>
TelemetrySampler::series() const
{
    std::lock_guard lock(seriesMu_);
    return series_;
}

std::size_t
TelemetrySampler::lastSamplesInto(std::vector<TelemetrySample> &out,
                                  std::size_t n) const
{
    out.clear();
    const std::uint64_t last =
        lastId_.load(std::memory_order_acquire);
    if (last == 0 || n == 0)
        return 0;
    const std::uint64_t window =
        std::min<std::uint64_t>({n, last, capacity_});
    const std::uint64_t first = last - window + 1;
    for (std::uint64_t id = first; id <= last; ++id) {
        const std::size_t slot = (id - 1) % capacity_;
        TelemetrySample sample;
        // Seqlock read; retry a few times, then skip the slot (the
        // sampler lapped us — the sample is gone anyway).
        for (int attempt = 0; attempt < 4; ++attempt) {
            const std::uint64_t s1 =
                seq_[slot].load(std::memory_order_acquire);
            if (s1 & 1)
                continue; // write in progress
            // Acquire payload loads: the second sequence load cannot
            // move before any of them.
            const std::uint64_t got =
                ids_[slot].load(std::memory_order_acquire);
            const std::uint64_t host_bits =
                hostUsBits_[slot].load(std::memory_order_acquire);
            const std::uint32_t count =
                counts_[slot].load(std::memory_order_acquire);
            sample.raw.resize(count);
            const std::atomic<std::uint64_t> *row =
                &values_[slot * kMaxSeries];
            for (std::uint32_t i = 0; i < count; ++i)
                sample.raw[i] =
                    row[i].load(std::memory_order_acquire);
            const std::uint64_t s2 =
                seq_[slot].load(std::memory_order_relaxed);
            if (s1 != s2)
                continue; // torn read, retry
            if (got != id) {
                sample.id = 0; // overwritten mid-scan
                break;
            }
            sample.id = got;
            sample.hostUs = std::bit_cast<double>(host_bits);
            break;
        }
        if (sample.id != 0)
            out.push_back(std::move(sample));
    }
    return out.size();
}

std::vector<TelemetrySample>
TelemetrySampler::lastSamples(std::size_t n) const
{
    std::vector<TelemetrySample> out;
    lastSamplesInto(out, n);
    return out;
}

std::string
TelemetrySampler::renderLatest(
    std::string (*render)(const Snapshot &)) const
{
    std::lock_guard lock(snapMu_);
    return render(front_);
}

} // namespace suit::obs

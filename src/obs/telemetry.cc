#include "obs/telemetry.hh"

#include <algorithm>

#include "util/logging.hh"

namespace suit::obs {

TelemetrySampler::Tail::Tail(const TelemetrySampler &sampler,
                             bool tryLock)
    : sampler_(sampler),
      lock_(tryLock ? std::unique_lock(sampler.mu_, std::try_to_lock)
                    : std::unique_lock(sampler.mu_))
{
}

std::size_t
TelemetrySampler::Tail::size() const
{
    if (!lock_.owns_lock())
        return 0;
    return std::min<std::uint64_t>(sampler_.taken_, kRingSamples);
}

const TelemetrySample &
TelemetrySampler::Tail::operator[](std::size_t i) const
{
    SUIT_ASSERT(i < size(), "telemetry tail index %zu out of range",
                i);
    return sampler_
        .ring_[(sampler_.taken_ - size() + i) % kRingSamples];
}

TelemetrySampler::TelemetrySampler(Registry &registry,
                                   double intervalS)
    : reg_(registry), intervalS_(intervalS),
      start_(std::chrono::steady_clock::now()), ring_(kRingSamples)
{
    SUIT_ASSERT(intervalS_ > 0.0,
                "telemetry interval must be > 0, got %g", intervalS_);
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
    const auto interval = std::chrono::duration<double>(intervalS_);
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

std::uint64_t
TelemetrySampler::sampleOnce()
{
    std::lock_guard lock(mu_);
    TelemetrySample &sample = ring_[taken_ % kRingSamples];
    reg_.snapshotInto(sample.snapshot);
    sample.id = ++taken_;
    sample.hostUs = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    return sample.id;
}

std::uint64_t
TelemetrySampler::samplesTaken() const
{
    std::lock_guard lock(mu_);
    return taken_;
}

TelemetrySampler::Tail
TelemetrySampler::tail(bool tryLock) const
{
    return Tail(*this, tryLock);
}

std::string
TelemetrySampler::renderLatest(
    std::string (*render)(const Snapshot &)) const
{
    std::lock_guard lock(mu_);
    // Before the first sample every slot holds an empty snapshot.
    return render(ring_[(taken_ + kRingSamples - 1) % kRingSamples]
                      .snapshot);
}

} // namespace suit::obs

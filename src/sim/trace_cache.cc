#include "sim/trace_cache.hh"

#include <array>
#include <chrono>

#include "obs/flight.hh"
#include "obs/registry.hh"
#include "trace/generator.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace suit::sim {

using suit::trace::Trace;
using suit::trace::TraceGenerator;
using suit::trace::WorkloadProfile;
using Clock = std::chrono::steady_clock;

TraceCache::TraceCache(std::size_t capacity_bytes)
    : capacity_(capacity_bytes)
{
    SUIT_ASSERT(capacity_ > 0, "trace cache capacity must be > 0");
}

std::shared_ptr<const Trace>
TraceCache::get(const WorkloadProfile &profile, std::uint64_t seed,
                int stream)
{
    std::shared_ptr<const Trace> trace;
    fetch(profile, seed, stream, 1, &trace);
    return trace;
}

void
TraceCache::getMany(
    const WorkloadProfile &profile, std::uint64_t seed, int streams,
    std::vector<std::shared_ptr<const Trace>> &out)
{
    SUIT_ASSERT(streams >= 1 && streams <= kMaxStreams,
                "getMany() supports 1..%d streams, got %d",
                kMaxStreams, streams);
    out.clear();
    out.resize(static_cast<std::size_t>(streams));
    fetch(profile, seed, 0, streams, out.data());
}

void
TraceCache::fetch(const WorkloadProfile &profile, std::uint64_t seed,
                  int first, int count, std::shared_ptr<const Trace> *out)
{
    // Slots of the streams whose trace is not yet built; everything
    // already accounted is answered directly under the single lock.
    std::array<std::shared_ptr<Slot>, kMaxStreams> pending;
    bool any_pending = false;
    {
        std::lock_guard lock(mu_);
        for (int i = 0; i < count; ++i) {
            const auto [it, inserted] =
                map_.try_emplace(Key{profile.name, seed, first + i});
            if (inserted) {
                it->second.slot = std::make_shared<Slot>();
                lru_.push_front(&it->first);
                it->second.lruIt = lru_.begin();
            } else {
                // Touch: move to the recency front.
                lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            }
            const Entry &entry = it->second;
            if (entry.accounted) {
                out[i] = entry.slot->trace;
            } else {
                pending[static_cast<std::size_t>(i)] = entry.slot;
                any_pending = true;
            }
        }
    }

    static const obs::MetricId hit_id =
        obs::metrics().counter("sim.trace_cache.hits");
    static const obs::MetricId miss_id =
        obs::metrics().counter("sim.trace_cache.misses");
    static const obs::MetricId evict_id =
        obs::metrics().counter("sim.trace_cache.evictions");

    std::uint64_t generated = 0;
    if (any_pending) {
        // Registered here, not with the counters, so the hit path
        // never touches them.
        static const obs::MetricId generate_ms_id =
            obs::metrics().histogram(
                "trace.generate_ms",
                {0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0});
        static const obs::MetricId wait_ms_id =
            obs::metrics().histogram(
                "sim.trace_cache.wait_ms",
                {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0});
        const bool timed = obs::metrics().enabled();
        // Time spent in call_once on streams another caller built:
        // one sample per fetch that found any.
        Clock::duration waited{};
        bool waited_any = false;
        // Generation happens outside the map lock: distinct traces
        // build concurrently; racing lookups of the *same* key
        // serialise on the slot's once_flag and generate exactly once.
        for (int i = 0; i < count; ++i) {
            const std::shared_ptr<Slot> &slot =
                pending[static_cast<std::size_t>(i)];
            if (!slot)
                continue;
            const Clock::time_point start =
                timed ? Clock::now() : Clock::time_point{};
            const std::uint64_t generated_before = generated;
            std::call_once(slot->once, [&] {
                obs::Span span("trace.generate", "trace",
                               generate_ms_id);
                auto built = std::make_shared<const Trace>(
                    TraceGenerator(seed).generate(profile, first + i));
                slot->bytes = built->memoryBytes();
                slot->trace = std::move(built);
                ++generated;
            });
            if (timed && generated == generated_before) {
                waited += Clock::now() - start;
                waited_any = true;
            }
            out[i] = slot->trace;
        }
        if (waited_any)
            obs::metrics().observe(
                wait_ms_id,
                std::chrono::duration<double, std::milli>(waited).count());
        // Account every newly built entry in one lock, iff the entry
        // is still ours (it may have been evicted mid-generation, or
        // replaced by a fresh slot after such an eviction).
        std::uint64_t evicted = 0;
        {
            std::lock_guard lock(mu_);
            for (int i = 0; i < count; ++i) {
                const std::shared_ptr<Slot> &slot =
                    pending[static_cast<std::size_t>(i)];
                if (!slot)
                    continue;
                const auto it =
                    map_.find(Key{profile.name, seed, first + i});
                if (it != map_.end() && it->second.slot == slot &&
                    !it->second.accounted) {
                    it->second.accounted = true;
                    bytes_ += slot->bytes;
                }
            }
            const std::uint64_t before =
                evictions_.load(std::memory_order_relaxed);
            evictLocked();
            evicted = evictions_.load(std::memory_order_relaxed) -
                      before;
        }
        if (evicted != 0)
            obs::metrics().add(evict_id, evicted);
    }

    const std::uint64_t hit_count =
        static_cast<std::uint64_t>(count) - generated;
    if (hit_count != 0) {
        hits_.fetch_add(hit_count, std::memory_order_relaxed);
        obs::metrics().add(hit_id, hit_count);
    }
    if (generated != 0) {
        misses_.fetch_add(generated, std::memory_order_relaxed);
        obs::metrics().add(miss_id, generated);
    }
}

void
TraceCache::evictLocked()
{
    while (bytes_ > capacity_ && !lru_.empty()) {
        // Walk from the LRU tail, skipping entries still generating
        // (unaccounted) — those cannot be costed or safely dropped.
        bool evicted = false;
        auto it = lru_.end();
        do {
            --it;
            const auto mit = map_.find(**it);
            SUIT_ASSERT(mit != map_.end(),
                        "trace cache LRU list out of sync");
            Entry &entry = mit->second;
            if (!entry.accounted)
                continue;
            bytes_ -= entry.slot->bytes;
            lru_.erase(it);
            map_.erase(mit);
            evictions_.fetch_add(1, std::memory_order_relaxed);
            evicted = true;
            break;
        } while (it != lru_.begin());
        if (!evicted)
            break; // everything resident is in flight; transient
    }
}

std::size_t
TraceCache::entries() const
{
    std::lock_guard lock(mu_);
    return map_.size();
}

std::uint64_t
TraceCache::hits() const
{
    return hits_.load(std::memory_order_relaxed);
}

std::uint64_t
TraceCache::misses() const
{
    return misses_.load(std::memory_order_relaxed);
}

std::uint64_t
TraceCache::evictions() const
{
    return evictions_.load(std::memory_order_relaxed);
}

std::size_t
TraceCache::residentBytes() const
{
    std::lock_guard lock(mu_);
    return bytes_;
}

std::string
TraceCache::summary() const
{
    // misses counts every generation, so the rate stays right when
    // eviction makes a trace regenerate (entries() only counts
    // residents).
    const std::uint64_t hit = hits();
    const std::uint64_t miss = misses();
    const std::uint64_t lookups = hit + miss;
    return suit::util::sformat(
        "%llu traces generated, %llu cache hits, %llu evicted, "
        "%.1f%% hit rate",
        static_cast<unsigned long long>(miss),
        static_cast<unsigned long long>(hit),
        static_cast<unsigned long long>(evictions()),
        lookups > 0 ? 100.0 * static_cast<double>(hit) /
                          static_cast<double>(lookups)
                    : 0.0);
}

TraceCache &
globalTraceCache()
{
    static TraceCache cache;
    return cache;
}

} // namespace suit::sim

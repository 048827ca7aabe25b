/**
 * @file
 * Thread-safe, bounded memoisation of generated traces.
 *
 * Traces are pure functions of (profile, seed, stream); the benchmark
 * harnesses re-run the same workloads under many configurations
 * (Table 6 alone revisits each (CPU, workload, seed) pair once per
 * strategy x offset cell), so generation is memoised.  Each entry is
 * generated exactly once via std::call_once, without holding the map
 * lock during generation (so distinct traces generate in parallel).
 *
 * The cache is *bounded*: resident bytes (Trace::memoryBytes()) are
 * capped and the least-recently-used entries are evicted once an
 * insertion exceeds the cap.  Eviction is safe against concurrent
 * readers because get() hands out std::shared_ptr<const Trace> —
 * an evicted trace stays alive until its last user drops the pin —
 * and it is *deterministic-by-construction*: a trace is a pure
 * function of its key, so regenerating an evicted entry yields the
 * same bytes and the simulation output cannot depend on eviction
 * order.  Entries still generating (slot not yet populated) are
 * never evicted.
 *
 * Lookups are few: a sweep fetches once per cell and the fleet
 * engine once per run of equal-key domains.  The map is hashed on an
 * owning (name, seed, stream) key; profile names fit the standard
 * library's small-string buffer, so building one per lookup does not
 * allocate.  The hit/miss/eviction counters are relaxed atomics
 * readable without the mutex.  A lookup that finds a stream not yet
 * built also feeds two obs histograms: `trace.generate_ms` (one
 * obs::Span per generated stream) and `sim.trace_cache.wait_ms` (the
 * time it blocked on streams another caller was generating); hits
 * touch neither.
 */

#ifndef SUIT_SIM_TRACE_CACHE_HH
#define SUIT_SIM_TRACE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "trace/profile.hh"
#include "trace/trace.hh"
#include "util/hash.hh"

namespace suit::sim {

/** Keyed LRU store of generated traces, safe for concurrent use. */
class TraceCache
{
  public:
    /** Default capacity: 256 MiB of resident trace data. */
    static constexpr std::size_t kDefaultCapacityBytes =
        std::size_t{256} << 20;

    explicit TraceCache(
        std::size_t capacity_bytes = kDefaultCapacityBytes);

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * The trace for (@p profile, @p seed, @p stream), generating it
     * on first use.  The returned shared_ptr pins the trace: it
     * stays valid even if the cache evicts the entry mid-use.  Keep
     * the pin for the duration of a simulation, not longer.
     */
    std::shared_ptr<const suit::trace::Trace>
    get(const suit::trace::WorkloadProfile &profile,
        std::uint64_t seed, int stream);

    /**
     * Streams a domain can hold; bounds getMany()'s stack scratch.
     * The one per-domain core cap: suit_sim and suit_sweep --cores
     * and the fleet spec's cores= all reject anything above it.
     */
    static constexpr int kMaxStreams = 64;

    /**
     * Pin streams [0, @p streams) of (@p profile, @p seed) into
     * @p out (cleared first, capacity reused), taking the map lock
     * once for the whole batch instead of once per stream — the
     * multi-stream domain hot path.  Each pin is exactly what get()
     * would return; generation of missing entries still happens
     * outside the lock.
     */
    void getMany(const suit::trace::WorkloadProfile &profile,
                 std::uint64_t seed, int streams,
                 std::vector<std::shared_ptr<const suit::trace::Trace>>
                     &out);

    /** Distinct traces currently resident (post-eviction). */
    std::size_t entries() const;

    /** get() calls answered without generating (telemetry). */
    std::uint64_t hits() const;

    /** get() calls that generated a trace (== total generations). */
    std::uint64_t misses() const;

    /** Entries evicted to stay under the byte cap. */
    std::uint64_t evictions() const;

    /** Bytes of resident trace data (accounted entries only). */
    std::size_t residentBytes() const;

    /**
     * One-line counter summary for CLI footers: "N traces generated,
     * H cache hits, E evicted, R% hit rate", R being hits over
     * lookups.
     */
    std::string summary() const;

    std::size_t capacityBytes() const { return capacity_; }

  private:
    /**
     * Cache key.  Profiles are identified by name (the profile
     * database owns one immutable profile per name).
     */
    struct Key
    {
        std::string name;
        std::uint64_t seed = 0;
        int stream = 0;

        bool operator==(const Key &) const = default;
    };

    /** FNV-1a hash over (name bytes, seed, stream). */
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const
        {
            unsigned char tail[12];
            for (int i = 0; i < 8; ++i)
                tail[i] = static_cast<unsigned char>(k.seed >> (8 * i));
            const auto stream = static_cast<std::uint32_t>(k.stream);
            for (int i = 0; i < 4; ++i)
                tail[8 + i] =
                    static_cast<unsigned char>(stream >> (8 * i));
            return static_cast<std::size_t>(suit::util::fnv1a64(
                tail, sizeof(tail),
                suit::util::fnv1a64(k.name.data(), k.name.size())));
        }
    };

    /**
     * Generation slot, shared between the map entry and any get()
     * caller racing the generator.  Lives on after eviction until
     * the last pin drops.  `trace` and `bytes` are written once
     * inside call_once; readers synchronise through the once_flag
     * (generator races) or the cache mutex (eviction scans, which
     * only look at accounted entries).
     */
    struct Slot
    {
        std::once_flag once;
        std::shared_ptr<const suit::trace::Trace> trace;
        std::size_t bytes = 0;
    };

    struct Entry
    {
        std::shared_ptr<Slot> slot;
        /** Position in lru_ (front = most recently used). */
        std::list<const Key *>::iterator lruIt;
        /** True once `bytes_` includes this entry (generation done). */
        bool accounted = false;
    };

    /**
     * Pin streams [@p first, @p first + @p count) of (@p profile,
     * @p seed) into out[0, @p count) under one map lock, generating
     * missing entries outside it; get() and getMany() share it.
     * @p count is at most kMaxStreams.
     */
    void fetch(const suit::trace::WorkloadProfile &profile,
               std::uint64_t seed, int first, int count,
               std::shared_ptr<const suit::trace::Trace> *out);

    /** Evict accounted LRU entries until bytes_ <= capacity_. */
    void evictLocked();

    mutable std::mutex mu_;
    std::unordered_map<Key, Entry, KeyHash> map_;
    /** Recency order; points at map node keys (stable addresses). */
    std::list<const Key *> lru_;
    std::size_t capacity_;
    std::size_t bytes_ = 0;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

/**
 * The process-wide cache used by runWorkload() when no explicit
 * cache is passed (keeps the serial single-run tools allocation-free
 * across repeated calls, exactly like the old static map).
 */
TraceCache &globalTraceCache();

} // namespace suit::sim

#endif // SUIT_SIM_TRACE_CACHE_HH

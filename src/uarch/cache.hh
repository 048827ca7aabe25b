/**
 * @file
 * Set-associative cache hierarchy (Table 5: 64 kB L1I, 32 kB L1D,
 * 2 MB LLC over DDR4-2400).
 *
 * The latency study needs a realistic distribution of load-use
 * latencies, not bandwidth contention, so the hierarchy is a simple
 * latency model: LRU set-associative arrays chained to a fixed DRAM
 * latency; misses do not contend.
 */

#ifndef SUIT_UARCH_CACHE_HH
#define SUIT_UARCH_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace suit::uarch {

/** One set-associative LRU cache level. */
class Cache
{
  public:
    /** Static geometry + timing. */
    struct Config
    {
        std::string name = "L1";
        std::uint64_t sizeBytes = 32 * 1024;
        int associativity = 8;
        int lineBytes = 64;
        int hitLatency = 4; //!< cycles, including tag check
    };

    /** @param parent next level, or nullptr for the last level. */
    Cache(const Config &config, Cache *parent);

    /**
     * Access @p addr; allocates on miss.
     * @return total latency in cycles including lower levels.
     */
    int access(std::uint64_t addr, int miss_to_memory_latency);

    /** Lookup without allocation or stats (for tests). */
    bool contains(std::uint64_t addr) const;

    /** @{ Statistics. */
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    /** @} */

    const Config &config() const { return cfg_; }

  private:
    struct Line
    {
        std::uint64_t tag = ~0ULL;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    Config cfg_;
    Cache *parent_;
    std::vector<Line> lines_;
    std::size_t numSets_;
    std::uint64_t useClock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;

    std::size_t setIndex(std::uint64_t addr) const;
    std::uint64_t tagOf(std::uint64_t addr) const;
};

/** The Table 5 memory system: L1I + L1D -> shared LLC -> DRAM. */
class MemoryHierarchy
{
  public:
    /** Timing configuration. */
    struct Config
    {
        Cache::Config l1i{"L1I", 64 * 1024, 8, 64, 1};
        Cache::Config l1d{"L1D", 32 * 1024, 8, 64, 4};
        Cache::Config llc{"LLC", 2 * 1024 * 1024, 16, 64, 35};
        /** DDR4-2400 round trip at 3 GHz, in core cycles. */
        int dramLatency = 220;
    };

    /** Build with the Table 5 defaults. */
    MemoryHierarchy() : MemoryHierarchy(Config{}) {}

    explicit MemoryHierarchy(const Config &config);

    /** Data access latency in cycles. */
    int dataAccess(std::uint64_t addr);
    /** Instruction fetch latency in cycles. */
    int instAccess(std::uint64_t addr);

    /** @{ Component access (read-only, for stats). */
    const Cache &l1d() const { return l1d_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &llc() const { return llc_; }
    /** @} */

  private:
    Config cfg_;
    Cache llc_;
    Cache l1i_;
    Cache l1d_;
};

} // namespace suit::uarch

#endif // SUIT_UARCH_CACHE_HH

#include "uarch/cache.hh"

#include "util/logging.hh"

namespace suit::uarch {

Cache::Cache(const Config &config, Cache *parent)
    : cfg_(config), parent_(parent)
{
    SUIT_ASSERT(cfg_.lineBytes > 0 &&
                    (cfg_.lineBytes & (cfg_.lineBytes - 1)) == 0,
                "line size must be a power of two");
    SUIT_ASSERT(cfg_.associativity > 0, "associativity must be > 0");
    const std::uint64_t lines = cfg_.sizeBytes /
                                static_cast<std::uint64_t>(
                                    cfg_.lineBytes);
    SUIT_ASSERT(lines % static_cast<std::uint64_t>(
                            cfg_.associativity) ==
                    0,
                "cache '%s': size/assoc mismatch", cfg_.name.c_str());
    numSets_ = static_cast<std::size_t>(
        lines / static_cast<std::uint64_t>(cfg_.associativity));
    SUIT_ASSERT(numSets_ > 0 && (numSets_ & (numSets_ - 1)) == 0,
                "cache '%s': set count must be a power of two",
                cfg_.name.c_str());
    lines_.assign(lines, Line{});
}

std::size_t
Cache::setIndex(std::uint64_t addr) const
{
    return static_cast<std::size_t>(
        (addr / static_cast<std::uint64_t>(cfg_.lineBytes)) &
        (numSets_ - 1));
}

std::uint64_t
Cache::tagOf(std::uint64_t addr) const
{
    return addr / static_cast<std::uint64_t>(cfg_.lineBytes) /
           numSets_;
}

int
Cache::access(std::uint64_t addr, int miss_to_memory_latency)
{
    ++accesses_;
    ++useClock_;
    const std::size_t set = setIndex(addr);
    const std::uint64_t tag = tagOf(addr);
    Line *entry = &lines_[set * static_cast<std::size_t>(
                                    cfg_.associativity)];

    for (int w = 0; w < cfg_.associativity; ++w) {
        Line &line = entry[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock_;
            return cfg_.hitLatency;
        }
    }

    // Miss: pick an invalid way, else the LRU way.
    Line *victim = nullptr;
    for (int w = 0; w < cfg_.associativity && !victim; ++w) {
        if (!entry[w].valid)
            victim = &entry[w];
    }
    if (!victim) {
        victim = entry;
        for (int w = 1; w < cfg_.associativity; ++w) {
            if (entry[w].lastUse < victim->lastUse)
                victim = &entry[w];
        }
    }

    ++misses_;
    const int below =
        parent_ ? parent_->access(addr, miss_to_memory_latency)
                : miss_to_memory_latency;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock_;
    return cfg_.hitLatency + below;
}

bool
Cache::contains(std::uint64_t addr) const
{
    const std::size_t set = setIndex(addr);
    const std::uint64_t tag = tagOf(addr);
    const Line *entry = &lines_[set * static_cast<std::size_t>(
                                          cfg_.associativity)];
    for (int w = 0; w < cfg_.associativity; ++w) {
        if (entry[w].valid && entry[w].tag == tag)
            return true;
    }
    return false;
}

MemoryHierarchy::MemoryHierarchy(const Config &config)
    : cfg_(config), llc_(cfg_.llc, nullptr), l1i_(cfg_.l1i, &llc_),
      l1d_(cfg_.l1d, &llc_)
{
}

int
MemoryHierarchy::dataAccess(std::uint64_t addr)
{
    return l1d_.access(addr, cfg_.dramLatency);
}

int
MemoryHierarchy::instAccess(std::uint64_t addr)
{
    return l1i_.access(addr, cfg_.dramLatency);
}

} // namespace suit::uarch

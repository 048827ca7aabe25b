#include "fleet/accumulator.hh"

#include <algorithm>

#include "util/bytes.hh"
#include "util/logging.hh"

namespace suit::fleet {

namespace {

using suit::util::ByteReader;
using suit::util::putF64;
using suit::util::putU64;

void
putSum(const suit::util::ExactSum &sum, std::string &out)
{
    putU64(sum.parts().size(), out);
    for (const double part : sum.parts())
        putF64(part, out);
}

bool
readSum(ByteReader &r, suit::util::ExactSum &out)
{
    const std::uint64_t parts = r.u64();
    if (!r.ok() || parts > r.remaining() / 8)
        return false;
    std::vector<double> values;
    values.reserve(parts);
    for (std::uint64_t i = 0; i < parts; ++i)
        values.push_back(r.f64());
    if (!r.ok())
        return false;
    out = suit::util::ExactSum::fromParts(std::move(values));
    return true;
}

constexpr std::uint64_t kFormatVersion = 1;

} // namespace

const std::vector<double> &
slowdownBoundsPct()
{
    static const std::vector<double> bounds{
        0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0,
        50.0};
    return bounds;
}

void
RackTotals::merge(const RackTotals &other)
{
    domains += other.domains;
    wattsBefore.merge(other.wattsBefore);
    wattsAfter.merge(other.wattsAfter);
    perfDeltaSum.merge(other.perfDeltaSum);
    efficientShareSum.merge(other.efficientShareSum);
    durationSum.merge(other.durationSum);
    traps += other.traps;
    emulations += other.emulations;
    pstateSwitches += other.pstateSwitches;
    thrashDetections += other.thrashDetections;
}

FleetAccumulator::FleetAccumulator()
    : slowdown_(slowdownBoundsPct())
{
}

FleetAccumulator::FleetAccumulator(std::size_t racks)
    : racks_(racks), slowdown_(slowdownBoundsPct())
{
}

void
FleetAccumulator::addDomain(std::size_t rack, double basePowerW,
                            const suit::sim::DomainResult &result)
{
    SUIT_ASSERT(rack < racks_.size(),
                "rack %zu out of range (%zu racks)", rack,
                racks_.size());
    RackTotals &totals = racks_[rack];
    ++totals.domains;
    totals.wattsBefore.add(basePowerW);
    totals.wattsAfter.add(basePowerW * result.powerFactor);
    const double perfDelta = result.perfDelta();
    totals.perfDeltaSum.add(perfDelta);
    totals.efficientShareSum.add(result.efficientShare);
    double duration = 0.0;
    for (const suit::sim::CoreResult &core : result.cores)
        duration += core.durationS;
    totals.durationSum.add(duration);
    totals.traps += result.traps;
    totals.emulations += result.emulations;
    totals.pstateSwitches += result.pstateSwitches;
    totals.thrashDetections += result.thrashDetections;
    slowdown_.add(std::max(0.0, -perfDelta * 100.0));
}

void
FleetAccumulator::merge(const FleetAccumulator &other)
{
    SUIT_ASSERT(racks_.size() == other.racks_.size(),
                "merging fleet accumulators with different rack "
                "counts (%zu vs %zu)",
                racks_.size(), other.racks_.size());
    for (std::size_t i = 0; i < racks_.size(); ++i)
        racks_[i].merge(other.racks_[i]);
    slowdown_.merge(other.slowdown_);
}

const RackTotals &
FleetAccumulator::rack(std::size_t i) const
{
    SUIT_ASSERT(i < racks_.size(), "rack %zu out of range (%zu racks)",
                i, racks_.size());
    return racks_[i];
}

std::uint64_t
FleetAccumulator::totalDomains() const
{
    std::uint64_t total = 0;
    for (const RackTotals &totals : racks_)
        total += totals.domains;
    return total;
}

void
FleetAccumulator::serialize(std::string &out) const
{
    putU64(kFormatVersion, out);
    putU64(racks_.size(), out);
    for (const RackTotals &totals : racks_) {
        putU64(totals.domains, out);
        putSum(totals.wattsBefore, out);
        putSum(totals.wattsAfter, out);
        putSum(totals.perfDeltaSum, out);
        putSum(totals.efficientShareSum, out);
        putSum(totals.durationSum, out);
        putU64(totals.traps, out);
        putU64(totals.emulations, out);
        putU64(totals.pstateSwitches, out);
        putU64(totals.thrashDetections, out);
    }
    putU64(slowdown_.bucketCount(), out);
    for (std::size_t i = 0; i < slowdown_.bucketCount(); ++i)
        putU64(slowdown_.count(i), out);
}

bool
FleetAccumulator::deserialize(const char *data, std::size_t size,
                              std::size_t &offset)
{
    ByteReader r(data, size, offset);
    if (r.u64() != kFormatVersion)
        return false;

    const std::uint64_t racks = r.u64();
    // Element floor: 10 u64 fields per rack minimum.
    if (!r.ok() || racks > r.remaining() / 80)
        return false;
    racks_.assign(racks, RackTotals{});
    for (std::uint64_t i = 0; i < racks; ++i) {
        RackTotals &totals = racks_[i];
        totals.domains = r.u64();
        if (!readSum(r, totals.wattsBefore) ||
            !readSum(r, totals.wattsAfter) ||
            !readSum(r, totals.perfDeltaSum) ||
            !readSum(r, totals.efficientShareSum) ||
            !readSum(r, totals.durationSum))
            return false;
        totals.traps = r.u64();
        totals.emulations = r.u64();
        totals.pstateSwitches = r.u64();
        totals.thrashDetections = r.u64();
        if (!r.ok())
            return false;
    }

    const std::uint64_t buckets = r.u64();
    suit::util::BucketHistogram hist(slowdownBoundsPct());
    if (!r.ok() || buckets != hist.bucketCount())
        return false;
    for (std::uint64_t i = 0; i < buckets; ++i) {
        const std::uint64_t n = r.u64();
        if (!r.ok())
            return false;
        if (n != 0)
            hist.addCount(i, n);
    }
    slowdown_ = std::move(hist);

    offset = r.pos();
    return true;
}

} // namespace suit::fleet

#include "trace/generator.hh"

#include <algorithm>
#include <cmath>

#include "util/hash.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace suit::trace {

using suit::isa::FaultableKind;
using suit::isa::kNumFaultableKinds;
using suit::util::Rng;

namespace {

FaultableKind
sampleKind(const std::array<double, kNumFaultableKinds> &mix, Rng &rng)
{
    // The first kind whose running remainder goes negative, found
    // without a data-dependent exit (which mispredicted about once
    // per event): with non-negative weights (makeMix()) the remainder
    // never rises, so the count of values still >= 0 is that kind's
    // index.  Same subtractions in the same order, so the same kind.
    double u = rng.nextDouble();
    std::size_t kind = 0;
    for (std::size_t i = 0; i < kNumFaultableKinds; ++i) {
        u -= mix[i];
        kind += u >= 0.0 ? 1 : 0;
    }
    if (kind < kNumFaultableKinds)
        return static_cast<FaultableKind>(kind);
    // Numerical leftovers land on the last kind with weight.
    for (std::size_t i = kNumFaultableKinds; i-- > 0;) {
        if (mix[i] > 0.0)
            return static_cast<FaultableKind>(i);
    }
    SUIT_PANIC("kind mix has no positive weight");
}

} // namespace

TraceGenerator::TraceGenerator(std::uint64_t seed) : seed_(seed) {}

Trace
TraceGenerator::generate(const WorkloadProfile &profile,
                         int stream_id) const
{
    // FNV-1a folds the profile name into the seed.
    Rng rng(seed_ ^
            suit::util::fnv1a64(profile.name.data(), profile.name.size()) ^
            (static_cast<std::uint64_t>(stream_id) * 0x9E3779B9ULL));

    const BurstModel &bm = profile.bursts;
    SUIT_ASSERT(bm.meanBurstEvents >= 1.0,
                "profile '%s': burst must contain at least one event",
                profile.name.c_str());
    for (const double weight : profile.kindMix)
        SUIT_ASSERT(weight >= 0.0,
                    "profile '%s': kind mix weight %g is negative",
                    profile.name.c_str(), weight);

    // Events go straight into the trace's columns.  A loose
    // reservation (heavy-tailed gaps make the count vary); the Trace
    // constructor trims the slack.
    EventColumns events;
    const double expected_cycle =
        bm.meanInterBurstGap() +
        bm.meanBurstEvents * bm.meanWithinBurstGap;
    events.reserve(static_cast<std::size_t>(std::min(
        4e6, static_cast<double>(profile.totalInstructions) /
                 expected_cycle * bm.meanBurstEvents * 1.3)));

    std::uint64_t consumed = 0; // instructions emitted so far
    const std::uint64_t total = profile.totalInstructions;
    const double continue_p = 1.0 - 1.0 / bm.meanBurstEvents;

    while (true) {
        // Inter-burst gap (log-normal, at least one instruction).
        const double gap_d = rng.nextLogNormal(bm.interBurstGapLogMean,
                                               bm.interBurstGapLogSigma);
        std::uint64_t gap =
            std::max<std::uint64_t>(1, static_cast<std::uint64_t>(gap_d));
        if (consumed + gap + 1 > total)
            break;

        // Burst: geometric number of events with small internal gaps.
        bool first = true;
        do {
            if (!first) {
                const double wg = std::max(
                    1.0,
                    rng.nextExponential(bm.meanWithinBurstGap));
                gap = static_cast<std::uint64_t>(wg);
                if (consumed + gap + 1 > total)
                    break;
            }
            events.push_back(gap, sampleKind(profile.kindMix, rng));
            consumed += gap + 1;
            first = false;
        } while (rng.nextBool(continue_p));

        if (consumed >= total)
            break;
        if (events.size() >= 4'000'000) {
            suit::util::warn(
                "trace '%s' truncated at %zu events "
                "(%.1f%% of the stream)",
                profile.name.c_str(), events.size(),
                100.0 * static_cast<double>(consumed) /
                    static_cast<double>(total));
            break;
        }
    }

    return Trace(profile.name, total, profile.ipc, std::move(events),
                 profile.eventWeight);
}

} // namespace suit::trace

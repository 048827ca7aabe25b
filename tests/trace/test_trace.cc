/**
 * @file
 * Tests of the trace representation, profiles and generator.
 */

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include <sstream>

#include "trace/generator.hh"
#include "trace/io.hh"
#include "trace/profile.hh"
#include "trace/trace.hh"
#include "util/rng.hh"

namespace suit::trace {

/**
 * Friend hook that corrupts a constructed trace, so the defensive
 * asserts (which the constructor's own validation makes unreachable
 * through the public interface) can be exercised.
 */
class TraceTestPeer
{
  public:
    static void setTotalInstructions(Trace &t, std::uint64_t total)
    {
        t.totalInstructions_ = total;
    }
};

} // namespace suit::trace

namespace {

using namespace suit::trace;
using suit::isa::FaultableKind;

TEST(TraceTest, EventIndicesAccumulateGaps)
{
    const Trace t("t", 1000, 1.0,
                  {{10, FaultableKind::VOR},
                   {5, FaultableKind::AESENC},
                   {0, FaultableKind::VXOR}});
    EXPECT_EQ(t.eventCount(), 3u);
    EXPECT_EQ(t.eventIndex(0), 10u);
    EXPECT_EQ(t.eventIndex(1), 16u);  // 10 + 1 + 5
    EXPECT_EQ(t.eventIndex(2), 17u);  // back to back
}

TEST(TraceTest, StatsCountKindsAndGaps)
{
    const Trace t("t", 100000, 1.0,
                  {{10, FaultableKind::VOR},
                   {5000, FaultableKind::VOR},
                   {99, FaultableKind::AESENC}});
    const TraceStats s = TraceStats::compute(t);
    EXPECT_EQ(s.kindCounts[static_cast<std::size_t>(
                  FaultableKind::VOR)],
              2u);
    EXPECT_EQ(s.kindCounts[static_cast<std::size_t>(
                  FaultableKind::AESENC)],
              1u);
    EXPECT_EQ(s.maxGap, 5000u);
    EXPECT_NEAR(s.meanGap, (10.0 + 5000.0 + 99.0) / 3.0, 1e-9);
    EXPECT_EQ(s.gapHistogram.bucket(1), 2u); // gaps 10 and 99
    EXPECT_EQ(s.gapHistogram.bucket(3), 1u); // gap 5000
}

TEST(Profiles, DatabaseIsComplete)
{
    const auto &all = allProfiles();
    EXPECT_EQ(all.size(), 25u); // 23 SPEC + Nginx + VLC
    EXPECT_EQ(specProfiles().size(), 23u);

    int int_count = 0, fp_count = 0;
    for (const auto &p : specProfiles()) {
        int_count += p.suite == Suite::SpecInt;
        fp_count += p.suite == Suite::SpecFp;
    }
    EXPECT_EQ(int_count, 10);
    EXPECT_EQ(fp_count, 13);
}

TEST(Profiles, Table4AnchorsPresent)
{
    EXPECT_NEAR(profileByName("508.namd").noSimdDelta, -0.22, 1e-9);
    EXPECT_NEAR(profileByName("538.imagick").noSimdDelta, -0.12, 1e-9);
    EXPECT_NEAR(profileByName("525.x264").noSimdDelta, 0.07, 1e-9);
    EXPECT_NEAR(profileByName("548.exchange2").noSimdDelta, 0.077,
                1e-9);
}

TEST(Profiles, ImulDensitiesMatchSec61)
{
    // 525.x264: 0.99 % IMUL; everything else well below.
    EXPECT_NEAR(profileByName("525.x264").imulFraction, 0.0099, 1e-9);
    for (const auto &p : allProfiles()) {
        if (p.name != "525.x264") {
            EXPECT_LT(p.imulFraction, 0.002) << p.name;
        }
    }
}

TEST(Profiles, KindMixesAreNormalised)
{
    for (const auto &p : allProfiles()) {
        double sum = 0.0;
        for (double w : p.kindMix)
            sum += w;
        EXPECT_NEAR(sum, 1.0, 1e-9) << p.name;
        // IMUL never appears as a trap event (hardened statically).
        EXPECT_DOUBLE_EQ(
            p.kindMix[static_cast<std::size_t>(FaultableKind::IMUL)],
            0.0)
            << p.name;
    }
}

TEST(Profiles, NetworkWorkloadsAreCryptoHeavy)
{
    for (const auto *p : {&nginxProfile(), &vlcProfile()}) {
        EXPECT_GT(p->kindMix[static_cast<std::size_t>(
                      FaultableKind::AESENC)],
                  0.5)
            << p->name;
        EXPECT_EQ(p->suite, Suite::Network);
    }
}

TEST(BurstModelTest, CalibrationHitsRequestedShare)
{
    BurstModel bm;
    bm.meanBurstEvents = 4;
    bm.meanWithinBurstGap = 100;
    for (double target : {0.1, 0.5, 0.8, 0.97}) {
        bm.calibrateToEfficientShare(target, 400000, 1.0);
        EXPECT_NEAR(bm.expectedEfficientShare(400000), target, 1e-6)
            << "target " << target;
    }
}

TEST(BurstModelTest, ExpectedShareMatchesMonteCarlo)
{
    // Validate the closed-form log-normal excess formula against
    // sampling.
    BurstModel bm;
    bm.meanBurstEvents = 2;
    bm.meanWithinBurstGap = 500;
    bm.interBurstGapLogMean = 13.0;
    bm.interBurstGapLogSigma = 1.0;
    const double c = 300000.0;

    suit::util::Rng rng(123);
    double excess = 0.0, total = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.nextLogNormal(13.0, 1.0);
        excess += std::max(0.0, x - c);
        total += x + 2 * 500 + c;
    }
    EXPECT_NEAR(bm.expectedEfficientShare(c), excess / total, 0.01);
}

TEST(BurstModelTest, ThrashCorrectionLowersGapForMidShares)
{
    // With the thrash window active the same target requires larger
    // inter-burst gaps (the deadline is stretched while thrashing).
    BurstModel with_thrash, without;
    for (BurstModel *bm : {&with_thrash, &without}) {
        bm->meanBurstEvents = 4;
        bm->meanWithinBurstGap = 100;
    }
    without.calibrateToEfficientShare(0.6, 400000, 1.0);
    with_thrash.calibrateToEfficientShare(0.6, 400000, 1.0, 900000,
                                          1600000);
    EXPECT_GT(with_thrash.meanInterBurstGap(),
              without.meanInterBurstGap());
}

TEST(Generator, DeterministicPerSeedAndStream)
{
    const WorkloadProfile &p = profileByName("557.xz");
    const TraceGenerator gen(9);
    const Trace a = gen.generate(p, 0);
    const Trace b = gen.generate(p, 0);
    EXPECT_EQ(a.eventCount(), b.eventCount());
    for (std::size_t i = 0; i < std::min<std::size_t>(100,
                                                      a.eventCount());
         ++i) {
        EXPECT_EQ(a.events()[i].gap, b.events()[i].gap);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    }
    // A different stream id decorrelates.
    const Trace c = gen.generate(p, 1);
    ASSERT_GT(c.eventCount(), 0u);
    EXPECT_NE(c.events()[0].gap, a.events()[0].gap);
}

TEST(Generator, RespectsStreamLength)
{
    for (const char *name : {"557.xz", "520.omnetpp", "Nginx"}) {
        const WorkloadProfile &p = profileByName(name);
        const Trace t = TraceGenerator(1).generate(p);
        EXPECT_EQ(t.totalInstructions(), p.totalInstructions) << name;
        ASSERT_GT(t.eventCount(), 10u) << name;
        // Events fit inside the stream.
        EXPECT_LT(t.eventIndex(t.eventCount() - 1),
                  t.totalInstructions())
            << name;
    }
}

TEST(Generator, MeanInterBurstGapIsApproximatelyCalibrated)
{
    // Aggregate gap structure: the big gaps should average near the
    // calibrated log-normal mean.
    const WorkloadProfile &p = profileByName("502.gcc");
    const Trace t = TraceGenerator(3).generate(p);
    const double threshold = 10.0 * p.bursts.meanWithinBurstGap;
    double sum = 0.0;
    int n = 0;
    for (const auto &e : t.events()) {
        if (static_cast<double>(e.gap) > threshold) {
            sum += static_cast<double>(e.gap);
            ++n;
        }
    }
    ASSERT_GT(n, 50);
    const double mean_big_gap = sum / n;
    EXPECT_NEAR(mean_big_gap, p.bursts.meanInterBurstGap(),
                0.35 * p.bursts.meanInterBurstGap());
}

TEST(Generator, KindMixIsRespected)
{
    const Trace t = TraceGenerator(4).generate(nginxProfile());
    const TraceStats s = TraceStats::compute(t);
    const double aes_share =
        static_cast<double>(s.kindCounts[static_cast<std::size_t>(
            FaultableKind::AESENC)]) /
        static_cast<double>(t.eventCount());
    EXPECT_NEAR(aes_share, 0.85, 0.05);
}

TEST(TraceTest, TailInstructionsCountsTrailingStream)
{
    const Trace t("t", 1000, 1.0,
                  {{10, FaultableKind::VOR},
                   {5, FaultableKind::AESENC}});
    // Last event sits at index 16; 1000 - 16 - 1 follow it.
    EXPECT_EQ(t.tailInstructions(), 983u);

    const Trace last_is_final("t", 18, 1.0,
                              {{10, FaultableKind::VOR},
                               {5, FaultableKind::AESENC}});
    EXPECT_EQ(last_is_final.tailInstructions(), 1u);

    const Trace empty("t", 1000, 1.0, {});
    EXPECT_EQ(empty.tailInstructions(), 1000u);
}

TEST(TraceTest, ConstructorRejectsEventsPastStreamEnd)
{
    EXPECT_DEATH((void)Trace("bad", 10, 1.0,
                             {{20, FaultableKind::VOR}}),
                 "exceed");
}

TEST(TraceTest, TailInstructionsPanicsOnCorruptedTrace)
{
    Trace t("t", 1000, 1.0, {{998, FaultableKind::VOR}});
    EXPECT_EQ(t.tailInstructions(), 1u);
    // Shrink the stream under the last event: the old unchecked
    // "total - last_index - 1" would wrap to ~2^64 here and send a
    // simulator core draining 10^19 phantom instructions.
    TraceTestPeer::setTotalInstructions(t, 500);
    EXPECT_DEATH((void)t.tailInstructions(), "inconsistent");
}

/** Gaps around the u32 escape sentinel, kinds cycling. */
Trace
escapedGapTrace()
{
    constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
    return Trace("escape", 4 * k32 + (std::uint64_t{1} << 40), 1.0,
                 {{k32 - 2, FaultableKind::VOR},
                  {3, FaultableKind::AESENC},
                  {k32 - 1, FaultableKind::VXOR},
                  {0, FaultableKind::VOR},
                  {k32, FaultableKind::AESENC},
                  {std::uint64_t{1} << 40, FaultableKind::VXOR},
                  {7, FaultableKind::VOR}});
}

void
expectSameEvents(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.totalInstructions(), b.totalInstructions());
    ASSERT_EQ(a.eventCount(), b.eventCount());
    for (std::size_t i = 0; i < a.eventCount(); ++i) {
        EXPECT_EQ(a.events()[i].gap, b.events()[i].gap) << i;
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind) << i;
    }
}

TEST(TraceTest, GapsAtAndPastTheU32EscapeRoundTrip)
{
    constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
    const std::vector<std::uint64_t> gaps = {
        k32 - 2, 3, k32 - 1, 0, k32, std::uint64_t{1} << 40, 7};
    const Trace t = escapedGapTrace();
    ASSERT_EQ(t.eventCount(), gaps.size());

    std::uint64_t index = 0;
    for (std::size_t i = 0; i < gaps.size(); ++i) {
        EXPECT_EQ(t.events()[i].gap, gaps[i]) << i;
        EXPECT_EQ(t.gap(i), gaps[i]) << i;
        index += gaps[i];
        EXPECT_EQ(t.eventIndex(i), index) << i;
        ++index;
    }
    EXPECT_EQ(t.tailInstructions(), t.totalInstructions() - index);
    EXPECT_EQ(TraceStats::compute(t).maxGap, std::uint64_t{1} << 40);

    std::stringstream text, binary;
    writeText(t, text);
    writeBinary(t, binary);
    expectSameEvents(t, readText(text));
    expectSameEvents(t, readBinary(binary));
}

TEST(TraceTest, EventIndexMatchesPrefixSumAcrossBlocks)
{
    // Several index blocks, with escaped gaps on and off the block
    // starts.
    suit::util::Rng rng(17);
    std::vector<FaultableEvent> events;
    std::uint64_t span = 0;
    for (std::size_t i = 0; i < 5 * EventColumns::kBlockEvents + 3;
         ++i) {
        std::uint64_t gap = rng.nextBelow(50);
        if (i % 37 == 0 || i == 2 * EventColumns::kBlockEvents)
            gap = (std::uint64_t{1} << 32) + rng.nextBelow(3) - 1;
        events.push_back({gap, FaultableKind::VOR});
        span += gap + 1;
    }
    const Trace t("blocks", span + 10, 1.0, events);
    std::uint64_t index = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        index += events[i].gap;
        ASSERT_EQ(t.eventIndex(i), index) << i;
        ++index;
    }
    EXPECT_EQ(t.tailInstructions(), 10u);
}

TEST(TraceTest, GeneratedTraceCostsAboutFiveBytesPerEvent)
{
    // A u32 gap, a one-byte kind and 1/64 of a block start per event:
    // reserve slack left behind by the generator, or a padded event
    // struct, would break this bound.
    const Trace t = TraceGenerator(1).generate(profileByName("502.gcc"));
    ASSERT_GT(t.eventCount(), 10000u);
    EXPECT_LE(static_cast<double>(t.memoryBytes()),
              5.25 * static_cast<double>(t.eventCount()) + 4096.0);
}

TEST(ImulOverhead, MatchesPaperAnchors)
{
    // Sec. 6.1: 0.03 % at the 0.07 % average density, 1.60 % for
    // 525.x264 (0.99 %).
    EXPECT_NEAR(imulLatencyOverhead(0.0099), 0.016, 1e-6);
    EXPECT_NEAR(imulLatencyOverhead(0.0007), 0.0003, 0.0002);
    EXPECT_DOUBLE_EQ(imulLatencyOverhead(0.0), 0.0);
    // Monotone.
    EXPECT_LT(imulLatencyOverhead(0.001), imulLatencyOverhead(0.01));
}

} // namespace

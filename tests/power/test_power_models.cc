/**
 * @file
 * Tests of the guardbands, undervolt response and transition models.
 */

#include <gtest/gtest.h>

#include "power/guardband.hh"
#include "power/transition.hh"
#include "power/undervolt.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace {

using namespace suit::power;
using suit::util::Rng;
using suit::util::RunningStats;

TEST(Guardband, AgingBandMatchesPaper)
{
    // Paper Sec. 5.6: 137 mV (~12 % of 1174 mV) on the i9-9900K.
    const GuardbandModel gb;
    const DvfsCurve curve = i9_9900kCurve();
    const double aging = gb.agingBandMv(curve, 5e9);
    EXPECT_NEAR(aging, 137.0, 5.0);
    EXPECT_NEAR(aging / curve.voltageAtMv(5e9), 0.12, 0.01);
}

TEST(Guardband, TemperatureBandMatchesPaper)
{
    // Paper Sec. 5.7: 35 mV between 50 and 88 degC, ~3.5 % of 991 mV.
    const GuardbandModel gb;
    EXPECT_DOUBLE_EQ(gb.temperatureBandAtMv(50.0), 0.0);
    EXPECT_DOUBLE_EQ(gb.temperatureBandAtMv(88.0), 35.0);
    EXPECT_NEAR(gb.temperatureBandAtMv(69.0), 17.5, 0.1);
}

TEST(Guardband, MaxUndervoltMatchesTable3)
{
    const GuardbandModel gb;
    EXPECT_NEAR(gb.maxUndervoltAtTempMv(50.0), -90.0, 0.1);
    EXPECT_NEAR(gb.maxUndervoltAtTempMv(88.0), -55.0, 0.1);
}

TEST(Guardband, SuitOffsetsMatchEvaluationPoints)
{
    // Paper Sec. 3.1: -70 mV from instruction variation alone,
    // -97 mV with 20 % of the aging band.
    const GuardbandModel gb;
    const DvfsCurve curve = i9_9900kCurve();
    EXPECT_NEAR(suitUndervoltOffsetMv(gb, curve, 5e9, 0.0), -70.0, 0.5);
    EXPECT_NEAR(suitUndervoltOffsetMv(gb, curve, 5e9, 0.2), -97.0, 1.5);
}

TEST(Undervolt, InterpolatesTable2Anchors)
{
    const UndervoltResponse r = i9_9900kUndervoltResponse();
    EXPECT_NEAR(r.at(-70.0).scoreDelta, 0.022, 1e-9);
    EXPECT_NEAR(r.at(-97.0).powerDelta, -0.16, 1e-9);
    EXPECT_NEAR(r.at(0.0).scoreDelta, 0.0, 1e-9);
    // Between anchors: monotone interpolation.
    const UndervoltEffect mid = r.at(-83.0);
    EXPECT_GT(mid.scoreDelta, 0.022);
    EXPECT_LT(mid.scoreDelta, 0.038);
    EXPECT_LT(mid.powerDelta, -0.072);
    EXPECT_GT(mid.powerDelta, -0.16);
}

TEST(Undervolt, EfficiencyMatchesTable2)
{
    // Table 2: i9-9900K at -97 mV: +3.8 % score, -16 % power
    // -> +23 % efficiency.
    const UndervoltEffect e = i9_9900kUndervoltResponse().at(-97.0);
    EXPECT_NEAR(e.efficiencyDelta(), 0.23, 0.02);
    // 7700X at -97 mV: +20 %.
    const UndervoltEffect a = ryzen7700xUndervoltResponse().at(-97.0);
    EXPECT_NEAR(a.efficiencyDelta(), 0.20, 0.02);
}

TEST(Undervolt, EfficiencyDefinitionFromPaper)
{
    // Half the time at half the power -> 4x efficiency (Sec. 5.4).
    const UndervoltEffect twice{.scoreDelta = 1.0, .powerDelta = -0.5};
    EXPECT_NEAR(twice.efficiencyDelta(), 3.0, 1e-12);
    EXPECT_NEAR(UndervoltEffect{}.efficiencyDelta(), 0.0, 1e-12);
}

TEST(Transition, SampleStaysWithinBounds)
{
    Rng rng(77);
    const DelayDistribution d{100.0, 10.0, 120.0};
    for (int i = 0; i < 1000; ++i) {
        const double us =
            suit::util::ticksToMicroseconds(d.sample(rng));
        EXPECT_GE(us, 0.0);
        EXPECT_LE(us, 120.0);
    }
}

TEST(Transition, MeasuredMeansMatchPaper)
{
    Rng rng(78);
    RunningStats volt, freq;
    const TransitionModel i9 = i9_9900kTransitionModel();
    for (int i = 0; i < 2000; ++i) {
        volt.add(
            suit::util::ticksToMicroseconds(i9.voltageChange.sample(rng)));
        freq.add(
            suit::util::ticksToMicroseconds(i9.freqChange.sample(rng)));
    }
    EXPECT_NEAR(volt.mean(), 350.0, 5.0); // Fig. 8
    EXPECT_NEAR(freq.mean(), 22.0, 0.5);  // Fig. 9
}

TEST(Transition, VoltageWaveformSettles)
{
    Rng rng(79);
    const auto wave = voltageStepWaveform(i9_9900kTransitionModel(),
                                          800.0, 900.0, rng);
    ASSERT_FALSE(wave.empty());
    EXPECT_NEAR(wave.front().value, 800.0, 5.0);
    EXPECT_NEAR(wave.back().value, 900.0, 5.0);
    // Monotone apart from noise: last pre-trigger sample still low.
    for (const auto &s : wave) {
        if (s.timeUs < 0) {
            EXPECT_NEAR(s.value, 800.0, 5.0);
        }
    }
}

TEST(Transition, FrequencyWaveformHasStallGap)
{
    Rng rng(80);
    const auto wave = frequencyStepWaveform(i9_9900kTransitionModel(),
                                            3.0e9, 2.6e9, rng);
    // No samples survive inside the stall window.
    double biggest_gap = 0.0;
    for (std::size_t i = 1; i < wave.size(); ++i)
        biggest_gap =
            std::max(biggest_gap, wave[i].timeUs - wave[i - 1].timeUs);
    EXPECT_GT(biggest_gap, 10.0); // the ~22 us stall
    EXPECT_NEAR(wave.back().value, 2.6e9, 0.05e9);
}

TEST(Transition, AmdWaveformHasNoStall)
{
    Rng rng(81);
    const auto wave = frequencyStepWaveform(ryzen7700xTransitionModel(),
                                            4.5e9, 2.0e9, rng,
                                            10.0);
    double biggest_gap = 0.0;
    for (std::size_t i = 1; i < wave.size(); ++i)
        biggest_gap =
            std::max(biggest_gap, wave[i].timeUs - wave[i - 1].timeUs);
    EXPECT_NEAR(biggest_gap, 10.0, 1.0); // uniform sampling
}

} // namespace

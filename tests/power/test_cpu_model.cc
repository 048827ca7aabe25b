/**
 * @file
 * Tests of the evaluated CPU models (paper Sec. 6.2).
 */

#include <utility>

#include <gtest/gtest.h>

#include "power/cpu_model.hh"

namespace {

using namespace suit::power;

TEST(CpuModels, DomainsMatchPaper)
{
    EXPECT_EQ(cpuA_i9_9900k().domains(), DomainLayout::SharedAll);
    EXPECT_EQ(cpuB_ryzen7700x().domains(),
              DomainLayout::PerCoreFrequency);
    EXPECT_EQ(cpuC_xeon4208().domains(), DomainLayout::PerCoreAll);
}

TEST(CpuModels, ExceptionDelaysMatchSec53)
{
    EXPECT_DOUBLE_EQ(cpuA_i9_9900k().exceptionDelayUs(), 0.34);
    EXPECT_DOUBLE_EQ(cpuA_i9_9900k().emulationCallUs(), 0.77);
    EXPECT_DOUBLE_EQ(cpuB_ryzen7700x().exceptionDelayUs(), 0.11);
    EXPECT_DOUBLE_EQ(cpuB_ryzen7700x().emulationCallUs(), 0.27);
}

TEST(CpuModels, PStateNames)
{
    EXPECT_STREQ(toString(SuitPState::Efficient), "E");
    EXPECT_STREQ(toString(SuitPState::ConservativeFreq), "Cf");
    EXPECT_STREQ(toString(SuitPState::ConservativeVolt), "CV");
}

TEST(CpuModels, EfficientCurveIsLower)
{
    const CpuModel cpu = cpuA_i9_9900k();
    const DvfsCurve eff = cpu.efficientCurve(-97.0);
    EXPECT_LT(eff.voltageAtMv(cpu.baseFreqHz()),
              cpu.conservativeCurve().voltageAtMv(cpu.baseFreqHz()));
}

TEST(CpuModels, CfFrequencyIsBelowBase)
{
    for (const CpuModel &cpu :
         {cpuA_i9_9900k(), cpuB_ryzen7700x(), cpuC_xeon4208()}) {
        const double f_cf = cpu.cfFreqHz(-97.0);
        EXPECT_LT(f_cf, cpu.baseFreqHz()) << cpu.name();
        EXPECT_GT(f_cf, 0.5 * cpu.baseFreqHz()) << cpu.name();
        // Shallower undervolt -> smaller frequency drop.
        EXPECT_GT(cpu.cfFreqHz(-70.0), f_cf) << cpu.name();
    }
}

TEST(CpuModels, PerfFactorOrdering)
{
    const CpuModel cpu = cpuC_xeon4208();
    const double offset = -97.0;
    const double e = cpu.perfFactor(SuitPState::Efficient, offset);
    const double cv =
        cpu.perfFactor(SuitPState::ConservativeVolt, offset);
    const double cf =
        cpu.perfFactor(SuitPState::ConservativeFreq, offset);
    EXPECT_GT(e, cv);  // undervolting buys clocks (Table 2)
    EXPECT_GT(cv, cf); // Cf runs slower
    EXPECT_DOUBLE_EQ(cv, 1.0);
}

TEST(CpuModels, PowerFactorOrdering)
{
    const CpuModel cpu = cpuC_xeon4208();
    const double offset = -97.0;
    const double e = cpu.powerFactor(SuitPState::Efficient, offset);
    const double cv =
        cpu.powerFactor(SuitPState::ConservativeVolt, offset);
    const double cf =
        cpu.powerFactor(SuitPState::ConservativeFreq, offset);
    EXPECT_LT(e, cv); // efficient saves power
    // Cf runs at the same reduced voltage as E and is charged the
    // measured efficient-curve package power (see CpuModel).
    EXPECT_DOUBLE_EQ(cf, e);
    EXPECT_DOUBLE_EQ(cv, 1.0);
}

TEST(CpuModels, VendorIdentifiesAmdPart)
{
    // Only B (the Ryzen 7700X) is AMD; the simulator's hot path
    // selects the Table 4 no-SIMD row through isAmd() instead of a
    // per-event string compare on label().
    EXPECT_EQ(cpuA_i9_9900k().vendor(), Vendor::Intel);
    EXPECT_EQ(cpuB_ryzen7700x().vendor(), Vendor::Amd);
    EXPECT_EQ(cpuC_xeon4208().vendor(), Vendor::Intel);
    EXPECT_EQ(cpu_i5_1035g1().vendor(), Vendor::Intel);
    EXPECT_TRUE(cpuB_ryzen7700x().isAmd());
    EXPECT_FALSE(cpuC_xeon4208().isAmd());
}

TEST(CpuModels, FactorsTableIsBitIdenticalToPerCallFunctions)
{
    for (const CpuModel &cpu :
         {cpuA_i9_9900k(), cpuB_ryzen7700x(), cpuC_xeon4208()}) {
        for (const double offset : {-50.0, -70.0, -97.0}) {
            const PStateFactors f = cpu.factorsAt(offset);
            for (const SuitPState p :
                 {SuitPState::Efficient, SuitPState::ConservativeFreq,
                  SuitPState::ConservativeVolt}) {
                EXPECT_DOUBLE_EQ(f.perf[pstateIndex(p)],
                                 cpu.perfFactor(p, offset));
                EXPECT_DOUBLE_EQ(f.power[pstateIndex(p)],
                                 cpu.powerFactor(p, offset));
            }
        }
    }
}

TEST(CpuModels, ZeroOffsetIsNeutral)
{
    const CpuModel cpu = cpuA_i9_9900k();
    EXPECT_NEAR(cpu.perfFactor(SuitPState::Efficient, 0.0), 1.0, 1e-9);
    EXPECT_NEAR(cpu.powerFactor(SuitPState::Efficient, 0.0), 1.0, 1e-9);
    EXPECT_NEAR(cpu.cfFreqHz(0.0), cpu.baseFreqHz(),
                0.01 * cpu.baseFreqHz());
}

TEST(CpuModels, ByNameAcceptsLabelsAndPartNumbers)
{
    const std::pair<const char *, const char *> aliases[] = {
        {"A", "i9-9900K"}, {"B", "7700X"}, {"C", "4208"},
        {"i5", "i5-1035G1"}};
    for (const auto &[label, part] : aliases) {
        EXPECT_EQ(cpuModelByName(label).label(), label);
        EXPECT_EQ(cpuModelByName(part).label(), label);
    }
    EXPECT_EQ(cpuModelByName("A").name(),
              cpuA_i9_9900k().name());
    EXPECT_EXIT(cpuModelByName("Z"),
                ::testing::ExitedWithCode(1), "unknown CPU 'Z'");
}

} // namespace

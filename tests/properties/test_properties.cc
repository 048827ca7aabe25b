/**
 * @file
 * Parameterized property sweeps: invariants that must hold across
 * every faultable instruction, every CPU model, every workload
 * profile, every operating strategy and every program mix.
 */

#include <cmath>
#include <gtest/gtest.h>
#include <tuple>

#include "core/params.hh"
#include "emu/dispatcher.hh"
#include "faults/vmin_model.hh"
#include "power/cpu_model.hh"
#include "sim/evaluation.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"
#include "uarch/o3_model.hh"
#include "util/rng.hh"

namespace {

using namespace suit;

// ----------------------------------------------------------------
// Per-instruction properties (all 12 faultable kinds)
// ----------------------------------------------------------------

class FaultableKindP
    : public ::testing::TestWithParam<isa::FaultableKind>
{
};

TEST_P(FaultableKindP, EmulationIsDeterministic)
{
    const isa::FaultableKind kind = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(kind) + 1);
    emu::EmuRequest req;
    req.kind = kind;
    req.a = emu::Vec256(rng.next(), rng.next(), rng.next(), rng.next());
    req.b = emu::Vec256(rng.next(), rng.next(), rng.next(), rng.next());
    req.imm = 5;
    EXPECT_EQ(emu::emulate(req), emu::emulate(req));
}

TEST_P(FaultableKindP, EmulationCostIsReasonable)
{
    const double cycles = emu::emulationCostCycles(GetParam());
    EXPECT_GT(cycles, 0.0);
    EXPECT_LT(cycles, 10'000.0); // all bodies beat a syscall by far
}

TEST_P(FaultableKindP, VminOrderingIsStableAcrossChips)
{
    // On every chip instance, the instruction's Vmin stays within
    // the instruction-variation band below the operating point.
    const isa::FaultableKind kind = GetParam();
    static const power::DvfsCurve curve = power::i9_9900kCurve();
    for (std::uint64_t seed : {1ULL, 77ULL, 90210ULL}) {
        faults::VminConfig cfg;
        cfg.curve = &curve;
        cfg.cores = 2;
        cfg.seed = seed;
        const faults::VminModel m(cfg);
        for (int core = 0; core < 2; ++core) {
            const double vmin = m.vminMv(core, kind, 4.5e9);
            EXPECT_LT(vmin, curve.voltageAtMv(4.5e9));
            EXPECT_GT(vmin, m.crashVoltageMv(core, 4.5e9));
        }
    }
}

TEST_P(FaultableKindP, FaultProbabilityIsMonotoneInVoltage)
{
    static const power::DvfsCurve curve = power::i9_9900kCurve();
    faults::VminConfig cfg;
    cfg.curve = &curve;
    cfg.cores = 1;
    const faults::VminModel m(cfg);
    double prev = 0.0;
    for (double v = curve.voltageAtMv(4.5e9); v > 700.0; v -= 5.0) {
        const double p =
            m.faultProbability(0, GetParam(), 4.5e9, v);
        EXPECT_GE(p, prev - 1e-12)
            << "probability dropped as voltage sank";
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        prev = p;
    }
}

std::string
kindParamName(const ::testing::TestParamInfo<isa::FaultableKind> &pi)
{
    return isa::toString(pi.param);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FaultableKindP,
                         ::testing::ValuesIn(isa::allFaultableKinds()),
                         kindParamName);

// ----------------------------------------------------------------
// Per-CPU properties (all machines x both evaluation offsets)
// ----------------------------------------------------------------

enum class CpuId
{
    A,
    B,
    C,
    I5
};

power::CpuModel
makeCpu(CpuId id)
{
    switch (id) {
      case CpuId::A:
        return power::cpuA_i9_9900k();
      case CpuId::B:
        return power::cpuB_ryzen7700x();
      case CpuId::C:
        return power::cpuC_xeon4208();
      case CpuId::I5:
        return power::cpu_i5_1035g1();
    }
    return power::cpuA_i9_9900k();
}

class CpuOffsetP
    : public ::testing::TestWithParam<std::tuple<CpuId, double>>
{
};

TEST_P(CpuOffsetP, PStateFactorInvariants)
{
    const auto [id, offset] = GetParam();
    const power::CpuModel cpu = makeCpu(id);

    // Undervolting never hurts performance or raises power on E.
    EXPECT_GE(cpu.perfFactor(power::SuitPState::Efficient, offset),
              1.0);
    EXPECT_LE(cpu.powerFactor(power::SuitPState::Efficient, offset),
              1.0);
    EXPECT_GT(cpu.powerFactor(power::SuitPState::Efficient, offset),
              0.5);
    // CV is the exact baseline.
    EXPECT_DOUBLE_EQ(
        cpu.perfFactor(power::SuitPState::ConservativeVolt, offset),
        1.0);
    // Cf runs strictly slower than E but is never free lunch.
    EXPECT_LT(
        cpu.perfFactor(power::SuitPState::ConservativeFreq, offset),
        cpu.perfFactor(power::SuitPState::Efficient, offset));
    EXPECT_GT(cpu.cfFreqHz(offset), 0.0);
    EXPECT_LT(cpu.cfFreqHz(offset), cpu.baseFreqHz());
}

TEST_P(CpuOffsetP, EfficientCurveBelowConservativeEverywhere)
{
    const auto [id, offset] = GetParam();
    const power::CpuModel cpu = makeCpu(id);
    const power::DvfsCurve eff = cpu.efficientCurve(offset);
    const auto &cons = cpu.conservativeCurve();
    for (double f = cons.minFreqHz(); f <= cons.maxFreqHz();
         f += (cons.maxFreqHz() - cons.minFreqHz()) / 16.0) {
        EXPECT_LE(eff.voltageAtMv(f), cons.voltageAtMv(f) + 1e-9);
    }
}

TEST_P(CpuOffsetP, TransitionDelaysArePositiveAndBounded)
{
    const auto [id, offset] = GetParam();
    (void)offset;
    const power::CpuModel cpu = makeCpu(id);
    util::Rng rng(42);
    for (int i = 0; i < 200; ++i) {
        const auto f = cpu.transitions().freqChange.sample(rng);
        const auto v = cpu.transitions().voltageChange.sample(rng);
        EXPECT_GT(f, 0u);
        EXPECT_LT(util::ticksToMicroseconds(f), 2000.0);
        EXPECT_GT(v, 0u);
        EXPECT_LT(util::ticksToMicroseconds(v), 2000.0);
    }
}

std::string
cpuParamName(
    const ::testing::TestParamInfo<std::tuple<CpuId, double>> &pi)
{
    static const char *names[] = {"A", "B", "C", "I5"};
    return std::string(
               names[static_cast<int>(std::get<0>(pi.param))]) +
           (std::get<1>(pi.param) == -70.0 ? "_70mV" : "_97mV");
}

INSTANTIATE_TEST_SUITE_P(
    AllCpus, CpuOffsetP,
    ::testing::Combine(::testing::Values(CpuId::A, CpuId::B, CpuId::C,
                                         CpuId::I5),
                       ::testing::Values(-70.0, -97.0)),
    cpuParamName);

// ----------------------------------------------------------------
// Per-workload-profile properties (all 25 profiles)
// ----------------------------------------------------------------

class ProfileP : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ProfileP, GeneratedTraceIsWellFormed)
{
    const auto &profile = trace::profileByName(GetParam());
    const trace::Trace t =
        trace::TraceGenerator(123).generate(profile);

    ASSERT_GT(t.eventCount(), 0u);
    EXPECT_EQ(t.totalInstructions(), profile.totalInstructions);
    EXPECT_DOUBLE_EQ(t.ipc(), profile.ipc);
    EXPECT_DOUBLE_EQ(t.eventWeight(), profile.eventWeight);
    EXPECT_LT(t.eventIndex(t.eventCount() - 1),
              t.totalInstructions());
    // Only kinds with positive mix weight appear; IMUL never does.
    const trace::TraceStats stats = trace::TraceStats::compute(t);
    for (auto kind : isa::allFaultableKinds()) {
        const auto k = static_cast<std::size_t>(kind);
        if (profile.kindMix[k] == 0.0) {
            EXPECT_EQ(stats.kindCounts[k], 0u)
                << isa::toString(kind);
        }
    }
    EXPECT_EQ(stats.kindCounts[static_cast<std::size_t>(
                  isa::FaultableKind::IMUL)],
              0u);
}

TEST_P(ProfileP, CalibratedShareMatchesClosedForm)
{
    // The stored burst model must still solve the calibration target
    // under the reference overhead (regression guard for the
    // calibration pipeline).
    const auto &profile = trace::profileByName(GetParam());
    if (profile.suite == trace::Suite::Network)
        return; // network rows calibrate with their own overhead
    const double overhead = 95e-6 * profile.ipc * 3e9;
    const double share =
        profile.bursts.expectedEfficientShare(overhead);
    // The calibration solves for the target under the thrash-
    // inflated overhead, so the share at the *raw* overhead sits at
    // or somewhat above the target — never below, never wildly off.
    EXPECT_GE(share, profile.targetEfficientShare - 1e-6);
    EXPECT_LE(share, profile.targetEfficientShare + 0.25);
}

TEST_P(ProfileP, SimulationInvariantsHold)
{
    const auto &profile = trace::profileByName(GetParam());
    const power::CpuModel cpu = power::cpuC_xeon4208();
    sim::EvalConfig cfg;
    cfg.cpu = &cpu;
    cfg.offsetMv = -97.0;
    cfg.params = core::optimalParams(cpu);
    const sim::DomainResult r = sim::runWorkload(cfg, profile);

    // Shares partition active time.
    EXPECT_NEAR(r.efficientShare + r.cfShare + r.cvShare, 1.0, 1e-9);
    EXPECT_GE(r.efficientShare, 0.0);
    // Power factor between the full-undervolt level and baseline.
    EXPECT_GE(r.powerFactor, 0.83);
    EXPECT_LE(r.powerFactor, 1.0 + 1e-9);
    // Perf within physical bounds (never faster than pure E).
    EXPECT_GT(r.perfDelta(), -0.25);
    EXPECT_LT(r.perfDelta(), 0.05);
    // Traps imply switches under fV unless everything merged.
    if (r.traps > 0) {
        EXPECT_GT(r.pstateSwitches, 0u);
    }
}

std::vector<std::string>
allProfileNames()
{
    std::vector<std::string> names;
    for (const auto &p : trace::allProfiles())
        names.push_back(p.name);
    return names;
}

std::string
profileParamName(const ::testing::TestParamInfo<std::string> &pi)
{
    std::string name = pi.param;
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileP,
                         ::testing::ValuesIn(allProfileNames()),
                         profileParamName);

// ----------------------------------------------------------------
// Per-strategy properties
// ----------------------------------------------------------------

class StrategyP
    : public ::testing::TestWithParam<core::StrategyKind>
{
};

TEST_P(StrategyP, SimulationIsDeterministic)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    sim::EvalConfig cfg;
    cfg.cpu = &cpu;
    cfg.strategy = GetParam();
    cfg.params = core::optimalParams(cpu);
    const auto &profile = trace::profileByName("502.gcc");

    const sim::DomainResult a = sim::runWorkload(cfg, profile);
    const sim::DomainResult b = sim::runWorkload(cfg, profile);
    EXPECT_EQ(a.traps, b.traps);
    EXPECT_EQ(a.pstateSwitches, b.pstateSwitches);
    EXPECT_DOUBLE_EQ(a.perfDelta(), b.perfDelta());
    EXPECT_DOUBLE_EQ(a.powerFactor, b.powerFactor);
}

TEST_P(StrategyP, NeverBeatsPureUndervoltBound)
{
    // No strategy can beat running 100 % of the time on the
    // efficient curve with zero overheads.
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const auto best = cpu.undervolt().at(-97.0);
    sim::EvalConfig cfg;
    cfg.cpu = &cpu;
    cfg.offsetMv = -97.0;
    cfg.strategy = GetParam();
    cfg.params = core::optimalParams(cpu);
    const auto r =
        sim::runWorkload(cfg, trace::profileByName("557.xz"));
    EXPECT_LE(r.perfDelta(), best.scoreDelta + 1e-9);
    EXPECT_GE(r.powerDelta(), best.powerDelta - 1e-9);
}

TEST_P(StrategyP, FactoryRoundTrips)
{
    auto s = core::makeStrategy(GetParam(), core::fastSwitchParams());
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind(), GetParam());
    EXPECT_STREQ(s->name(), core::toString(GetParam()));
}

std::string
strategyParamName(
    const ::testing::TestParamInfo<core::StrategyKind> &pi)
{
    switch (pi.param) {
      case core::StrategyKind::Emulation:
        return "Emulation";
      case core::StrategyKind::Frequency:
        return "Frequency";
      case core::StrategyKind::Voltage:
        return "Voltage";
      case core::StrategyKind::CombinedFv:
        return "CombinedFv";
      case core::StrategyKind::Hybrid:
        return "Hybrid";
    }
    return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyP,
    ::testing::Values(core::StrategyKind::Emulation,
                      core::StrategyKind::Frequency,
                      core::StrategyKind::Voltage,
                      core::StrategyKind::CombinedFv,
                      core::StrategyKind::Hybrid),
    strategyParamName);

// ----------------------------------------------------------------
// Per-program-mix pipeline properties
// ----------------------------------------------------------------

class MixP : public ::testing::TestWithParam<int>
{
  protected:
    uarch::ProgramMix
    mix() const
    {
        return uarch::figure14Mixes()[static_cast<std::size_t>(
            GetParam())];
    }
};

TEST_P(MixP, IpcWithinPhysicalBounds)
{
    const uarch::CoreStats s =
        uarch::runMixAtImulLatency(mix(), 60'000, 3);
    EXPECT_GT(s.ipc(), 0.01);
    EXPECT_LE(s.ipc(), 8.0); // the machine is 8-wide
}

TEST_P(MixP, CyclesMonotoneInImulLatency)
{
    std::uint64_t prev = 0;
    for (int lat : {3, 6, 15, 30}) {
        const uarch::CoreStats s =
            uarch::runMixAtImulLatency(mix(), 60'000, lat);
        EXPECT_GE(s.cycles, prev) << "latency " << lat;
        prev = s.cycles;
    }
}

TEST_P(MixP, DeterministicForSeed)
{
    const uarch::CoreStats a =
        uarch::runMixAtImulLatency(mix(), 30'000, 4, 5);
    const uarch::CoreStats b =
        uarch::runMixAtImulLatency(mix(), 30'000, 4, 5);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
}

std::string
mixParamName(const ::testing::TestParamInfo<int> &pi)
{
    std::string name =
        uarch::figure14Mixes()[static_cast<std::size_t>(pi.param)]
            .name;
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllMixes, MixP,
    ::testing::Range(0, static_cast<int>(
                            uarch::figure14Mixes().size())),
    mixParamName);

} // namespace

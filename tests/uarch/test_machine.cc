/**
 * @file
 * Tests of the full-system SuitMachine: the MSR/controller/pipeline
 * wiring, deadline behaviour and the end-to-end efficiency story at
 * cycle level.
 */

#include <gtest/gtest.h>

#include "core/params.hh"
#include "obs/registry.hh"
#include "uarch/machine.hh"
#include "uarch/program.hh"

namespace {

using namespace suit;
using namespace suit::uarch;

SuitMachine::Config
machineConfig(const power::CpuModel &cpu)
{
    SuitMachine::Config cfg;
    cfg.cpu = &cpu;
    cfg.offsetMv = -97.0;
    cfg.strategy = core::StrategyKind::CombinedFv;
    cfg.params = core::optimalParams(cpu);
    return cfg;
}

TEST(SuitMachineTest, MsrsProgrammedOnEnable)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    SuitMachine machine(machineConfig(cpu));
    const Program p =
        ProgramGenerator(1).generate(specIntLikeMix(), 20'000);
    machine.runSuit(p);

    EXPECT_EQ(machine.msrs().read(os::MSR_SUIT_DVFS_CURVE), 1u);
    EXPECT_EQ(machine.msrs().read(os::MSR_SUIT_DISABLE_OPCODE),
              isa::FaultableSet::suitTrapSet().bits());
}

TEST(SuitMachineTest, BaselineHasNoTrapsAndUnitPower)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    SuitMachine machine(machineConfig(cpu));
    const Program p =
        ProgramGenerator(2).generate(specIntLikeMix(), 50'000);
    const MachineResult r = machine.runBaseline(p);
    EXPECT_EQ(r.stats.traps, 0u);
    EXPECT_DOUBLE_EQ(r.powerFactor, 1.0);
    EXPECT_GT(r.seconds, 0.0);
}

namespace {

/**
 * A quiet integer program (no faultable instructions) with tight
 * SIMD clusters injected at the given positions.  DVFS timescales
 * are hundreds of microseconds, so end-to-end machine tests need
 * millions of instructions.
 */
Program
quietProgramWithBursts(std::size_t count,
                       std::initializer_list<std::size_t> bursts,
                       std::uint64_t seed)
{
    ProgramMix mix = specIntLikeMix();
    mix.weights[static_cast<std::size_t>(OpClass::SimdAlu)] = 0.0;
    Program p = ProgramGenerator(seed).generate(mix, count);
    for (std::size_t at : bursts) {
        for (std::size_t i = at; i < at + 40 && i < count; ++i) {
            p.insts[i].op = OpClass::SimdAlu;
            p.insts[i].faultable = isa::FaultableKind::VOR;
            p.insts[i].dst = 3;
            p.insts[i].src1 = 2;
            p.insts[i].src2 = 3;
        }
    }
    return p;
}

} // namespace

TEST(SuitMachineTest, SuitRunTrapsAndSavesEnergy)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    SuitMachine machine(machineConfig(cpu));
    // Three short bursts spread over ~5 ms of execution (the
    // initial CV -> E voltage drop alone costs ~350 us).
    const Program p = quietProgramWithBursts(
        20'000'000, {10'000'000, 14'000'000, 18'000'000}, 3);

    const MachineResult base = machine.runBaseline(p);
    const MachineResult suit_run = machine.runSuit(p);

    EXPECT_GT(suit_run.stats.traps, 0u);
    // After the initial voltage drop (~350 us) the machine runs on
    // the efficient curve apart from the burst excursions.
    EXPECT_GT(suit_run.efficientShare, 0.3);
    // Power clearly below baseline, runtime in the same ballpark.
    EXPECT_LT(suit_run.powerFactor, 0.97);
    EXPECT_LT(suit_run.seconds, base.seconds * 1.10);
    // Net energy saving.
    EXPECT_LT(suit_run.energyFactorVs(base), 0.99);
}

TEST(SuitMachineTest, DeadlineReturnsToEfficientCurve)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    SuitMachine machine(machineConfig(cpu));
    // One tight SIMD burst in the middle of a quiet program: the
    // machine must trap, go conservative, and come back.
    const Program p =
        quietProgramWithBursts(16'000'000, {10'000'000}, 4);

    const MachineResult r = machine.runSuit(p);
    EXPECT_GE(r.stats.traps, 1u);
    // The burst is one trap (the set is re-enabled afterwards).
    EXPECT_LE(r.stats.traps, 3u);
    // Still mostly efficient despite the excursion.
    EXPECT_GT(r.efficientShare, 0.4);
}

/** The i9 model with a different #DO entry delay. */
power::CpuModel
i9WithExceptionDelay(double exception_delay_us)
{
    const power::CpuModel i9 = power::cpuA_i9_9900k();
    power::CpuModel::Config c;
    c.name = i9.name();
    c.label = i9.label();
    c.vendor = i9.vendor();
    c.coreCount = i9.coreCount();
    c.domains = i9.domains();
    c.conservativeCurve = i9.conservativeCurve();
    c.undervolt = i9.undervolt();
    c.transitions = i9.transitions();
    c.baseFreqHz = i9.baseFreqHz();
    c.basePowerW = i9.basePowerW();
    c.exceptionDelayUs = exception_delay_us;
    c.emulationCallUs = i9.emulationCallUs();
    return power::CpuModel(std::move(c));
}

TEST(SuitMachineTest, TrapEntryCostComesFromTheCpuModel)
{
    // Each #DO costs the CPU's measured entry delay (Sec. 5.3), so a
    // slower exception path must show up in the cycle count.
    const Program p = quietProgramWithBursts(200'000, {100'000}, 7);
    const power::CpuModel fast = i9WithExceptionDelay(0.34);
    const power::CpuModel slow = i9WithExceptionDelay(0.68);
    const MachineResult r_fast = SuitMachine(machineConfig(fast)).runSuit(p);
    const MachineResult r_slow = SuitMachine(machineConfig(slow)).runSuit(p);
    ASSERT_GE(r_fast.stats.traps, 1u);
    EXPECT_EQ(r_slow.stats.traps, r_fast.stats.traps);
    EXPECT_GT(r_slow.stats.cycles, r_fast.stats.cycles);
}

TEST(SuitMachineTest, DenseAesProgramStaysConservative)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    SuitMachine machine(machineConfig(cpu));
    const Program p =
        ProgramGenerator(5).generate(aesServiceMix(), 200'000);
    const MachineResult r = machine.runSuit(p);
    // AES every ~14 instructions: after the first trap the set is
    // re-enabled and the deadline keeps being touched.
    EXPECT_LT(r.efficientShare, 0.3);
    EXPECT_LT(r.stats.traps, 50u);
}

TEST(SuitMachineTest, EmulationStrategyNeverSwitches)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    SuitMachine::Config cfg = machineConfig(cpu);
    cfg.strategy = core::StrategyKind::Emulation;
    SuitMachine machine(cfg);

    ProgramMix mix = specIntLikeMix();
    mix.weights[static_cast<std::size_t>(OpClass::SimdAlu)] = 0.0002;
    const Program p = ProgramGenerator(6).generate(mix, 16'000'000);
    const MachineResult r = machine.runSuit(p);

    EXPECT_EQ(r.stats.emulated, r.stats.traps);
    EXPECT_GT(r.stats.traps, 100u);
    // The domain never leaves the efficient curve once the initial
    // ~350 us voltage drop completes.
    EXPECT_GT(r.efficientShare, 0.5);
    EXPECT_LT(r.powerFactor, 0.95);
}

TEST(SuitMachineTest, RunsPublishPipelineCountersToObsRegistry)
{
    obs::Registry &reg = obs::metrics();
    reg.reset();
    reg.setEnabled(true);

    const power::CpuModel cpu = power::cpuA_i9_9900k();
    SuitMachine machine(machineConfig(cpu));
    const Program p =
        ProgramGenerator(9).generate(specIntLikeMix(), 50'000);
    const MachineResult base = machine.runBaseline(p);
    const MachineResult suit_run = machine.runSuit(p);
    reg.setEnabled(false);

    const std::string doc = obs::renderMetricsJson(reg.snapshot());
    for (const char *key :
         {"uarch.runs", "uarch.instructions", "uarch.cycles",
          "uarch.branches", "uarch.mispredicts", "uarch.loads",
          "uarch.stores", "uarch.l1d_misses", "uarch.llc_misses",
          "uarch.do_traps"}) {
        EXPECT_NE(doc.find(key), std::string::npos)
            << "metrics document misses " << key;
    }
    const obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.find("uarch.runs")->count, 2u);
    EXPECT_EQ(snap.find("uarch.instructions")->count,
              base.stats.instructions + suit_run.stats.instructions);
    EXPECT_EQ(snap.find("uarch.do_traps")->count,
              suit_run.stats.traps);
    reg.reset();
}

} // namespace

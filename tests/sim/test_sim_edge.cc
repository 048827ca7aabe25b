/**
 * @file
 * Edge-case tests of the trace simulator: degenerate traces, event
 * placement extremes and bookkeeping invariants.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "core/params.hh"
#include "sim/domain_sim.hh"
#include "sim/result_io.hh"
#include "trace/profile.hh"

namespace suit::trace {

/** Friend hook corrupting a trace to exercise defensive asserts. */
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

using namespace suit;
using sim::DomainResult;
using sim::DomainSimulator;
using sim::RunMode;
using sim::SimConfig;

trace::WorkloadProfile
plainProfile(std::uint64_t total)
{
    trace::WorkloadProfile p;
    p.name = "edge";
    p.totalInstructions = total;
    p.ipc = 1.0;
    p.kindMix[static_cast<std::size_t>(isa::FaultableKind::VOR)] = 1.0;
    return p;
}

SimConfig
cfgFor(const power::CpuModel &cpu)
{
    SimConfig cfg;
    cfg.cpu = &cpu;
    cfg.offsetMv = -97.0;
    cfg.params = core::optimalParams(cpu);
    return cfg;
}

TEST(SimEdge, TraceWithNoEventsRunsEntirelyOnEfficientCurve)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const trace::WorkloadProfile p = plainProfile(1'000'000'000);
    const trace::Trace t("empty", p.totalInstructions, p.ipc, {});

    DomainSimulator sim(cfgFor(cpu), {{&t, &p}});
    const DomainResult r = sim.run();
    EXPECT_EQ(r.traps, 0u);
    EXPECT_NEAR(r.efficientShare, 1.0, 1e-9);
    EXPECT_NEAR(r.powerDelta(), -0.16, 1e-3);
    EXPECT_GT(r.perfDelta(), 0.03); // the full +3.8 % minus IMUL cost
}

TEST(SimEdge, SingleEventAtStreamStart)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const trace::WorkloadProfile p = plainProfile(1'000'000'000);
    const trace::Trace t("first", p.totalInstructions, p.ipc,
                         {{0, isa::FaultableKind::VOR}});
    DomainSimulator sim(cfgFor(cpu), {{&t, &p}});
    const DomainResult r = sim.run();
    EXPECT_EQ(r.traps, 1u);
    EXPECT_GT(r.efficientShare, 0.95);
}

TEST(SimEdge, SingleEventAtStreamEnd)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const trace::WorkloadProfile p = plainProfile(1'000'000'000);
    const trace::Trace t(
        "last", p.totalInstructions, p.ipc,
        {{p.totalInstructions - 2, isa::FaultableKind::VOR}});
    DomainSimulator sim(cfgFor(cpu), {{&t, &p}});
    const DomainResult r = sim.run();
    EXPECT_EQ(r.traps, 1u);
    // The run ends inside the trailing conservative window; shares
    // must still partition.
    EXPECT_NEAR(r.efficientShare + r.cfShare + r.cvShare, 1.0, 1e-9);
}

TEST(SimEdge, BackToBackEventsCauseOneTrap)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const trace::WorkloadProfile p = plainProfile(1'000'000'000);
    std::vector<trace::FaultableEvent> events;
    events.push_back({500'000'000, isa::FaultableKind::VOR});
    for (int i = 0; i < 100; ++i)
        events.push_back({0, isa::FaultableKind::VXOR});
    const trace::Trace t("burst0", p.totalInstructions, p.ipc, events);
    DomainSimulator sim(cfgFor(cpu), {{&t, &p}});
    const DomainResult r = sim.run();
    EXPECT_EQ(r.traps, 1u); // the rest run with the set enabled
}

TEST(SimEdge, LastEventOnFinalInstructionHasZeroTailBothPaths)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const trace::WorkloadProfile p = plainProfile(1'000'000'000);
    // gap = total - 1 puts the event on the very last instruction:
    // the tail drain after it is exactly zero.
    const trace::Trace t(
        "tail0", p.totalInstructions, p.ipc,
        {{p.totalInstructions - 1, isa::FaultableKind::VOR}});

    SimConfig cfg = cfgFor(cpu);
    DomainSimulator fast_sim(cfg, {{&t, &p}});
    const DomainResult fast = fast_sim.run();
    cfg.referencePath = true;
    DomainSimulator ref_sim(cfg, {{&t, &p}});
    const DomainResult ref = ref_sim.run();

    EXPECT_EQ(fast.traps, 1u);
    std::string fast_bytes;
    std::string ref_bytes;
    sim::serializeResult(fast, fast_bytes);
    sim::serializeResult(ref, ref_bytes);
    EXPECT_EQ(fast_bytes, ref_bytes);
}

TEST(SimEdge, CorruptedTracePanicsInsteadOfDrainingPhantomTail)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const trace::WorkloadProfile p = plainProfile(1'000'000'000);
    trace::Trace t("corrupt", p.totalInstructions, p.ipc,
                   {{p.totalInstructions - 2, isa::FaultableKind::VOR}});
    // Shrink the stream under the event after construction.  The old
    // tail drain computed totalInstructions() - last_index - 1
    // unchecked, underflowing to ~2^64 phantom instructions; now the
    // simulator must panic with a diagnosable message instead.
    trace::TraceTestPeer::setTotalInstructions(t, 1000);

    DomainSimulator sim(cfgFor(cpu), {{&t, &p}});
    EXPECT_DEATH((void)sim.run(), "inconsistent");
}

TEST(SimEdge, BaselineModeIgnoresStrategyEntirely)
{
    const power::CpuModel cpu = power::cpuB_ryzen7700x();
    const trace::WorkloadProfile p = plainProfile(2'000'000'000);
    std::vector<trace::FaultableEvent> events;
    for (int i = 0; i < 1000; ++i)
        events.push_back({1'000'000, isa::FaultableKind::AESENC});
    const trace::Trace t("base", p.totalInstructions, p.ipc, events);

    SimConfig cfg = cfgFor(cpu);
    cfg.mode = RunMode::Baseline;
    DomainSimulator sim(cfg, {{&t, &p}});
    const DomainResult r = sim.run();
    EXPECT_EQ(r.traps, 0u);
    EXPECT_EQ(r.pstateSwitches, 0u);
    EXPECT_NEAR(r.perfDelta(), 0.0, 1e-3);
}

TEST(SimEdge, MixedWorkloadsOnOneSharedDomain)
{
    // Different profiles on the same shared domain must all finish
    // and the aggregate shares must stay consistent.
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    trace::WorkloadProfile quiet = plainProfile(500'000'000);
    trace::WorkloadProfile loud = plainProfile(500'000'000);
    loud.ipc = 2.0;

    const trace::Trace t_quiet("q", quiet.totalInstructions, quiet.ipc,
                               {{400'000'000,
                                 isa::FaultableKind::VOR}});
    std::vector<trace::FaultableEvent> loud_events;
    for (int i = 0; i < 4990; ++i) // events span the whole stream
        loud_events.push_back({100'000, isa::FaultableKind::AESENC});
    const trace::Trace t_loud("l", loud.totalInstructions, loud.ipc,
                              loud_events);

    DomainSimulator sim(cfgFor(cpu),
                        {{&t_quiet, &quiet}, {&t_loud, &loud}});
    const DomainResult r = sim.run();
    ASSERT_EQ(r.cores.size(), 2u);
    for (const auto &c : r.cores) {
        EXPECT_GT(c.durationS, 0.0);
        EXPECT_TRUE(std::isfinite(c.perfDelta()));
    }
    EXPECT_NEAR(r.efficientShare + r.cfShare + r.cvShare, 1.0, 1e-9);
    // The loud tenant's traps drag the shared domain conservative
    // while it runs (it finishes well before the quiet tenant, so
    // the tail of the run is efficient again).
    EXPECT_GT(r.cvShare + r.cfShare, 0.15);
    EXPECT_LT(r.efficientShare, 0.9);
}

TEST(SimEdge, ZeroOffsetIsNeutralApartFromImul)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    trace::WorkloadProfile p = plainProfile(1'000'000'000);
    p.imulFraction = 0.0;
    const trace::Trace t("zero", p.totalInstructions, p.ipc, {});
    SimConfig cfg = cfgFor(cpu);
    cfg.offsetMv = 0.0;
    DomainSimulator sim(cfg, {{&t, &p}});
    const DomainResult r = sim.run();
    EXPECT_NEAR(r.perfDelta(), 0.0, 1e-6);
    EXPECT_NEAR(r.powerDelta(), 0.0, 1e-6);
}

/**
 * Core @p c's trace for the escaped-gap tests: bursts of small gaps
 * separated by gaps at and past the 32-bit escape sentinel, one of
 * them 2^40.
 */
trace::Trace
escapedGapTrace(int c)
{
    constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
    const std::uint64_t big[] = {k32 - 2, k32 - 1, k32,
                                 std::uint64_t{1} << 40};
    std::vector<trace::FaultableEvent> events;
    std::uint64_t span = 0;
    for (int burst = 0; burst < 6; ++burst) {
        const std::uint64_t gap = big[(burst + c) % 4] + 1000 * c;
        events.push_back({gap, isa::FaultableKind::VOR});
        span += gap + 1;
        for (int k = 0; k < 20; ++k) {
            const std::uint64_t small = 500 + 37 * k + 11 * c;
            events.push_back({small, isa::FaultableKind::AESENC});
            span += small + 1;
        }
    }
    return trace::Trace("escaped", span + 5000, 1.0, events);
}

TEST(SimEdge, EscapedGapsFastMatchesReferenceOneAndFourCores)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    std::vector<trace::Trace> traces;
    for (int c = 0; c < 4; ++c)
        traces.push_back(escapedGapTrace(c));
    std::vector<trace::WorkloadProfile> profiles;
    for (const trace::Trace &t : traces)
        profiles.push_back(plainProfile(t.totalInstructions()));

    for (const std::size_t cores : {std::size_t{1}, std::size_t{4}}) {
        std::vector<sim::CoreWork> work;
        for (std::size_t c = 0; c < cores; ++c)
            work.push_back({&traces[c], &profiles[c]});
        for (const RunMode mode : {RunMode::Suit, RunMode::Baseline}) {
            for (const core::StrategyKind strategy :
                 {core::StrategyKind::CombinedFv,
                  core::StrategyKind::Emulation}) {
                SimConfig cfg = cfgFor(cpu);
                cfg.mode = mode;
                cfg.strategy = strategy;
                DomainSimulator fast_sim(cfg, work);
                const DomainResult fast = fast_sim.run();
                cfg.referencePath = true;
                DomainSimulator ref_sim(cfg, work);
                const DomainResult ref = ref_sim.run();

                std::string fast_bytes;
                std::string ref_bytes;
                sim::serializeResult(fast, fast_bytes);
                sim::serializeResult(ref, ref_bytes);
                EXPECT_EQ(fast_bytes, ref_bytes)
                    << cores << " cores, mode "
                    << static_cast<int>(mode) << ", strategy "
                    << core::toString(strategy);
                if (mode == RunMode::Suit) {
                    EXPECT_GT(fast.traps, 0u);
                }
            }
        }
    }
}

/**
 * Cancellation reaches the fast loop however its events are batched.
 * The trace has more events than the loop's poll interval (4096), so
 * a window that ran the whole trace without polling would finish the
 * run instead of throwing.  Strategy e traps on every event; under fV
 * the 2.2 ms gaps outlast even the stretched deadline, so every event
 * pays a switch and a return; Baseline executes every event natively,
 * so one native window spans the whole trace.
 */
TEST(SimEdge, ZeroDeadlineCancelsLongFastRuns)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const std::size_t events = 5000;
    const std::uint64_t gap = 10'000'000;
    const trace::Trace t(
        "long", events * (gap + 1) + 1000, 1.0,
        std::vector<trace::FaultableEvent>(
            events, {gap, isa::FaultableKind::VOR}));
    const trace::WorkloadProfile p = plainProfile(t.totalInstructions());

    runtime::CancelToken token;
    token.setDeadlineAfter(0.0);
    struct Case
    {
        RunMode mode;
        core::StrategyKind strategy;
        const char *label;
    };
    for (const Case &c :
         {Case{RunMode::Suit, core::StrategyKind::Emulation, "e"},
          Case{RunMode::Suit, core::StrategyKind::CombinedFv, "fV"},
          Case{RunMode::Baseline, core::StrategyKind::CombinedFv,
               "baseline"}}) {
        for (const std::size_t cores : {std::size_t{1}, std::size_t{4}}) {
            SimConfig cfg = cfgFor(cpu);
            cfg.mode = c.mode;
            cfg.strategy = c.strategy;
            cfg.cancel = &token;
            const std::vector<sim::CoreWork> work(cores, {&t, &p});
            DomainSimulator sim(cfg, work);
            EXPECT_THROW(sim.run(), runtime::Cancelled)
                << cores << " cores, " << c.label;
        }
    }
}

/**
 * A live cancel token changes nothing: a window that outlasts the poll
 * interval polls mid-window and carries on with the next event.  The
 * fast run with the token must match the reference run without one.
 */
TEST(SimEdge, LiveCancelTokenKeepsFastBytes)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    std::vector<trace::FaultableEvent> events;
    std::uint64_t span = 0;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        const std::uint64_t gap = 10'000'000 + 7919 * (i % 13);
        events.push_back({gap, i % 3 == 0 ? isa::FaultableKind::AESENC
                                          : isa::FaultableKind::VOR});
        span += gap + 1;
    }
    const trace::Trace t("live", span + 1000, 1.0, events);
    const trace::WorkloadProfile p = plainProfile(t.totalInstructions());

    const runtime::CancelToken token;
    for (const RunMode mode : {RunMode::Suit, RunMode::Baseline}) {
        for (const std::size_t cores : {std::size_t{1}, std::size_t{4}}) {
            SimConfig cfg = cfgFor(cpu);
            cfg.mode = mode;
            cfg.strategy = core::StrategyKind::Emulation;
            const std::vector<sim::CoreWork> work(cores, {&t, &p});
            cfg.referencePath = true;
            DomainSimulator ref_sim(cfg, work);
            std::string ref_bytes;
            sim::serializeResult(ref_sim.run(), ref_bytes);
            cfg.referencePath = false;
            cfg.cancel = &token;
            DomainSimulator fast_sim(cfg, work);
            std::string fast_bytes;
            sim::serializeResult(fast_sim.run(), fast_bytes);
            EXPECT_EQ(fast_bytes, ref_bytes)
                << cores << " cores, mode " << static_cast<int>(mode);
        }
    }
}

} // namespace

/**
 * @file
 * Golden bit-identity suite for the domain-simulator fast path.
 *
 * The optimised event loop (invariant tables, a branch-free arrival
 * scan, batched windows) must reproduce the reference
 * loop byte-for-byte: every DomainResult — including the optional
 * p-state timeline — is serialised through sim::result_io and
 * compared against the SimConfig::referencePath run of the same
 * configuration.  The matrix spans the three paper machines, every
 * run mode and strategy, one- and four-core layouts and two
 * undervolt offsets.
 *
 * This binary carries the `exec` ctest label: the parallel-fleet
 * case exercises the sweep engine, so it also runs under
 * -DSUIT_SANITIZE=thread.
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/params.hh"
#include "exec/sweep.hh"
#include "obs/registry.hh"
#include "runtime/session.hh"
#include "sim/domain_sim.hh"
#include "sim/evaluation.hh"
#include "sim/result_io.hh"
#include "sim/trace_cache.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

namespace {

using namespace suit;
using sim::EvalConfig;
using sim::RunMode;

/**
 * A small synthetic workload.  @p dense drives the within-burst
 * event density up so the batched-native-window path sees long runs
 * of consecutive events; the sparse variant exercises the
 * timer-bounded window endings.
 */
trace::WorkloadProfile
goldenProfile(const std::string &name, bool dense)
{
    trace::WorkloadProfile p;
    p.name = name;
    p.suite = trace::Suite::SpecFp;
    p.totalInstructions = 400'000'000;
    p.ipc = 1.4;
    p.bursts.meanBurstEvents = dense ? 60 : 5;
    p.bursts.meanWithinBurstGap = dense ? 400 : 1500;
    p.bursts.interBurstGapLogMean = std::log(dense ? 4e6 : 2e7);
    p.bursts.interBurstGapLogSigma = 0.4;
    p.imulFraction = 0.0006;
    p.noSimdDelta = -0.18;
    p.noSimdDeltaAmd = -0.12;
    p.eventWeight = dense ? 3.0 : 1.0;
    p.kindMix[static_cast<std::size_t>(isa::FaultableKind::VOR)] = 0.7;
    p.kindMix[static_cast<std::size_t>(isa::FaultableKind::AESENC)] =
        0.3;
    return p;
}

/** Serialize one runWorkload() outcome. */
std::string
resultBytes(const EvalConfig &config, const trace::WorkloadProfile &p,
            sim::TraceCache &traces)
{
    std::string bytes;
    sim::serializeResult(sim::runWorkload(config, p, traces), bytes);
    return bytes;
}

/** Every (mode, strategy) combination the simulator dispatches on. */
struct ModeCase
{
    const char *label;
    RunMode mode;
    core::StrategyKind strategy;
};

const std::vector<ModeCase> &
modeCases()
{
    static const std::vector<ModeCase> cases = {
        {"baseline", RunMode::Baseline, core::StrategyKind::CombinedFv},
        {"nosimd", RunMode::NoSimdCompile,
         core::StrategyKind::CombinedFv},
        {"suit-e", RunMode::Suit, core::StrategyKind::Emulation},
        {"suit-f", RunMode::Suit, core::StrategyKind::Frequency},
        {"suit-V", RunMode::Suit, core::StrategyKind::Voltage},
        {"suit-fV", RunMode::Suit, core::StrategyKind::CombinedFv},
        {"suit-e+fV", RunMode::Suit, core::StrategyKind::Hybrid},
    };
    return cases;
}

TEST(GoldenIdentity, FastPathMatchesReferenceAcrossMatrix)
{
    const std::vector<power::CpuModel> cpus = {
        power::cpuA_i9_9900k(), power::cpuB_ryzen7700x(),
        power::cpuC_xeon4208()};
    const std::vector<trace::WorkloadProfile> profiles = {
        goldenProfile("golden-dense", true),
        goldenProfile("golden-sparse", false)};

    sim::TraceCache traces;
    int checked = 0;
    for (const power::CpuModel &cpu : cpus) {
        for (const int cores : {1, 4}) {
            for (const double offset : {-70.0, -97.0}) {
                for (const ModeCase &mc : modeCases()) {
                    for (const trace::WorkloadProfile &p : profiles) {
                        EvalConfig cfg;
                        cfg.cpu = &cpu;
                        cfg.cores = cores;
                        cfg.offsetMv = offset;
                        cfg.mode = mc.mode;
                        cfg.strategy = mc.strategy;
                        cfg.params = core::optimalParams(cpu);
                        cfg.seed = 7;

                        cfg.referencePath = false;
                        const std::string fast =
                            resultBytes(cfg, p, traces);
                        cfg.referencePath = true;
                        const std::string ref =
                            resultBytes(cfg, p, traces);
                        ASSERT_EQ(fast, ref)
                            << "CPU " << cpu.label() << " cores="
                            << cores << " offset=" << offset << " "
                            << mc.label << " " << p.name;
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_EQ(checked, 3 * 2 * 2 * 7 * 2);
}

/**
 * Multi-core batched windows against the reference loop.
 * Core counts 8 and 12 scan rows wider than any shipped domain (at
 * most four cores), and 12 is not a multiple of four.  The mode
 * cases pick the window flavours apart: Baseline batches whole
 * traces in the native window, Emulation runs the trap window,
 * whose traps stall cores in-window (resume starts), and the
 * CombinedFv/Hybrid strategies leave transitions pending across
 * windows (runUntil caps).
 */
TEST(GoldenIdentity, MultiCoreBatchedWindowsMatchReference)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const std::vector<trace::WorkloadProfile> profiles = {
        goldenProfile("golden-dense", true),
        goldenProfile("golden-sparse", false)};
    const std::vector<ModeCase> cases = {
        {"baseline", RunMode::Baseline, core::StrategyKind::CombinedFv},
        {"suit-e", RunMode::Suit, core::StrategyKind::Emulation},
        {"suit-fV", RunMode::Suit, core::StrategyKind::CombinedFv},
        {"suit-e+fV", RunMode::Suit, core::StrategyKind::Hybrid},
    };

    sim::TraceCache traces;
    int checked = 0;
    for (const int cores : {2, 4, 8, 12}) {
        for (const ModeCase &mc : cases) {
            for (const trace::WorkloadProfile &p : profiles) {
                EvalConfig cfg;
                cfg.cpu = &cpu;
                cfg.cores = cores;
                cfg.offsetMv = -97.0;
                cfg.mode = mc.mode;
                cfg.strategy = mc.strategy;
                cfg.params = core::optimalParams(cpu);
                cfg.seed = 7;

                cfg.referencePath = true;
                const std::string ref = resultBytes(cfg, p, traces);
                cfg.referencePath = false;
                ASSERT_EQ(resultBytes(cfg, p, traces), ref)
                    << "cores=" << cores << " " << mc.label << " "
                    << p.name;
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 4 * 4 * 2);
}

/**
 * The sim.events.batched counter must cover both window loops
 * (runWindowSingle, runWindowMulti) with both event kinds: native
 * events under fV and in Baseline mode, and strategy e's traps.
 * Single-core and shared multi-core domains each consume most trace
 * events inside windows.
 */
TEST(GoldenIdentity, BatchedWindowCounterCoversSingleAndMultiCore)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const trace::WorkloadProfile p = goldenProfile("golden-dense", true);

    struct Case
    {
        RunMode mode;
        core::StrategyKind strategy;
        const char *label;
    };
    sim::TraceCache traces;
    for (const Case &c :
         {Case{RunMode::Suit, core::StrategyKind::CombinedFv, "fV"},
          Case{RunMode::Suit, core::StrategyKind::Emulation, "e"},
          Case{RunMode::Baseline, core::StrategyKind::CombinedFv,
               "baseline"}}) {
        for (const int cores : {1, 4}) {
            obs::metrics().reset();
            obs::metrics().setEnabled(true);

            EvalConfig cfg;
            cfg.cpu = &cpu;
            cfg.cores = cores;
            cfg.offsetMv = -97.0;
            cfg.mode = c.mode;
            cfg.strategy = c.strategy;
            cfg.params = core::optimalParams(cpu);
            cfg.seed = 7;
            (void)sim::runWorkload(cfg, p, traces);

            const obs::Snapshot snap = obs::metrics().snapshot();
            obs::metrics().setEnabled(false);
            obs::metrics().reset();

            const std::string label =
                std::string(c.label) + " cores=" + std::to_string(cores);
            ASSERT_NE(snap.find("sim.events.batched"), nullptr) << label;
            ASSERT_NE(snap.find("sim.events.total"), nullptr) << label;
            const std::uint64_t batched =
                snap.find("sim.events.batched")->count;
            const std::uint64_t total =
                snap.find("sim.events.total")->count;
            EXPECT_GT(batched, 0u) << label;
            EXPECT_LE(batched, total) << label;
            // The windows are the fast path's point: the bulk of the
            // trace must be consumed there, not in the generic loop.
            EXPECT_GT(batched, total / 2) << label;
        }
    }
}

/**
 * The trap window on real profiles: Nginx traps on AESENC and
 * VPCLMULQDQ, so the per-kind cost table is read at more than one
 * kind, and 502.gcc is a SPEC mix.  Both are cut to a slice, as a
 * fleet's trace_scale does.  One, two and four cores take the
 * single-core loop and the multi-core loop; CPUs A and B differ in
 * exception delay and emulation call cost.
 */
TEST(GoldenIdentity, EmulationWindowMatchesReferenceOnRealProfiles)
{
    const std::vector<power::CpuModel> cpus = {power::cpuA_i9_9900k(),
                                               power::cpuB_ryzen7700x()};
    std::vector<trace::WorkloadProfile> profiles;
    for (const char *name : {"Nginx", "502.gcc"}) {
        trace::WorkloadProfile p = trace::profileByName(name);
        p.totalInstructions =
            std::max<std::uint64_t>(1000000, p.totalInstructions / 100);
        profiles.push_back(std::move(p));
    }

    sim::TraceCache traces;
    int checked = 0;
    for (const power::CpuModel &cpu : cpus) {
        for (const int cores : {1, 2, 4}) {
            for (const trace::WorkloadProfile &p : profiles) {
                EvalConfig cfg;
                cfg.cpu = &cpu;
                cfg.cores = cores;
                cfg.offsetMv = -97.0;
                cfg.mode = RunMode::Suit;
                cfg.strategy = core::StrategyKind::Emulation;
                cfg.params = core::optimalParams(cpu);
                cfg.seed = 7;

                cfg.referencePath = true;
                const std::string ref = resultBytes(cfg, p, traces);
                cfg.referencePath = false;
                ASSERT_EQ(resultBytes(cfg, p, traces), ref)
                    << "CPU " << cpu.label() << " cores=" << cores
                    << " " << p.name;
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 2 * 3 * 2);
}

/**
 * The state log takes one entry per trap, which only the generic step
 * writes: with recordStateLog set, strategy e must stay off the
 * trap window and still match the reference loop.
 */
TEST(GoldenIdentity, EmulationWithStateLogTakesTheGenericPath)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const trace::WorkloadProfile p = goldenProfile("golden-dense", true);
    std::vector<trace::Trace> traces;
    for (int s = 0; s < 4; ++s)
        traces.push_back(trace::TraceGenerator(11).generate(p, s));

    for (const std::size_t cores : {std::size_t{1}, std::size_t{4}}) {
        std::vector<sim::CoreWork> work;
        for (std::size_t c = 0; c < cores; ++c)
            work.push_back({&traces[c], &p});

        sim::SimConfig cfg;
        cfg.cpu = &cpu;
        cfg.offsetMv = -97.0;
        cfg.mode = RunMode::Suit;
        cfg.strategy = core::StrategyKind::Emulation;
        cfg.params = core::optimalParams(cpu);
        cfg.seed = 23;
        cfg.recordStateLog = true;

        const sim::DomainResult fast = sim::DomainSimulator(cfg, work).run();
        cfg.referencePath = true;
        const sim::DomainResult ref = sim::DomainSimulator(cfg, work).run();

        // Every trap is on the timeline: none was batched past it.
        ASSERT_GT(fast.traps, 0u);
        EXPECT_EQ(fast.stateLog.size(), fast.traps) << "cores=" << cores;
        std::string fast_bytes;
        std::string ref_bytes;
        sim::serializeResult(fast, fast_bytes);
        sim::serializeResult(ref, ref_bytes);
        EXPECT_EQ(fast_bytes, ref_bytes) << "cores=" << cores;
    }
}

/**
 * The p-state timeline is the most fragile part of the result (one
 * extra or reordered event shifts every later entry), so it gets a
 * dedicated identity check with recordStateLog set — once on a
 * single-core domain (batched windows) and once on a shared
 * four-core domain (cross-core event interleaving).
 */
TEST(GoldenIdentity, StateLogBitIdenticalWithRecordStateLog)
{
    const power::CpuModel cpuC = power::cpuC_xeon4208();
    const power::CpuModel cpuA = power::cpuA_i9_9900k();
    const trace::WorkloadProfile p = goldenProfile("golden-dense", true);

    struct DomainCase
    {
        const power::CpuModel *cpu;
        int streams;
    };
    for (const DomainCase dc :
         {DomainCase{&cpuC, 1}, DomainCase{&cpuA, 4}}) {
        std::vector<trace::Trace> traces;
        for (int s = 0; s < dc.streams; ++s)
            traces.push_back(trace::TraceGenerator(11).generate(p, s));
        std::vector<sim::CoreWork> work;
        for (const trace::Trace &t : traces)
            work.push_back({&t, &p});

        sim::SimConfig cfg;
        cfg.cpu = dc.cpu;
        cfg.offsetMv = -97.0;
        cfg.mode = RunMode::Suit;
        cfg.strategy = core::StrategyKind::CombinedFv;
        cfg.params = core::optimalParams(*dc.cpu);
        cfg.seed = 23;
        cfg.recordStateLog = true;

        cfg.referencePath = false;
        sim::DomainSimulator fast_sim(cfg, work);
        const sim::DomainResult fast = fast_sim.run();
        cfg.referencePath = true;
        sim::DomainSimulator ref_sim(cfg, work);
        const sim::DomainResult ref = ref_sim.run();

        // The check must bite: a SUIT run of this workload switches
        // p-states and traps many times.
        ASSERT_FALSE(ref.stateLog.empty());

        std::string fast_bytes;
        std::string ref_bytes;
        sim::serializeResult(fast, fast_bytes);
        sim::serializeResult(ref, ref_bytes);
        EXPECT_EQ(fast_bytes, ref_bytes)
            << "CPU " << dc.cpu->label() << " streams=" << dc.streams;
    }
}

/**
 * Arrival ties.  Every core of the domain runs the same trace, so
 * cores reach their events on the same tick and the fast loop's
 * arrival scan must break each tie the way the reference loop does:
 * to the lowest core index.  The other tests generate one stream per
 * core, whose arrivals do not tie, so only this test pins the
 * tie-break.
 */
TEST(GoldenIdentity, IdenticalStreamsTieBreakToLowestCore)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const trace::WorkloadProfile p = goldenProfile("golden-dense", true);
    const trace::Trace shared = trace::TraceGenerator(11).generate(p, 0);

    int checked = 0;
    for (const int cores : {2, 4, 8}) {
        const std::vector<sim::CoreWork> work(
            static_cast<std::size_t>(cores), sim::CoreWork{&shared, &p});
        for (const ModeCase &mc : modeCases()) {
            sim::SimConfig cfg;
            cfg.cpu = &cpu;
            cfg.offsetMv = -97.0;
            cfg.mode = mc.mode;
            cfg.strategy = mc.strategy;
            cfg.params = core::optimalParams(cpu);
            cfg.seed = 23;
            cfg.recordStateLog = true;

            cfg.referencePath = false;
            std::string fast_bytes;
            sim::serializeResult(sim::DomainSimulator(cfg, work).run(),
                                 fast_bytes);
            cfg.referencePath = true;
            std::string ref_bytes;
            sim::serializeResult(sim::DomainSimulator(cfg, work).run(),
                                 ref_bytes);
            EXPECT_EQ(fast_bytes, ref_bytes)
                << "cores=" << cores << " " << mc.label;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 3 * 7);
}

/**
 * The shared-domain model's intent.  A core's arrival is materialised
 * only at its own events and at domain-level steps, so where no
 * domain-level step happens, another core's event does not touch it:
 * in Baseline mode (and under strategy e, whose traps stall only the
 * trapping core) each core of a 2- or 4-core domain finishes at the
 * very tick its stream finishes alone, on both loops.
 */
TEST(GoldenIdentity, SharedCoresFinishAsTheirStreamAlone)
{
    // Real profiles: their 20k-55k-event streams are long enough that
    // re-rounding every core's arrival at each event of the domain
    // moves these durations; the short synthetic streams above rarely
    // land on a tick boundary.
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const std::vector<const trace::WorkloadProfile *> profiles = {
        &trace::profileByName("557.xz"),
        &trace::profileByName("525.x264")};
    std::vector<trace::Trace> traces;
    for (int stream = 0; stream < 4; ++stream) {
        traces.push_back(trace::TraceGenerator(3).generate(
            *profiles[static_cast<std::size_t>(stream % 2)], stream));
    }
    const auto work_of = [&](std::size_t i) {
        return sim::CoreWork{&traces[i], profiles[i % 2]};
    };
    const std::vector<ModeCase> cases = {
        {"baseline", RunMode::Baseline, core::StrategyKind::CombinedFv},
        {"suit-e", RunMode::Suit, core::StrategyKind::Emulation},
    };

    int checked = 0;
    for (const ModeCase &mc : cases) {
        for (const bool reference : {false, true}) {
            sim::SimConfig cfg;
            cfg.cpu = &cpu;
            cfg.offsetMv = -97.0;
            cfg.mode = mc.mode;
            cfg.strategy = mc.strategy;
            cfg.params = core::optimalParams(cpu);
            cfg.seed = 5;
            cfg.referencePath = reference;
            for (const std::size_t cores : {2U, 4U}) {
                std::vector<sim::CoreWork> work;
                for (std::size_t i = 0; i < cores; ++i)
                    work.push_back(work_of(i));
                const sim::DomainResult shared =
                    sim::DomainSimulator(cfg, work).run();
                ASSERT_EQ(shared.cores.size(), cores);
                for (std::size_t i = 0; i < cores; ++i) {
                    const sim::DomainResult alone =
                        sim::DomainSimulator(cfg, {work_of(i)}).run();
                    // Bit for bit: EXPECT_EQ on doubles is exact.
                    EXPECT_EQ(shared.cores[i].durationS,
                              alone.cores[0].durationS)
                        << mc.label << " reference=" << reference
                        << " cores=" << cores << " core " << i;
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, 2 * 2 * (2 + 4));
}

/**
 * Fleet check: the fast path under the parallel sweep engine must
 * equal the reference path run serially.  Under -DSUIT_SANITIZE=thread
 * this also race-checks the fast loop's per-simulator state.
 */
TEST(GoldenIdentity, ParallelFastMatchesSerialReference)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const std::vector<trace::WorkloadProfile> profiles = {
        goldenProfile("golden-dense", true),
        goldenProfile("golden-sparse", false),
        goldenProfile("golden-mid", true)};

    EvalConfig cfg;
    cfg.cpu = &cpu;
    cfg.cores = 4;
    cfg.offsetMv = -97.0;
    cfg.mode = RunMode::Suit;
    cfg.strategy = core::StrategyKind::Hybrid;
    cfg.params = core::optimalParams(cpu);
    cfg.seed = 3;

    cfg.referencePath = true;
    const std::vector<sim::WorkloadRow> serial =
        sim::runSuite(cfg, profiles);
    cfg.referencePath = false;
    std::vector<exec::SweepJob> jobs;
    for (const trace::WorkloadProfile &p : profiles)
        jobs.push_back({p.name, cfg, &p});
    runtime::Session session({.jobs = 4});
    exec::SweepEngine engine(session);
    const std::vector<sim::DomainResult> parallel = engine.run(jobs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        std::string serial_bytes;
        std::string parallel_bytes;
        sim::serializeResult(serial[i].result, serial_bytes);
        sim::serializeResult(parallel[i], parallel_bytes);
        EXPECT_EQ(serial_bytes, parallel_bytes)
            << profiles[i].name;
    }
}

} // namespace

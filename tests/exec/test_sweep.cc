/**
 * @file
 * SweepEngine tests: bit-identical parallel-vs-serial results on a
 * reduced Table-6 grid, deterministic result ordering, trace-cache
 * reuse across repeated cells, the trace-key dispatch order (one
 * generation per trace under a tight cache, index-order identity at
 * any worker count and across cancel/resume) and deriveSeed purity.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/params.hh"
#include "exec/sweep.hh"
#include "runtime/session.hh"
#include "power/cpu_model.hh"
#include "sim/result_io.hh"
#include "trace/profile.hh"

namespace {

using namespace suit;
using exec::SweepEngine;
using exec::SweepJob;
using sim::DomainResult;
using sim::EvalConfig;
using sim::WorkloadRow;

/** Reduced Table-6 workload subset (keeps the test under seconds). */
std::vector<trace::WorkloadProfile>
subset()
{
    std::vector<trace::WorkloadProfile> out;
    for (const char *name :
         {"557.xz", "502.gcc", "520.omnetpp", "538.imagick", "Nginx"})
        out.push_back(trace::profileByName(name));
    return out;
}

/** One job per profile, labelled and ordered like runSuite(). */
std::vector<SweepJob>
suiteJobs(const EvalConfig &cfg,
          const std::vector<trace::WorkloadProfile> &profiles)
{
    std::vector<SweepJob> jobs;
    for (const trace::WorkloadProfile &p : profiles)
        jobs.push_back({p.name, cfg, &p});
    return jobs;
}

/** Bitwise equality of every field of two domain results. */
void
expectIdentical(const DomainResult &a, const DomainResult &b)
{
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].workload, b.cores[i].workload);
        EXPECT_EQ(a.cores[i].durationS, b.cores[i].durationS);
        EXPECT_EQ(a.cores[i].baselineDurationS,
                  b.cores[i].baselineDurationS);
    }
    EXPECT_EQ(a.powerFactor, b.powerFactor);
    EXPECT_EQ(a.efficientShare, b.efficientShare);
    EXPECT_EQ(a.cfShare, b.cfShare);
    EXPECT_EQ(a.cvShare, b.cvShare);
    EXPECT_EQ(a.traps, b.traps);
    EXPECT_EQ(a.emulations, b.emulations);
    EXPECT_EQ(a.pstateSwitches, b.pstateSwitches);
    EXPECT_EQ(a.thrashDetections, b.thrashDetections);
}

TEST(SweepEngine, ParallelSuiteBitIdenticalToSerialRunSuite)
{
    // The acceptance-criterion test: a reduced Table-6 grid (two CPU
    // configurations, 5 workloads) run through SweepEngine with 4
    // workers must reproduce serial runSuite() bit for bit.
    const power::CpuModel cpu_a = power::cpuA_i9_9900k();
    const power::CpuModel cpu_c = power::cpuC_xeon4208();
    const auto profiles = subset();

    for (const power::CpuModel *cpu : {&cpu_a, &cpu_c}) {
        EvalConfig cfg;
        cfg.cpu = cpu;
        cfg.cores = cpu == &cpu_a ? 4 : 1;
        cfg.offsetMv = -97.0;
        cfg.params = core::optimalParams(*cpu);

        const std::vector<WorkloadRow> serial =
            sim::runSuite(cfg, profiles);
        const std::vector<SweepJob> jobs = suiteJobs(cfg, profiles);
        runtime::Session session({.jobs = 4});
        SweepEngine engine(session);
        const std::vector<DomainResult> parallel = engine.run(jobs);

        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].workload, jobs[i].label);
            expectIdentical(serial[i].result, parallel[i]);
        }
    }
}

TEST(SweepEngine, SerialModeMatchesRunSuiteToo)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const auto profiles = subset();

    EvalConfig cfg;
    cfg.cpu = &cpu;
    cfg.params = core::optimalParams(cpu);

    runtime::Session session({.jobs = 1});
    exec::SweepEngine engine(session);
    EXPECT_EQ(engine.jobs(), 1);
    const auto serial = sim::runSuite(cfg, profiles);
    const auto inline_results =
        engine.run(suiteJobs(cfg, profiles));
    ASSERT_EQ(serial.size(), inline_results.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i].result, inline_results[i]);
}

TEST(SweepEngine, ResultsArriveInJobOrder)
{
    // Jobs with very different run times (4-core shared domain vs a
    // single light domain) still land at their own index.
    const power::CpuModel cpu_a = power::cpuA_i9_9900k();
    const auto &xz = trace::profileByName("557.xz");
    const auto &omnetpp = trace::profileByName("520.omnetpp");

    EvalConfig heavy;
    heavy.cpu = &cpu_a;
    heavy.cores = 4;
    heavy.params = core::optimalParams(cpu_a);
    EvalConfig light = heavy;
    light.cores = 1;

    std::vector<SweepJob> jobs = {{"heavy", heavy, &xz},
                                  {"light", light, &omnetpp},
                                  {"heavy2", heavy, &omnetpp},
                                  {"light2", light, &xz}};

    runtime::Session session({.jobs = 4});
    SweepEngine engine(session);
    const std::vector<DomainResult> results = engine.run(jobs);
    ASSERT_EQ(results.size(), 4u);
    // Shared-domain 4-core jobs produce 4 core rows, light ones 1 —
    // a misordered result vector is immediately visible.
    EXPECT_EQ(results[0].cores.size(), 4u);
    EXPECT_EQ(results[1].cores.size(), 1u);
    EXPECT_EQ(results[2].cores.size(), 4u);
    EXPECT_EQ(results[3].cores.size(), 1u);
}

TEST(SweepEngine, TraceCacheReusedAcrossRepeatedCells)
{
    // Table-6 shape: the same (cpu, workload, seed) pair revisited
    // under different strategies must generate its trace once.
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const auto &gcc = trace::profileByName("502.gcc");

    EvalConfig fv;
    fv.cpu = &cpu;
    fv.params = core::optimalParams(cpu);
    fv.strategy = core::StrategyKind::CombinedFv;
    EvalConfig emu = fv;
    emu.strategy = core::StrategyKind::Emulation;
    EvalConfig off70 = fv;
    off70.offsetMv = -70.0;

    runtime::Session session({.jobs = 2});
    SweepEngine engine(session);
    engine.run({{"fv", fv, &gcc},
                {"e", emu, &gcc},
                {"fv70", off70, &gcc}});
    EXPECT_EQ(engine.traceCache().entries(), 1u);
    EXPECT_GE(engine.traceCache().hits(), 2u);
}

TEST(SweepEngine, WorkerFooterListsEveryWorker)
{
    runtime::Session session({.jobs = 3});
    SweepEngine engine(session);
    const std::string footer = engine.workerFooter();
    EXPECT_NE(footer.find("#0"), std::string::npos);
    EXPECT_NE(footer.find("#2"), std::string::npos);
    EXPECT_NE(footer.find("queue wait"), std::string::npos);

    runtime::Session serial_session({.jobs = 1});
    SweepEngine serial(serial_session);
    EXPECT_NE(serial.workerFooter().find("serial"),
              std::string::npos);
}

/**
 * A shared-domain grid in suit_sweep's nested order (cores, then
 * strategy/seed, then workload innermost) whose traces overflow a
 * cache cap that still holds any one (workload, seed) group's
 * streams: the shape where index-order dispatch regenerates traces.
 */
class SweepDispatchOrder : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        grid_ = new Grid();
    }
    static void TearDownTestSuite()
    {
        delete grid_;
        grid_ = nullptr;
    }

    struct Grid
    {
        power::CpuModel cpu = power::cpuA_i9_9900k();
        std::vector<trace::WorkloadProfile> profiles;
        std::vector<SweepJob> jobs;
        /** Distinct (workload, seed, stream) keys the grid reads. */
        std::size_t keys = 0;
        std::size_t capBytes = 0;
        std::size_t totalBytes = 0;
        /** Serialized index-order serial results. */
        std::vector<std::string> reference;
        /** Traces that index-order run generated under the cap. */
        std::uint64_t referenceMisses = 0;

        Grid()
        {
            for (const char *name : {"557.xz", "Nginx", "VLC"})
                profiles.push_back(trace::profileByName(name));
            const int max_cores = 4;
            const std::vector<std::uint64_t> seeds = {11, 12};
            const std::vector<std::pair<core::StrategyKind,
                                        std::uint64_t>>
                variants = {{core::StrategyKind::Emulation, 11},
                            {core::StrategyKind::CombinedFv, 11},
                            {core::StrategyKind::CombinedFv, 12}};
            for (const int cores : {1, 2, max_cores}) {
                for (const auto &[strategy, seed] : variants) {
                    for (const trace::WorkloadProfile &p : profiles) {
                        EvalConfig cfg;
                        cfg.cpu = &cpu;
                        cfg.cores = cores;
                        cfg.strategy = strategy;
                        cfg.params = core::optimalParams(cpu);
                        cfg.seed = seed;
                        jobs.push_back({p.name, cfg, &p});
                    }
                }
            }
            keys = profiles.size() * seeds.size() * max_cores;

            // Size the cap from the traces themselves: half again
            // the largest group, well under the whole grid.
            std::size_t largest = 0;
            for (const trace::WorkloadProfile &p : profiles) {
                for (const std::uint64_t seed : seeds) {
                    sim::TraceCache scratch;
                    std::vector<std::shared_ptr<const trace::Trace>>
                        pins;
                    scratch.getMany(p, seed, max_cores, pins);
                    largest =
                        std::max(largest, scratch.residentBytes());
                    totalBytes += scratch.residentBytes();
                }
            }
            capBytes = largest + largest / 2;

            runtime::SessionConfig config;
            config.jobs = 1;
            config.traceCacheBytes = capBytes;
            runtime::Session session(config);
            SweepEngine engine(session);
            runtime::RunContext ctx;
            exec::RunPolicy strict;
            strict.strict = true;
            // runCells() keeps index order: the pre-sort dispatch.
            const exec::SweepOutcome out = engine.runCells(
                jobs.size(),
                [&](std::size_t i) {
                    return sim::runWorkload(jobs[i].config,
                                            *jobs[i].profile,
                                            session.traceCache());
                },
                ctx, strict, exec::fingerprintJobs(jobs));
            reference = bytesOf(out.results);
            referenceMisses = session.traceCache().misses();
        }
    };

    static std::vector<std::string>
    bytesOf(const std::vector<DomainResult> &results)
    {
        std::vector<std::string> out(results.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            sim::serializeResult(results[i], out[i]);
        return out;
    }

    static runtime::SessionConfig capped(int jobs)
    {
        runtime::SessionConfig config;
        config.jobs = jobs;
        config.traceCacheBytes = grid_->capBytes;
        return config;
    }

    static Grid *grid_;
};

SweepDispatchOrder::Grid *SweepDispatchOrder::grid_ = nullptr;

TEST_F(SweepDispatchOrder, GeneratesEachTraceOnceSerially)
{
    // The grid really overflows the cap in index order...
    ASSERT_LT(grid_->capBytes, grid_->totalBytes);
    EXPECT_GT(grid_->referenceMisses, grid_->keys);

    // ...and trace-key order generates every trace exactly once.
    runtime::Session session(capped(1));
    SweepEngine engine(session);
    const std::vector<DomainResult> results = engine.run(grid_->jobs);
    EXPECT_EQ(engine.traceCache().misses(), grid_->keys);
    EXPECT_EQ(bytesOf(results), grid_->reference);
}

TEST_F(SweepDispatchOrder, BitIdenticalToIndexOrderAtAnyWorkerCount)
{
    for (const int jobs : {1, 2, 4}) {
        runtime::Session session(capped(jobs));
        SweepEngine engine(session);
        EXPECT_EQ(bytesOf(engine.run(grid_->jobs)), grid_->reference)
            << "jobs " << jobs;
    }
}

TEST_F(SweepDispatchOrder, CancelThenResumeBitIdentical)
{
    const std::string path =
        ::testing::TempDir() + "suit_sweep_dispatch_resume.bin";
    const std::size_t n = grid_->jobs.size();
    struct Leg
    {
        std::size_t stopAfter;
        int stopJobs;
        int resumeJobs;
    };
    for (const Leg leg : {Leg{1, 1, 4}, Leg{9, 2, 1}, Leg{20, 4, 2}}) {
        std::remove(path.c_str());
        runtime::Session first_session(capped(leg.stopJobs));
        runtime::RunContext first_ctx;
        first_ctx.checkpoint.path = path;
        std::atomic<std::size_t> completed{0};
        exec::RunPolicy first;
        first.onCellDone = [&](std::size_t) {
            if (completed.fetch_add(1) + 1 >= leg.stopAfter)
                first_ctx.token().cancel();
        };
        SweepEngine first_engine(first_session);
        const exec::SweepOutcome partial =
            first_engine.run(grid_->jobs, first_ctx, first);
        EXPECT_TRUE(partial.interrupted);
        EXPECT_GE(partial.executed, leg.stopAfter);
        EXPECT_LT(partial.executed, n);

        runtime::Session second_session(capped(leg.resumeJobs));
        runtime::RunContext second_ctx;
        second_ctx.checkpoint.path = path;
        second_ctx.checkpoint.resume = true;
        SweepEngine second_engine(second_session);
        const exec::SweepOutcome full =
            second_engine.run(grid_->jobs, second_ctx);
        EXPECT_TRUE(full.complete());
        EXPECT_EQ(full.restored, partial.executed);
        EXPECT_EQ(full.restored + full.executed, n);
        EXPECT_EQ(bytesOf(full.results), grid_->reference)
            << "stop after " << leg.stopAfter;
    }
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

TEST(DeriveSeed, PureAndDecorrelated)
{
    EXPECT_EQ(exec::deriveSeed(42, 7), exec::deriveSeed(42, 7));
    EXPECT_NE(exec::deriveSeed(42, 7), exec::deriveSeed(42, 8));
    EXPECT_NE(exec::deriveSeed(42, 7), exec::deriveSeed(43, 7));
}

} // namespace

/**
 * @file
 * Deadline-trip acceptance: a run whose RunContext deadline expires
 * mid-grid must leave a valid journal, and a fresh-context resume
 * must produce output byte-identical to an uninterrupted run — for
 * BOTH journal kinds (sweep DomainResult records and fleet blob
 * records).
 */

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/params.hh"
#include "exec/checkpoint.hh"
#include "exec/sweep.hh"
#include "fleet/engine.hh"
#include "fleet/report.hh"
#include "fleet/spec.hh"
#include "power/cpu_model.hh"
#include "runtime/run_context.hh"
#include "runtime/session.hh"
#include "sim/result_io.hh"
#include "trace/profile.hh"

namespace {

using namespace suit;

/** Unique scratch path that is removed again on destruction. */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string &name)
        : path_(::testing::TempDir() + "suit_deadline_" + name)
    {
        std::remove(path_.c_str());
    }
    ~ScratchFile()
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".tmp").c_str());
    }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Reduced 2-strategy x 2-workload grid on CPU C. */
std::vector<exec::SweepJob>
smallGrid(const power::CpuModel &cpu)
{
    static const auto &omnetpp = trace::profileByName("520.omnetpp");
    static const auto &nginx = trace::profileByName("Nginx");

    std::vector<exec::SweepJob> jobs;
    for (const core::StrategyKind strategy :
         {core::StrategyKind::CombinedFv,
          core::StrategyKind::Emulation}) {
        for (const auto *profile : {&omnetpp, &nginx}) {
            sim::EvalConfig cfg;
            cfg.cpu = &cpu;
            cfg.strategy = strategy;
            cfg.params = core::optimalParams(cpu);
            jobs.push_back({profile->name, cfg, profile});
        }
    }
    return jobs;
}

/** Serialize every result: the sweep byte-identity witness. */
std::string
bytesOf(const std::vector<sim::DomainResult> &results)
{
    std::string out;
    for (const sim::DomainResult &r : results)
        sim::serializeResult(r, out);
    return out;
}

TEST(DeadlineResume, SweepJournalResumesByteIdentical)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const std::vector<exec::SweepJob> jobs = smallGrid(cpu);
    ScratchFile journal("sweep.ckpt");

    // Uninterrupted serial reference.
    runtime::Session ref_session({.jobs = 1});
    exec::SweepEngine reference(ref_session);
    const std::string expected = bytesOf(reference.run(jobs));

    // Interrupted run: the deadline trips after two completed cells
    // (setDeadlineAfter(0.0) is an already-expired deadline, so the
    // next token poll latches it — the exact path --deadline-s takes,
    // made deterministic).
    runtime::Session session_a({.jobs = 1});
    runtime::RunContext ctx_a;
    ctx_a.checkpoint.path = journal.path();
    std::atomic<int> completed{0};
    exec::RunPolicy policy;
    policy.onCellDone = [&](std::size_t) {
        if (completed.fetch_add(1) + 1 >= 2)
            ctx_a.setDeadlineAfter(0.0);
    };
    exec::SweepEngine engine_a(session_a);
    const exec::SweepOutcome partial =
        engine_a.run(jobs, ctx_a, policy);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_EQ(partial.executed, 2u);
    EXPECT_EQ(partial.skipped, 2u);

    // The journal holds exactly the completed cells.
    const exec::JournalContents loaded =
        exec::CheckpointJournal::load(journal.path());
    EXPECT_EQ(loaded.droppedBytes, 0u);
    EXPECT_EQ(loaded.records.size(), 2u);

    // Fresh-context resume (no deadline): byte-identical output.
    runtime::Session session_b({.jobs = 2});
    runtime::RunContext ctx_b;
    ctx_b.checkpoint.path = journal.path();
    ctx_b.checkpoint.resume = true;
    exec::SweepEngine engine_b(session_b);
    const exec::SweepOutcome full = engine_b.run(jobs, ctx_b);
    EXPECT_TRUE(full.complete());
    EXPECT_EQ(full.restored, 2u);
    EXPECT_EQ(full.executed, 2u);
    EXPECT_EQ(bytesOf(full.results), expected);
}

/** A small heterogeneous fleet that still runs in milliseconds. */
fleet::FleetSpec
testSpec()
{
    return fleet::FleetSpec::parse(
        "name = deadline-test\n"
        "seed = 5\n"
        "trace_scale = 0.001\n"
        "rack web cpu=C domains=260 workloads=Nginx:2,VLC:1 "
        "strategy=fV,e offset=-97,-70 variants=2\n"
        "rack build cpu=A domains=120 cores=2 workloads=502.gcc "
        "strategy=hybrid\n"
        "rack sim cpu=B domains=100 workloads=520.omnetpp "
        "strategy=V offset=-70\n");
}

TEST(DeadlineResume, FleetJournalResumesByteIdentical)
{
    ScratchFile journal("fleet.ckpt");

    // Uninterrupted serial reference.
    runtime::Session ref_session({.jobs = 1});
    fleet::FleetEngine reference(ref_session, testSpec());
    fleet::FleetOptions options;
    options.shardSize = 32;
    const fleet::FleetOutcome ref_outcome = reference.run(options);
    ASSERT_TRUE(ref_outcome.complete());
    const std::string expected = fleet::renderReportJson(
        reference.spec(), ref_outcome.totals);

    // Interrupted run: the deadline trips after two completed
    // shards.
    runtime::Session session_a({.jobs = 1});
    runtime::RunContext ctx_a;
    ctx_a.checkpoint.path = journal.path();
    std::atomic<int> done{0};
    fleet::FleetOptions first;
    first.shardSize = 32;
    first.onShardDone = [&](std::uint64_t) {
        if (done.fetch_add(1) + 1 >= 2)
            ctx_a.setDeadlineAfter(0.0);
    };
    fleet::FleetEngine engine_a(session_a, testSpec());
    const fleet::FleetOutcome interrupted =
        engine_a.run(ctx_a, first);
    ASSERT_TRUE(interrupted.interrupted);
    ASSERT_GT(interrupted.shardsSkipped, 0u);
    ASSERT_GE(interrupted.shardsRun, 2u);

    // The blob journal holds exactly the completed shards.
    const exec::JournalContents loaded =
        exec::CheckpointJournal::load(journal.path());
    EXPECT_EQ(loaded.droppedBytes, 0u);
    EXPECT_EQ(loaded.records.size(), interrupted.shardsRun);

    // Fresh-context resume: byte-identical report.
    runtime::Session session_b({.jobs = 2});
    runtime::RunContext ctx_b;
    ctx_b.checkpoint.path = journal.path();
    ctx_b.checkpoint.resume = true;
    fleet::FleetOptions second;
    second.shardSize = 32;
    fleet::FleetEngine engine_b(session_b, testSpec());
    const fleet::FleetOutcome resumed = engine_b.run(ctx_b, second);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.shardsRestored, interrupted.shardsRun);
    EXPECT_EQ(fleet::renderReportJson(engine_b.spec(),
                                      resumed.totals),
              expected);
}

} // namespace

/**
 * @file
 * FleetEngine determinism tests: serial vs multi-worker byte
 * identity, shard-size invariance, one trace fetch per trace-key run
 * inside a shard, kill-and-resume equivalence
 * through the checkpoint journal (from a journal cut or damaged at
 * any byte), fingerprint mismatch refusal, and report schema
 * validation.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "exec/checkpoint.hh"
#include "fleet/engine.hh"
#include "obs/registry.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "obs/validate.hh"
#include "runtime/run_context.hh"
#include "runtime/session.hh"
#include "fleet/report.hh"
#include "fleet/spec.hh"

namespace {

using namespace suit;
using fleet::FleetEngine;
using fleet::FleetOptions;
using fleet::FleetOutcome;
using fleet::FleetSpec;

/** Unique scratch path that is removed again on destruction. */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string &name)
        : path_(::testing::TempDir() + "suit_fleet_" + name)
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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** A small heterogeneous fleet that still runs in milliseconds. */
FleetSpec
testSpec()
{
    return FleetSpec::parse(
        "name = engine-test\n"
        "seed = 5\n"
        "trace_scale = 0.001\n"
        "rack web cpu=C domains=260 workloads=Nginx:2,VLC:1 "
        "strategy=fV,e offset=-97,-70 variants=2\n"
        "rack build cpu=A domains=120 cores=2 workloads=502.gcc "
        "strategy=hybrid\n"
        "rack sim cpu=B domains=100 workloads=520.omnetpp "
        "strategy=V offset=-70\n");
}

/** Run the spec and render its JSON report (the identity witness). */
std::string
reportOf(const FleetSpec &spec, int jobs, std::uint64_t shard_size)
{
    runtime::Session session({.jobs = jobs});
    FleetEngine engine(session, spec);
    FleetOptions options;
    options.shardSize = shard_size;
    const FleetOutcome outcome = engine.run(options);
    EXPECT_TRUE(outcome.complete());
    return fleet::renderReportJson(engine.spec(), outcome.totals);
}

TEST(FleetEngine, WorkerCountDoesNotChangeTheReport)
{
    const std::string reference = reportOf(testSpec(), 1, 64);
    ASSERT_FALSE(reference.empty());

    for (const int jobs : {2, 4}) {
        EXPECT_EQ(reportOf(testSpec(), jobs, 64), reference)
            << "report diverged at jobs=" << jobs;
    }
}

TEST(FleetEngine, ShardSizeDoesNotChangeTheReport)
{
    // Shard size 0 = default: one shard covers the whole fleet.
    const std::string ra = reportOf(testSpec(), 2, 16);
    EXPECT_EQ(ra, reportOf(testSpec(), 2, 64));
    EXPECT_EQ(ra, reportOf(testSpec(), 2, 0));
}

TEST(FleetEngine, ShardFetchesEachTraceOncePerKeyRun)
{
    // A shard runs its domains in (rack, workload, variant) order and
    // fetches each key's traces once.  The cache counts one hit or
    // miss per stream, so a key of the 2-stream rack counts twice.
    const FleetSpec spec = testSpec();
    std::vector<int> streams;
    for (const fleet::RackSpec &rack : spec.racks) {
        const power::CpuModel cpu = power::cpuModelByName(rack.cpu);
        streams.push_back(
            cpu.domains() == power::DomainLayout::SharedAll ? rack.cores
                                                             : 1);
    }
    ASSERT_EQ(streams[1], 2);

    const std::uint64_t domains = spec.totalDomains();
    std::string reference;
    for (const std::uint64_t shard_size : {1, 7, 64, 4096}) {
        std::uint64_t expected = 0;
        for (std::uint64_t first = 0; first < domains;
             first += shard_size) {
            std::set<std::tuple<std::uint32_t, std::uint16_t,
                                std::uint8_t>>
                keys;
            const std::uint64_t last =
                std::min(domains, first + shard_size);
            for (std::uint64_t i = first; i < last; ++i) {
                const fleet::DomainConfig d = spec.domainAt(i);
                if (keys.insert({d.rack, d.workload, d.variant}).second)
                    expected += static_cast<std::uint64_t>(
                        streams[d.rack]);
            }
        }

        runtime::Session session({.jobs = 1});
        FleetEngine engine(session, spec);
        FleetOptions options;
        options.shardSize = shard_size;
        const FleetOutcome outcome = engine.run(options);
        ASSERT_TRUE(outcome.complete());
        const sim::TraceCache &cache = engine.traceCache();
        EXPECT_EQ(cache.hits() + cache.misses(), expected)
            << "shard size " << shard_size;
        if (shard_size == 1) {
            // One key per shard: every domain fetches.
            std::uint64_t stream_domains = 0;
            for (std::size_t r = 0; r < spec.racks.size(); ++r)
                stream_domains += spec.racks[r].domains *
                                  static_cast<std::uint64_t>(streams[r]);
            EXPECT_EQ(expected, stream_domains);
        } else {
            EXPECT_LT(expected, domains);
        }

        const std::string report =
            fleet::renderReportJson(engine.spec(), outcome.totals);
        if (reference.empty())
            reference = report;
        EXPECT_EQ(report, reference) << "shard size " << shard_size;
    }
}

TEST(FleetEngine, KillAndResumeMatchesUninterruptedRun)
{
    const std::string reference = reportOf(testSpec(), 1, 32);

    ScratchFile journal("resume.ckpt");

    // First run: cancel after 4 completed shards.
    runtime::Session session_a({.jobs = 2});
    runtime::RunContext ctx_a;
    ctx_a.checkpoint.path = journal.path();
    std::atomic<int> done{0};
    FleetOptions first;
    first.shardSize = 32;
    first.onShardDone = [&](std::uint64_t) {
        if (done.fetch_add(1) + 1 >= 4)
            ctx_a.token().cancel();
    };
    FleetEngine engine_a(session_a, testSpec());
    const FleetOutcome interrupted = engine_a.run(ctx_a, first);
    ASSERT_TRUE(interrupted.interrupted);
    ASSERT_GT(interrupted.shardsSkipped, 0u);
    ASSERT_GE(interrupted.shardsRun, 4u);

    // Second run: resume and finish.
    runtime::Session session_b({.jobs = 2});
    runtime::RunContext ctx_b;
    ctx_b.checkpoint.path = journal.path();
    ctx_b.checkpoint.resume = true;
    FleetOptions second;
    second.shardSize = 32;
    FleetEngine engine_b(session_b, testSpec());
    const FleetOutcome resumed = engine_b.run(ctx_b, second);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.shardsRestored, interrupted.shardsRun);
    EXPECT_EQ(fleet::renderReportJson(engine_b.spec(),
                                      resumed.totals),
              reference);
}

/**
 * The fleet journal's records are opaque blobs (serialized shard
 * accumulators), so the longest-valid-prefix recovery must work on
 * them exactly as it does on sweep DomainResult records: a torn
 * tail drops only the damaged record, and a resume re-runs the lost
 * shards to the byte-identical report.
 */
TEST(FleetEngine, TruncatedJournalBlobResumesFromValidPrefix)
{
    const std::string reference = reportOf(testSpec(), 1, 32);

    ScratchFile journal("trunc_blob.ckpt");
    runtime::Session session_a({.jobs = 1});
    runtime::RunContext ctx_a;
    ctx_a.checkpoint.path = journal.path();
    FleetOptions checkpointed;
    checkpointed.shardSize = 32;
    FleetEngine engine_a(session_a, testSpec());
    const FleetOutcome full = engine_a.run(ctx_a, checkpointed);
    ASSERT_TRUE(full.complete());
    ASSERT_GT(full.shardsRun, 2u);

    // Tear the final blob record (journal copied mid-write by an
    // external tool).  Recovery must keep the earlier records.
    const std::string bytes = readFile(journal.path());
    writeFile(journal.path(), bytes.substr(0, bytes.size() - 5));
    const exec::JournalContents loaded =
        exec::CheckpointJournal::load(journal.path());
    EXPECT_GT(loaded.droppedBytes, 0u);
    ASSERT_EQ(loaded.records.size(), full.shardsRun - 1);
    EXPECT_TRUE(loaded.records.back().isBlob);

    runtime::Session session_b({.jobs = 1});
    runtime::RunContext ctx_b;
    ctx_b.checkpoint.path = journal.path();
    ctx_b.checkpoint.resume = true;
    FleetEngine engine_b(session_b, testSpec());
    const FleetOutcome resumed = engine_b.run(ctx_b, checkpointed);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.shardsRestored, full.shardsRun - 1);
    EXPECT_EQ(resumed.shardsRun, 1u);
    EXPECT_EQ(fleet::renderReportJson(engine_b.spec(),
                                      resumed.totals),
              reference);
}

TEST(FleetEngine, ChecksumFlippedBlobResumesFromValidPrefix)
{
    const std::string reference = reportOf(testSpec(), 1, 32);

    ScratchFile journal("flip_blob.ckpt");
    runtime::Session session_a({.jobs = 1});
    runtime::RunContext ctx_a;
    ctx_a.checkpoint.path = journal.path();
    FleetOptions checkpointed;
    checkpointed.shardSize = 32;
    FleetEngine engine_a(session_a, testSpec());
    const FleetOutcome full = engine_a.run(ctx_a, checkpointed);
    ASSERT_TRUE(full.complete());
    ASSERT_GT(full.shardsRun, 2u);

    // Flip one byte inside the final record's payload: its checksum
    // no longer matches, so recovery drops exactly that record.
    std::string bytes = readFile(journal.path());
    bytes[bytes.size() - 3] =
        static_cast<char>(bytes[bytes.size() - 3] ^ 0x5A);
    writeFile(journal.path(), bytes);
    const exec::JournalContents loaded =
        exec::CheckpointJournal::load(journal.path());
    EXPECT_GT(loaded.droppedBytes, 0u);
    ASSERT_EQ(loaded.records.size(), full.shardsRun - 1);

    runtime::Session session_b({.jobs = 1});
    runtime::RunContext ctx_b;
    ctx_b.checkpoint.path = journal.path();
    ctx_b.checkpoint.resume = true;
    FleetEngine engine_b(session_b, testSpec());
    const FleetOutcome resumed = engine_b.run(ctx_b, checkpointed);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.shardsRestored, full.shardsRun - 1);
    EXPECT_EQ(fleet::renderReportJson(engine_b.spec(),
                                      resumed.totals),
              reference);
}

/** Size of the journal header (magic, version, fingerprint). */
constexpr std::size_t kHeaderSize = 32;

/** End offset of every version-1 record frame in @p bytes. */
std::vector<std::size_t>
recordEnds(const std::string &bytes)
{
    std::vector<std::size_t> ends;
    std::size_t pos = kHeaderSize;
    while (pos + 8 <= bytes.size()) {
        std::uint32_t len = 0;
        for (int i = 0; i < 4; ++i)
            len |= static_cast<std::uint32_t>(
                       static_cast<unsigned char>(bytes[pos + i]))
                   << (8 * i);
        pos += 8 + len;
        ends.push_back(pos);
    }
    EXPECT_EQ(pos, bytes.size()) << "journal does not end on a frame";
    return ends;
}

/** Records whose frames end at or before @p offset. */
std::size_t
recordsWithin(const std::vector<std::size_t> &ends,
              std::size_t offset)
{
    std::size_t n = 0;
    while (n < ends.size() && ends[n] <= offset)
        ++n;
    return n;
}

/**
 * Crash consistency of a fleet journal: cut or damaged at any byte,
 * it loads as exactly the blob records before the damage, and a
 * resume from a cut at any byte past the header reproduces the
 * uninterrupted report byte for byte.
 */
TEST(FleetEngine, JournalCutOrDamagedAtAnyByteResumesToTheSameReport)
{
    constexpr std::uint64_t kShard = 160; // three shard blobs
    const std::string reference = reportOf(testSpec(), 1, kShard);

    ScratchFile journal("every_byte.ckpt");
    ScratchFile copy("every_byte_copy.ckpt");
    FleetOptions checkpointed;
    checkpointed.shardSize = kShard;
    runtime::Session session({.jobs = 2});
    {
        runtime::RunContext ctx;
        ctx.checkpoint.path = journal.path();
        FleetEngine engine(session, testSpec());
        ASSERT_TRUE(engine.run(ctx, checkpointed).complete());
    }
    const std::string bytes = readFile(journal.path());
    const std::vector<std::size_t> ends = recordEnds(bytes);
    const exec::JournalContents full =
        exec::CheckpointJournal::load(journal.path());
    ASSERT_EQ(full.records.size(), 3u);
    ASSERT_EQ(ends.size(), full.records.size());

    const auto expectPrefix = [&](const exec::JournalContents &loaded,
                                  std::size_t kept) {
        ASSERT_EQ(loaded.records.size(), kept);
        for (std::size_t i = 0; i < kept; ++i) {
            EXPECT_EQ(loaded.records[i].index, full.records[i].index);
            EXPECT_EQ(loaded.records[i].blob, full.records[i].blob);
        }
    };
    for (std::size_t offset = 0; offset <= bytes.size(); ++offset) {
        SCOPED_TRACE("cut at byte " + std::to_string(offset));
        writeFile(copy.path(), bytes.substr(0, offset));
        if (offset < kHeaderSize) {
            EXPECT_THROW(exec::CheckpointJournal::load(copy.path()),
                         exec::JournalError);
            continue;
        }
        expectPrefix(exec::CheckpointJournal::load(copy.path()),
                     recordsWithin(ends, offset));
    }
    for (std::size_t offset = kHeaderSize; offset < bytes.size();
         ++offset) {
        SCOPED_TRACE("flip at byte " + std::to_string(offset));
        std::string damaged = bytes;
        damaged[offset] = static_cast<char>(damaged[offset] ^ 0x01);
        writeFile(copy.path(), damaged);
        expectPrefix(exec::CheckpointJournal::load(copy.path()),
                     recordsWithin(ends, offset));
    }

    for (std::size_t offset = kHeaderSize; offset <= bytes.size();
         ++offset) {
        SCOPED_TRACE("resume from byte " + std::to_string(offset));
        writeFile(journal.path(), bytes.substr(0, offset));
        runtime::RunContext ctx;
        ctx.checkpoint.path = journal.path();
        ctx.checkpoint.resume = true;
        FleetEngine engine(session, testSpec());
        const FleetOutcome resumed = engine.run(ctx, checkpointed);
        EXPECT_TRUE(resumed.complete());
        EXPECT_EQ(resumed.shardsRestored, recordsWithin(ends, offset));
        EXPECT_EQ(
            fleet::renderReportJson(engine.spec(), resumed.totals),
            reference);
    }
}

/**
 * A blob record that passes the journal's framing checks but does
 * not decode as a shard accumulator must not poison the resume: the
 * engine warns, re-runs that shard and restores only the valid one.
 */
TEST(FleetEngine, MalformedShardBlobIsReRun)
{
    const std::string reference = reportOf(testSpec(), 1, 32);

    ScratchFile journal("malformed_blob.ckpt");
    FleetOptions checkpointed;
    checkpointed.shardSize = 32;
    runtime::Session session_a({.jobs = 1});
    FleetEngine engine_a(session_a, testSpec());
    {
        runtime::RunContext ctx_a;
        ctx_a.checkpoint.path = journal.path();
        ASSERT_TRUE(engine_a.run(ctx_a, checkpointed).complete());
    }
    const exec::JournalContents full =
        exec::CheckpointJournal::load(journal.path());
    ASSERT_GT(full.records.size(), 2u);
    EXPECT_EQ(full.fingerprint.hash,
              engine_a.journalFingerprint(checkpointed.shardSize));

    // Rewrite the journal under the same fingerprint with shard 0's
    // genuine blob and a well-framed garbage blob for shard 1.
    std::vector<exec::CellRecord> records;
    for (const exec::CellRecord &record : full.records)
        if (record.index == 0)
            records.push_back(record);
    ASSERT_EQ(records.size(), 1u);
    records.push_back(
        exec::CellRecord::blobRecord(1, "not an accumulator"));
    {
        exec::CheckpointJournal rewritten;
        rewritten.start(journal.path(), full.fingerprint,
                        std::move(records));
    }

    runtime::Session session_b({.jobs = 1});
    runtime::RunContext ctx_b;
    ctx_b.checkpoint.path = journal.path();
    ctx_b.checkpoint.resume = true;
    FleetEngine engine_b(session_b, testSpec());
    const FleetOutcome resumed = engine_b.run(ctx_b, checkpointed);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.shardsRestored, 1u);
    EXPECT_EQ(resumed.shardsRun, resumed.shards - 1);
    EXPECT_EQ(fleet::renderReportJson(engine_b.spec(),
                                      resumed.totals),
              reference);
}

TEST(FleetEngine, RefusesAForeignJournal)
{
    ScratchFile journal("foreign.ckpt");
    runtime::Session session({.jobs = 1});
    runtime::RunContext ctx;
    ctx.checkpoint.path = journal.path();
    FleetOptions checkpointed;
    checkpointed.shardSize = 32;
    FleetEngine original(session, testSpec());
    original.run(ctx, checkpointed);

    // Same journal, different seed => different fingerprint.
    FleetSpec other = testSpec();
    other.seed = 6;
    runtime::RunContext resume_ctx;
    resume_ctx.checkpoint.path = journal.path();
    resume_ctx.checkpoint.resume = true;
    FleetEngine engine(session, other);
    EXPECT_THROW(engine.run(resume_ctx, checkpointed),
                 exec::JournalError);

    // A different shard size invalidates the journal too.
    runtime::RunContext resized_ctx;
    resized_ctx.checkpoint.path = journal.path();
    resized_ctx.checkpoint.resume = true;
    FleetOptions resized;
    resized.shardSize = 16;
    FleetEngine engine_b(session, testSpec());
    EXPECT_THROW(engine_b.run(resized_ctx, resized),
                 exec::JournalError);
}

TEST(FleetEngine, PreTrippedTokenSkipsEverything)
{
    runtime::Session session({.jobs = 2});
    runtime::RunContext ctx;
    ctx.token().cancel();
    FleetOptions options;
    options.shardSize = 32;
    FleetEngine engine(session, testSpec());
    const FleetOutcome outcome = engine.run(ctx, options);
    EXPECT_TRUE(outcome.interrupted);
    EXPECT_FALSE(outcome.complete());
    EXPECT_EQ(outcome.shardsRun, 0u);
    EXPECT_EQ(outcome.totals.totalDomains(), 0u);
}

TEST(FleetEngine, ReportJsonValidates)
{
    runtime::Session session({.jobs = 2});
    FleetEngine engine(session, testSpec());
    const FleetOutcome outcome = engine.run();
    const std::string doc =
        fleet::renderReportJson(engine.spec(), outcome.totals);
    const obs::CheckResult check = fleet::checkReportJson(doc);
    EXPECT_TRUE(check.ok) << check.error;
    ASSERT_EQ(check.entries, 3u);
    EXPECT_EQ(check.names[0], "web");
    EXPECT_EQ(check.names[1], "build");
    EXPECT_EQ(check.names[2], "sim");
}

TEST(FleetEngine, DomainBasePowerSplitsPerCoreDomains)
{
    runtime::Session session({.jobs = 1});
    FleetEngine engine(session, testSpec());
    // Rack 0 (CPU C, per-core domains): one core's share.  Rack 1
    // (CPU A, shared domain): the whole package.
    EXPECT_GT(engine.domainBasePowerW(1),
              engine.domainBasePowerW(0) * 4);
    const fleet::FleetOutcome outcome = engine.run({});
    EXPECT_GT(outcome.totals.rack(0).wattsBefore.value(), 0.0);
}

TEST(FleetEngine, TracedRunEmitsPerRackCounterTracks)
{
    obs::TraceSession trace;
    obs::setActiveTrace(&trace);
    {
        runtime::Session session({.jobs = 2});
        runtime::RunContext ctx; // latches the active trace
        FleetOptions options;
        options.shardSize = 32;
        FleetEngine engine(session, testSpec());
        const FleetOutcome outcome = engine.run(ctx, options);
        EXPECT_TRUE(outcome.complete());
    }
    obs::setActiveTrace(nullptr);

    const std::string doc = trace.render();
    const obs::CheckResult check = obs::checkChromeTrace(doc);
    EXPECT_TRUE(check.ok) << check.error;

    // One named track per rack...
    for (const char *rack : {"rack web", "rack build", "rack sim"})
        EXPECT_NE(doc.find(rack), std::string::npos) << rack;
    // ...carrying the three cumulative counter series.
    for (const char *series : {"domains", "energy", "pstate"})
        EXPECT_TRUE(check.hasName(series)) << series;
    for (const char *arg :
         {"\"count\"", "\"power_w\"", "\"switches\"",
          "\"efficient_share\""})
        EXPECT_NE(doc.find(arg), std::string::npos) << arg;
}

// The bit-identity acceptance gate: running the telemetry sampler
// must not change simulation results — the report of a sampled run
// is byte-identical to an unsampled one.
TEST(FleetEngine, TelemetrySamplerDoesNotChangeTheReport)
{
    obs::metrics().setEnabled(true);
    const std::string reference = reportOf(testSpec(), 2, 32);

    // Sample aggressively: every millisecond.
    obs::TelemetrySampler sampler(obs::metrics(), 0.001);
    sampler.start();
    EXPECT_TRUE(sampler.running());

    runtime::SessionConfig cfg;
    cfg.jobs = 2;
    runtime::Session session(cfg);

    FleetEngine engine(session, testSpec());
    FleetOptions options;
    options.shardSize = 32;
    const FleetOutcome outcome = engine.run(options);
    EXPECT_TRUE(outcome.complete());
    EXPECT_EQ(fleet::renderReportJson(engine.spec(), outcome.totals),
              reference);
    // The run can finish before the 1 ms sampler first ticks; give
    // the still-running sampler a bounded wait for its first sample.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (sampler.samplesTaken() == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(sampler.samplesTaken(), 1u);
    obs::metrics().setEnabled(false);
}

} // namespace

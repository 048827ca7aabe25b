/**
 * @file
 * Checkpoint/resume tests: journal round trip, torn-tail and corrupt
 * record recovery at every byte offset, a failed write cut back to a
 * record boundary, fingerprint mismatch refusal, kill-and-resume
 * determinism on a real grid, retry and failed-cell accounting, and
 * cooperative stop semantics.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "core/params.hh"
#include "exec/checkpoint.hh"
#include "exec/sweep.hh"
#include "runtime/run_context.hh"
#include "runtime/session.hh"
#include "power/cpu_model.hh"
#include "trace/profile.hh"

namespace {

using namespace suit;
using exec::CellRecord;
using exec::CheckpointJournal;
using exec::GridFingerprint;
using exec::JournalContents;
using exec::JournalError;
using exec::RunPolicy;
using exec::SweepEngine;
using exec::SweepJob;
using exec::SweepOutcome;
using sim::DomainResult;

/** Unique scratch path that is removed again on destruction. */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string &name)
        : path_(::testing::TempDir() + "suit_ckpt_" + name)
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

/** Size of the journal header (magic, version, fingerprint). */
constexpr std::size_t kHeaderSize = 32;

/**
 * End offset of every record frame in the journal image @p bytes,
 * read straight from the version-1 framing: [length u32][checksum
 * u32][payload].
 */
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

/** A recognisable synthetic result. */
DomainResult
makeResult(double tag)
{
    DomainResult r;
    sim::CoreResult core;
    core.workload = "synthetic";
    core.durationS = tag;
    core.baselineDurationS = 2.0 * tag;
    r.cores.push_back(core);
    r.powerFactor = 0.5 + tag;
    r.efficientShare = 0.25;
    r.traps = static_cast<std::uint64_t>(tag * 100.0);
    return r;
}

/** An ok record for cell @p index carrying makeResult(@p tag). */
CellRecord
okRecord(std::uint64_t index, double tag)
{
    CellRecord record;
    record.index = index;
    record.result = makeResult(tag);
    return record;
}

/** A failed record for cell @p index. */
CellRecord
failedRecord(std::uint64_t index, std::string error)
{
    CellRecord record;
    record.index = index;
    record.failed = true;
    record.error = std::move(error);
    return record;
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

/** Reduced 2-strategy x 2-workload grid on CPU C. */
std::vector<SweepJob>
smallGrid(const power::CpuModel &cpu)
{
    static const auto &omnetpp = trace::profileByName("520.omnetpp");
    static const auto &nginx = trace::profileByName("Nginx");

    std::vector<SweepJob> jobs;
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

TEST(CheckpointJournal, RoundTripsRecordsAndFingerprint)
{
    ScratchFile file("roundtrip.bin");
    const GridFingerprint fp{4, 0xDEADBEEFCAFEF00DULL};

    CheckpointJournal journal;
    journal.start(file.path(), fp);
    // The header is on disk when start() returns, and each record
    // when its append() does.
    EXPECT_EQ(CheckpointJournal::load(file.path()).fingerprint, fp);
    EXPECT_TRUE(CheckpointJournal::load(file.path()).records.empty());
    journal.append(okRecord(0, 0.125));
    EXPECT_EQ(CheckpointJournal::load(file.path()).records.size(), 1u);
    journal.append(okRecord(2, 0.5));
    EXPECT_EQ(CheckpointJournal::load(file.path()).records.size(), 2u);
    journal.append(failedRecord(3, "cell exploded"));

    const JournalContents loaded =
        CheckpointJournal::load(file.path());
    EXPECT_EQ(loaded.fingerprint, fp);
    EXPECT_EQ(loaded.droppedBytes, 0u);
    ASSERT_EQ(loaded.records.size(), 3u);
    EXPECT_EQ(loaded.records[0].index, 0u);
    EXPECT_FALSE(loaded.records[0].failed);
    expectIdentical(loaded.records[0].result, makeResult(0.125));
    expectIdentical(loaded.records[1].result, makeResult(0.5));
    EXPECT_TRUE(loaded.records[2].failed);
    EXPECT_EQ(loaded.records[2].index, 3u);
    EXPECT_EQ(loaded.records[2].error, "cell exploded");
}

TEST(CheckpointJournal, TruncatedTailKeepsEarlierRecords)
{
    ScratchFile file("truncated.bin");
    CheckpointJournal journal;
    journal.start(file.path(), {3, 7});
    journal.append(okRecord(0, 1.0));
    journal.append(okRecord(1, 2.0));
    journal.append(okRecord(2, 3.0));

    // Simulate a torn final record (e.g. a journal copied mid-write
    // by an external tool).
    std::string bytes = readFile(file.path());
    writeFile(file.path(), bytes.substr(0, bytes.size() - 5));

    const JournalContents loaded =
        CheckpointJournal::load(file.path());
    ASSERT_EQ(loaded.records.size(), 2u);
    EXPECT_GT(loaded.droppedBytes, 0u);
    expectIdentical(loaded.records[1].result, makeResult(2.0));
}

TEST(CheckpointJournal, CorruptRecordStopsRecoveryAtItsOffset)
{
    ScratchFile file("corrupt.bin");
    CheckpointJournal journal;
    journal.start(file.path(), {2, 7});
    journal.append(okRecord(0, 1.0));
    const std::size_t first_end = readFile(file.path()).size();
    journal.append(okRecord(1, 2.0));

    // Flip one payload byte of the second record: its checksum no
    // longer matches, so recovery keeps only the first record.
    std::string bytes = readFile(file.path());
    bytes[first_end + 12] =
        static_cast<char>(bytes[first_end + 12] ^ 0x5A);
    writeFile(file.path(), bytes);

    const JournalContents loaded =
        CheckpointJournal::load(file.path());
    ASSERT_EQ(loaded.records.size(), 1u);
    EXPECT_GT(loaded.droppedBytes, 0u);
}

TEST(CheckpointJournal, RejectsForeignAndMissingFiles)
{
    ScratchFile file("foreign.bin");
    EXPECT_THROW(CheckpointJournal::load(file.path()), JournalError);
    writeFile(file.path(), "definitely not a journal, too short");
    EXPECT_THROW(CheckpointJournal::load(file.path()), JournalError);
}

/** Field-by-field equality of two journal records. */
void
expectSameRecord(const CellRecord &a, const CellRecord &b)
{
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.isBlob, b.isBlob);
    EXPECT_EQ(a.blob, b.blob);
    expectIdentical(a.result, b.result);
}

TEST(CheckpointJournal, TruncationAtEveryOffsetKeepsCompleteRecords)
{
    ScratchFile file("every_cut.bin");
    ScratchFile cut("every_cut_copy.bin");
    const GridFingerprint fp{5, 0x5EED};
    {
        CheckpointJournal journal;
        journal.start(file.path(), fp);
        journal.append(okRecord(0, 1.0));
        journal.append(failedRecord(3, "cell exploded"));
        journal.append(CellRecord::blobRecord(4, "opaque bytes"));
        journal.append(okRecord(1, 2.0));
    }
    const std::string bytes = readFile(file.path());
    const std::vector<std::size_t> ends = recordEnds(bytes);
    ASSERT_EQ(ends.size(), 4u);
    const JournalContents full = CheckpointJournal::load(file.path());
    ASSERT_EQ(full.records.size(), 4u);

    for (std::size_t offset = 0; offset <= bytes.size(); ++offset) {
        SCOPED_TRACE("cut at byte " + std::to_string(offset));
        writeFile(cut.path(), bytes.substr(0, offset));
        if (offset < kHeaderSize) {
            EXPECT_THROW(CheckpointJournal::load(cut.path()),
                         JournalError);
            continue;
        }
        const JournalContents loaded =
            CheckpointJournal::load(cut.path());
        const std::size_t kept = recordsWithin(ends, offset);
        EXPECT_EQ(loaded.fingerprint, fp);
        ASSERT_EQ(loaded.records.size(), kept);
        EXPECT_EQ(loaded.droppedBytes,
                  offset -
                      (kept == 0 ? kHeaderSize : ends[kept - 1]));
        for (std::size_t i = 0; i < kept; ++i)
            expectSameRecord(loaded.records[i], full.records[i]);
    }
}

TEST(CheckpointJournal, FlippedByteAtEveryOffsetStopsAtItsRecord)
{
    ScratchFile file("every_flip.bin");
    ScratchFile flipped("every_flip_copy.bin");
    {
        CheckpointJournal journal;
        journal.start(file.path(), {3, 11});
        journal.append(okRecord(2, 0.5));
        journal.append(failedRecord(0, "failed twice"));
        journal.append(okRecord(1, 1.5));
    }
    const std::string bytes = readFile(file.path());
    const std::vector<std::size_t> ends = recordEnds(bytes);
    const JournalContents full = CheckpointJournal::load(file.path());

    for (std::size_t offset = kHeaderSize; offset < bytes.size();
         ++offset) {
        SCOPED_TRACE("flip at byte " + std::to_string(offset));
        std::string damaged = bytes;
        damaged[offset] = static_cast<char>(damaged[offset] ^ 0x01);
        writeFile(flipped.path(), damaged);
        const JournalContents loaded =
            CheckpointJournal::load(flipped.path());
        // The damaged record and everything after it are dropped.
        const std::size_t kept = recordsWithin(ends, offset);
        ASSERT_EQ(loaded.records.size(), kept);
        EXPECT_EQ(loaded.droppedBytes,
                  bytes.size() -
                      (kept == 0 ? kHeaderSize : ends[kept - 1]));
        for (std::size_t i = 0; i < kept; ++i)
            expectSameRecord(loaded.records[i], full.records[i]);
    }
}

/**
 * Child-process body: start a journal at @p path under a file-size
 * limit of @p limit bytes (SIGXFSZ ignored, so writes past it fail
 * with EFBIG) and append until a write fails, then once more.  Exits
 * with the number of appends that succeeded.
 */
[[noreturn]] void
appendPastFileSizeLimit(const std::string &path, rlim_t limit)
{
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit fsize{limit, limit};
    if (::setrlimit(RLIMIT_FSIZE, &fsize) != 0)
        std::_Exit(100);
    CheckpointJournal journal;
    journal.start(path, {8, 21});
    int appended = 0;
    try {
        for (std::size_t i = 0; i < 8; ++i) {
            journal.append(okRecord(i, static_cast<double>(i)));
            ++appended;
        }
    } catch (const JournalError &) {
    }
    // Retrying after the failure must not leave a torn record
    // behind either.
    try {
        journal.append(okRecord(7, 7.0));
    } catch (const JournalError &) {
    }
    std::_Exit(appended);
}

TEST(CheckpointJournalDeathTest, FailedWriteIsCutBackToARecordEnd)
{
    ScratchFile file("fsize.bin");
    std::size_t frame = 0;
    {
        ScratchFile probe("fsize_probe.bin");
        CheckpointJournal journal;
        journal.start(probe.path(), {1, 1});
        journal.append(okRecord(0, 0.0));
        frame = readFile(probe.path()).size() - kHeaderSize;
    }

    // The child may grow the journal to two and a half records: the
    // third append is a short write, then EFBIG.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(appendPastFileSizeLimit(file.path(),
                                        kHeaderSize + 2 * frame +
                                            frame / 2),
                ::testing::ExitedWithCode(2), "");

    const JournalContents loaded =
        CheckpointJournal::load(file.path());
    EXPECT_EQ(loaded.droppedBytes, 0u);
    EXPECT_EQ(readFile(file.path()).size(), kHeaderSize + 2 * frame);
    ASSERT_EQ(loaded.records.size(), 2u);
    for (std::size_t i = 0; i < loaded.records.size(); ++i) {
        EXPECT_EQ(loaded.records[i].index, i);
        expectIdentical(loaded.records[i].result,
                        makeResult(static_cast<double>(i)));
    }
}

TEST(SweepEngine, KillAndResumeBitIdenticalToSerialRun)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const std::vector<SweepJob> jobs = smallGrid(cpu);
    ScratchFile file("resume.bin");

    // Uninterrupted serial reference.
    runtime::Session ref_session({.jobs = 1});
    SweepEngine reference(ref_session);
    const std::vector<DomainResult> expected = reference.run(jobs);

    // First run: interrupted after two completed cells (the
    // cooperative-stop path SIGINT uses in suit_sweep).
    runtime::Session first_session({.jobs = 1});
    runtime::RunContext first_ctx;
    first_ctx.checkpoint.path = file.path();
    std::atomic<int> completed{0};
    RunPolicy first;
    first.onCellDone = [&](std::size_t) {
        if (completed.fetch_add(1) + 1 >= 2)
            first_ctx.token().cancel();
    };
    SweepEngine interrupted_engine(first_session);
    const SweepOutcome partial =
        interrupted_engine.run(jobs, first_ctx, first);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_EQ(partial.executed, 2u);
    EXPECT_EQ(partial.skipped, 2u);

    // Resume on a fresh session with a different worker count: only
    // the missing cells run, and every slot matches the serial
    // reference bit for bit.
    runtime::Session resumed_session({.jobs = 4});
    runtime::RunContext second_ctx;
    second_ctx.checkpoint.path = file.path();
    second_ctx.checkpoint.resume = true;
    SweepEngine resumed_engine(resumed_session);
    const SweepOutcome full = resumed_engine.run(jobs, second_ctx);
    EXPECT_TRUE(full.complete());
    EXPECT_EQ(full.restored, 2u);
    EXPECT_EQ(full.executed, 2u);
    ASSERT_EQ(full.results.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(full.done[i]);
        expectIdentical(full.results[i], expected[i]);
    }

    // A second resume restores everything and runs nothing.
    runtime::Session idle_session({.jobs = 2});
    runtime::RunContext idle_ctx;
    idle_ctx.checkpoint.path = file.path();
    idle_ctx.checkpoint.resume = true;
    SweepEngine idle_engine(idle_session);
    const SweepOutcome idle = idle_engine.run(jobs, idle_ctx);
    EXPECT_EQ(idle.restored, expected.size());
    EXPECT_EQ(idle.executed, 0u);
    for (std::size_t i = 0; i < expected.size(); ++i)
        expectIdentical(idle.results[i], expected[i]);
}

TEST(SweepEngine, ResumeAtEveryRecordBoundaryBitIdenticalToSerialRun)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const std::vector<SweepJob> jobs = smallGrid(cpu);
    ScratchFile file("every_byte_resume.bin");

    // One session for every run: its trace cache keeps the resumes
    // cheap without touching their results.
    runtime::Session session({.jobs = 2});
    runtime::Session serial({.jobs = 1});
    const std::vector<DomainResult> expected =
        SweepEngine(serial).run(jobs);
    runtime::RunContext first;
    first.checkpoint.path = file.path();
    ASSERT_TRUE(SweepEngine(serial).run(jobs, first).complete());
    const std::string bytes = readFile(file.path());
    const std::vector<std::size_t> ends = recordEnds(bytes);
    ASSERT_EQ(ends.size(), jobs.size());

    // A kill can leave the journal cut anywhere past its header: at
    // a record boundary or inside a record.
    for (std::size_t offset = kHeaderSize; offset <= bytes.size();
         ++offset) {
        SCOPED_TRACE("resume from byte " + std::to_string(offset));
        writeFile(file.path(), bytes.substr(0, offset));
        runtime::RunContext ctx;
        ctx.checkpoint.path = file.path();
        ctx.checkpoint.resume = true;
        const SweepOutcome out = SweepEngine(session).run(jobs, ctx);
        EXPECT_TRUE(out.complete());
        EXPECT_EQ(out.restored, recordsWithin(ends, offset));
        ASSERT_EQ(out.results.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i)
            expectIdentical(out.results[i], expected[i]);
    }
}

TEST(SweepEngine, ResumeRefusesMismatchedFingerprint)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    std::vector<SweepJob> jobs = smallGrid(cpu);
    ScratchFile file("mismatch.bin");

    runtime::Session session({.jobs = 1});
    runtime::RunContext checkpointed;
    checkpointed.checkpoint.path = file.path();
    SweepEngine engine(session);
    engine.run(jobs, checkpointed);

    // Same cell count, different offset axis: a different grid.
    std::vector<SweepJob> other = jobs;
    for (SweepJob &job : other)
        job.config.offsetMv = -70.0;
    runtime::RunContext resume;
    resume.checkpoint.path = file.path();
    resume.checkpoint.resume = true;
    SweepEngine resumed(session);
    EXPECT_THROW(resumed.run(other, resume), JournalError);

    // The unmodified grid still resumes.
    runtime::RunContext resume2;
    resume2.checkpoint.path = file.path();
    resume2.checkpoint.resume = true;
    const SweepOutcome ok = resumed.run(jobs, resume2);
    EXPECT_EQ(ok.restored, jobs.size());
}

TEST(SweepEngine, ResumeWithoutPathIsAnError)
{
    runtime::Session session({.jobs = 1});
    SweepEngine engine(session);
    runtime::RunContext ctx;
    ctx.checkpoint.resume = true;
    EXPECT_THROW(engine.runCells(
                     1, [](std::size_t) { return DomainResult{}; },
                     ctx, {}, {1, 1}),
                 JournalError);
}

TEST(SweepEngine, FailedCellIsRecordedNotFatal)
{
    ScratchFile file("failed.bin");
    runtime::Session session({.jobs = 1});
    SweepEngine engine(session);
    runtime::RunContext ctx;
    ctx.checkpoint.path = file.path();
    const SweepOutcome out = engine.runCells(
        3,
        [&](std::size_t i) -> DomainResult {
            if (i == 1)
                throw std::runtime_error("cell 1 is cursed");
            return makeResult(static_cast<double>(i));
        },
        ctx, {}, {3, 1});

    EXPECT_EQ(out.executed, 2u);
    ASSERT_EQ(out.failures.size(), 1u);
    EXPECT_EQ(out.failures[0].index, 1u);
    EXPECT_EQ(out.failures[0].error, "cell 1 is cursed");
    EXPECT_FALSE(out.done[1]);
    EXPECT_TRUE(out.done[0]);
    EXPECT_TRUE(out.done[2]);

    // The journal records the failure...
    const JournalContents loaded =
        CheckpointJournal::load(file.path());
    ASSERT_EQ(loaded.records.size(), 3u);

    // ...and a resume re-attempts exactly the failed cell.
    runtime::RunContext resume;
    resume.checkpoint.path = file.path();
    resume.checkpoint.resume = true;
    const SweepOutcome healed = engine.runCells(
        3,
        [&](std::size_t i) { return makeResult(10.0 + i); },
        resume, {}, {3, 1});
    EXPECT_TRUE(healed.complete());
    EXPECT_EQ(healed.restored, 2u);
    EXPECT_EQ(healed.executed, 1u);
    expectIdentical(healed.results[0], makeResult(0.0));
    expectIdentical(healed.results[1], makeResult(11.0));
}

TEST(SweepEngine, StrictModeRethrowsLowestIndex)
{
    runtime::Session session({.jobs = 4});
    SweepEngine engine(session);
    runtime::RunContext ctx;
    RunPolicy policy;
    policy.strict = true;
    try {
        engine.runCells(
            16,
            [](std::size_t i) -> DomainResult {
                if (i % 5 == 3)
                    throw std::runtime_error(
                        "index " + std::to_string(i));
                return makeResult(static_cast<double>(i));
            },
            ctx, policy, {16, 1});
        FAIL() << "strict run swallowed the cell exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "index 3");
    }
}

TEST(SweepEngine, PreTrippedTokenSkipsEverything)
{
    ScratchFile file("stopped.bin");
    runtime::Session session({.jobs = 2});
    runtime::RunContext ctx;
    ctx.checkpoint.path = file.path();
    ctx.token().cancel();
    SweepEngine engine(session);
    const SweepOutcome out = engine.runCells(
        8, [](std::size_t i) { return makeResult(double(i)); },
        ctx, {}, {8, 1});
    EXPECT_TRUE(out.interrupted);
    EXPECT_EQ(out.executed, 0u);
    EXPECT_EQ(out.skipped, 8u);
    EXPECT_TRUE(
        CheckpointJournal::load(file.path()).records.empty());
}

TEST(FingerprintJobs, SensitiveToEveryAxis)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const std::vector<SweepJob> base = smallGrid(cpu);
    const GridFingerprint fp = exec::fingerprintJobs(base);
    EXPECT_EQ(fp.cells, base.size());
    EXPECT_EQ(exec::fingerprintJobs(base), fp); // pure

    std::vector<SweepJob> changed = base;
    changed[0].config.seed = 99;
    EXPECT_NE(exec::fingerprintJobs(changed).hash, fp.hash);
    changed = base;
    changed[0].config.offsetMv = -70.0;
    EXPECT_NE(exec::fingerprintJobs(changed).hash, fp.hash);
    changed = base;
    changed[0].config.cores = 4;
    EXPECT_NE(exec::fingerprintJobs(changed).hash, fp.hash);
    changed = base;
    changed.pop_back();
    EXPECT_NE(exec::fingerprintJobs(changed), fp);
}

} // namespace

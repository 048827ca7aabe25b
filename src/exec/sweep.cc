#include "exec/sweep.hh"

#include <algorithm>
#include <bit>
#include <exception>
#include <mutex>
#include <numeric>
#include <string_view>
#include <tuple>
#include <utility>

#include "obs/registry.hh"
#include "runtime/journaled.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace suit::exec {

using suit::sim::DomainResult;
using suit::sim::EvalConfig;
using suit::util::fnv1a64;

namespace {

std::string
describeException(const std::exception_ptr &err)
{
    try {
        std::rethrow_exception(err);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

/**
 * Trace-locality dispatch order of @p jobs, with its group starts.
 *
 * Cells sorted by the traces they read (profile, then seed, then
 * core count, so a k-core cell's streams 0..k-1 nest inside a larger
 * count's) run one trace group after the other: a group's traces are
 * generated once and stay resident while it runs, however many
 * groups the whole grid holds.  A group is one (profile, seed); the
 * pool cuts the order into one lane per worker at group starts, so
 * the worker that generates a group's traces also runs its cells.
 */
void
traceLocalOrder(const std::vector<SweepJob> &jobs,
                std::vector<std::size_t> &order,
                std::vector<std::size_t> &groups)
{
    const std::size_t n = jobs.size();
    std::vector<std::tuple<std::string_view, std::uint64_t, int>> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const SweepJob &job = jobs[i];
        SUIT_ASSERT(job.profile != nullptr,
                    "sweep job %zu ('%s') has no workload", i,
                    job.label.c_str());
        keys.emplace_back(job.profile->name, job.config.seed,
                          job.config.cores);
    }
    order.resize(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return keys[a] < keys[b];
                     });
    const auto group = [&](std::size_t k) {
        return std::pair(std::get<0>(keys[order[k]]),
                         std::get<1>(keys[order[k]]));
    };
    groups.clear();
    for (std::size_t k = 0; k < n; ++k)
        if (k == 0 || group(k) != group(k - 1))
            groups.push_back(k);
}

} // namespace

SweepEngine::SweepEngine(suit::runtime::Session &session)
    : session_(session)
{
}

SweepEngine::~SweepEngine() = default;

int
SweepEngine::jobs() const
{
    return session_.jobs();
}

std::vector<DomainResult>
SweepEngine::run(const std::vector<SweepJob> &jobs)
{
    suit::runtime::RunContext ctx;
    RunPolicy fail_fast;
    fail_fast.strict = true;
    return run(jobs, ctx, fail_fast).results;
}

SweepOutcome
SweepEngine::run(const std::vector<SweepJob> &jobs,
                 suit::runtime::RunContext &ctx,
                 const RunPolicy &policy)
{
    std::vector<std::size_t> order;
    std::vector<std::size_t> groups;
    traceLocalOrder(jobs, order, groups);
    const auto cell = [&](std::size_t i) {
        const SweepJob &job = jobs[i];
        EvalConfig config = job.config;
        config.cancel = &ctx.token();
        // Evaluate in the worker's session workspace (simulator and
        // scratch reused across cells); the copy out is the cell's
        // only steady-state allocation, and the journal/outcome need
        // an owning result anyway.
        return DomainResult(suit::sim::runWorkload(
            config, *job.profile, session_.traceCache(),
            session_.workspace()));
    };
    SweepOutcome outcome =
        runOrdered(jobs.size(), cell, ctx, policy, fingerprintJobs(jobs),
                   std::move(order), std::move(groups));
    for (CellFailure &failure : outcome.failures)
        failure.label = jobs[failure.index].label;
    return outcome;
}

SweepOutcome
SweepEngine::runCells(
    std::size_t n,
    const std::function<suit::sim::DomainResult(std::size_t)> &cell,
    suit::runtime::RunContext &ctx, const RunPolicy &policy,
    const GridFingerprint &fingerprint)
{
    return runOrdered(n, cell, ctx, policy, fingerprint, {}, {});
}

SweepOutcome
SweepEngine::runOrdered(
    std::size_t n,
    const std::function<suit::sim::DomainResult(std::size_t)> &cell,
    suit::runtime::RunContext &ctx, const RunPolicy &policy,
    const GridFingerprint &fingerprint, std::vector<std::size_t> order,
    std::vector<std::size_t> groups)
{
    static constexpr suit::runtime::JournaledNames kNames{
        "sweep.cell", "sweep", "cell", "grid", "sweep.cells"};

    SweepOutcome out;
    out.results.resize(n);
    out.done.assign(n, 0);
    std::mutex failures_mu;

    suit::runtime::JournaledUnits units;
    // Completed cells seed the results; failed records are dropped
    // so the resume re-attempts those cells.
    units.restore = [&](const CellRecord &record) {
        if (record.failed)
            return false;
        out.results[record.index] = record.result;
        out.done[record.index] = 1;
        return true;
    };
    units.run = [&](std::size_t i, suit::runtime::JournaledUnit &unit) {
        std::string what;
        try {
            out.results[i] = cell(i);
            out.done[i] = 1;
            if (unit.record)
                *unit.record = {i, false, "", out.results[i], false, ""};
            return true;
        } catch (const suit::runtime::Cancelled &) {
            throw; // skipped, never journaled
        } catch (...) {
            if (policy.strict)
                throw;
            what = describeException(std::current_exception());
        }
        {
            std::lock_guard lock(failures_mu);
            out.failures.push_back({i, "", what});
        }
        if (unit.record)
            *unit.record = {i, true, what, {}, false, ""};
        return false;
    };
    units.done = policy.onCellDone;
    units.order = std::move(order);
    units.groups = std::move(groups);

    const suit::runtime::JournaledCounts counts =
        suit::runtime::runJournaled(session_, ctx, n, fingerprint,
                                    kNames, units);
    out.executed = counts.executed;
    out.restored = counts.restored;
    out.skipped = counts.skipped;
    out.interrupted = counts.interrupted;
    std::sort(out.failures.begin(), out.failures.end(),
              [](const CellFailure &a, const CellFailure &b) {
                  return a.index < b.index;
              });

    obs::Registry &reg = obs::metrics();
    if (reg.enabled())
        reg.add(reg.counter("sweep.cells.failed"), out.failures.size());
    return out;
}

GridFingerprint
fingerprintJobs(const std::vector<SweepJob> &jobs,
                std::uint64_t modelVersion)
{
    std::uint64_t hash = fnv1a64(nullptr, 0);
    const auto mix_u64 = [&](std::uint64_t v) {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] =
                static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
        hash = fnv1a64(bytes, sizeof(bytes), hash);
    };
    const auto mix_double = [&](double d) {
        mix_u64(std::bit_cast<std::uint64_t>(d));
    };
    const auto mix_string = [&](const std::string &s) {
        mix_u64(s.size());
        hash = fnv1a64(s.data(), s.size(), hash);
    };

    mix_u64(modelVersion);
    for (const SweepJob &job : jobs) {
        const EvalConfig &cfg = job.config;
        mix_string(job.label);
        mix_string(cfg.cpu != nullptr ? cfg.cpu->name() : "");
        mix_string(cfg.cpu != nullptr ? cfg.cpu->label() : "");
        mix_u64(static_cast<std::uint64_t>(cfg.cores));
        mix_double(cfg.offsetMv);
        mix_u64(static_cast<std::uint64_t>(cfg.mode));
        mix_u64(static_cast<std::uint64_t>(cfg.strategy));
        mix_double(cfg.params.deadlineUs);
        mix_double(cfg.params.timeSpanUs);
        mix_u64(static_cast<std::uint64_t>(cfg.params.maxExceptionCount));
        mix_double(cfg.params.deadlineFactor);
        mix_u64(cfg.seed);
        mix_string(job.profile != nullptr ? job.profile->name : "");
    }
    return {jobs.size(), hash};
}

std::uint64_t
deriveSeed(std::uint64_t root, std::uint64_t index)
{
    // Golden-ratio mixing plus one splitmix-seeded draw decorrelates
    // (root, index) pairs in O(1), without advancing a shared
    // generator in grid order.
    suit::util::Rng rng(root ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
    return rng.next();
}

} // namespace suit::exec

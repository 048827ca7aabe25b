#include "runtime/journaled.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <iterator>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.hh"
#include "obs/registry.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace suit::runtime {

using suit::exec::CellRecord;
using suit::exec::CheckpointJournal;
using suit::exec::JournalError;

namespace {

/**
 * The pool side of the dispatch order: lanes of positions, each a
 * contiguous range [front, back) of the order, claimed one position
 * at a time under one mutex.  Worker w owns lane w % lanes, so with
 * a single lane every worker claims from one shared front.
 */
class LaneDispatch
{
  public:
    LaneDispatch(std::size_t n, const std::vector<std::size_t> &groups,
                 std::size_t lanes)
        : groups_(groups)
    {
        const std::vector<std::size_t> starts =
            cutLanes(n, groups, lanes);
        for (std::size_t l = 0; l < lanes; ++l)
            lanes_.push_back(
                {starts[l], l + 1 < lanes ? starts[l + 1] : n});
    }

    /**
     * The next position for pool worker @p worker: the front of its
     * own lane, refilled first from the back of the fullest lane
     * when it ran dry.  Only called while some lane holds a
     * position.
     */
    std::size_t claim(int worker)
    {
        SUIT_ASSERT(worker >= 0, "lane claim off the pool");
        std::lock_guard lock(mu_);
        Lane &own =
            lanes_[static_cast<std::size_t>(worker) % lanes_.size()];
        if (own.front == own.back) {
            Lane &victim = *std::max_element(
                lanes_.begin(), lanes_.end(),
                [](const Lane &a, const Lane &b) {
                    return a.back - a.front < b.back - b.front;
                });
            SUIT_ASSERT(victim.front < victim.back,
                        "lane claim with every lane empty");
            // The victim's owner works at its front, so a group that
            // starts behind the front is whole and untouched.
            std::size_t cut = victim.back - 1;
            if (!groups_.empty()) {
                const auto it = std::lower_bound(
                    groups_.begin(), groups_.end(), victim.back);
                if (it != groups_.begin() &&
                    *std::prev(it) > victim.front)
                    cut = *std::prev(it);
            }
            own = {cut, victim.back};
            victim.back = cut;
        }
        return own.front++;
    }

  private:
    struct Lane
    {
        std::size_t front;
        std::size_t back;
    };

    const std::vector<std::size_t> &groups_;
    std::mutex mu_;
    std::vector<Lane> lanes_;
};

} // namespace

std::vector<std::size_t>
cutLanes(std::size_t n, const std::vector<std::size_t> &groups,
         std::size_t lanes)
{
    std::vector<std::size_t> starts(lanes, 0);
    for (std::size_t l = 1; l < lanes && n > 0; ++l) {
        // Scaled by `lanes`, the ideal start is `target`; lo and hi
        // are the group starts (or n) around it.
        const std::size_t target = l * n;
        const std::size_t up = (target + lanes - 1) / lanes;
        std::size_t lo = target / lanes;
        std::size_t hi = up;
        if (!groups.empty()) {
            const auto it =
                std::lower_bound(groups.begin(), groups.end(), up);
            hi = it == groups.end() ? n : *it;
            lo = it == groups.begin() ? hi : *std::prev(it);
        }
        starts[l] =
            target - std::min(lo * lanes, target) <= hi * lanes - target
                ? lo
                : hi;
    }
    return starts;
}

JournaledCounts
runJournaled(Session &session, RunContext &ctx, std::size_t n,
             const suit::exec::GridFingerprint &fingerprint,
             const JournaledNames &names, const JournaledUnits &units)
{
    const CheckpointPolicy &ckpt = ctx.checkpoint;
    if (ckpt.resume && ckpt.path.empty())
        throw JournalError("resume requires a checkpoint path");

    SUIT_ASSERT(units.order.empty() || units.order.size() == n,
                "dispatch order covers %zu of %zu %ss",
                units.order.size(), n, names.unit);
    SUIT_ASSERT(units.groups.empty() ||
                    (units.groups.front() == 0 &&
                     units.groups.back() < n &&
                     std::adjacent_find(units.groups.begin(),
                                        units.groups.end(),
                                        std::greater_equal<>()) ==
                         units.groups.end()),
                "group starts must ascend from 0 below %zu", n);

    JournaledCounts counts;
    std::vector<std::uint8_t> restored(n, 0);
    CheckpointJournal journal;
    if (!ckpt.path.empty()) {
        std::vector<CellRecord> seed;
        if (ckpt.resume) {
            suit::exec::JournalContents loaded =
                CheckpointJournal::load(ckpt.path);
            if (!(loaded.fingerprint == fingerprint))
                throw JournalError(suit::util::sformat(
                    "checkpoint '%s' belongs to a different %s "
                    "(journal: %llu %ss, fingerprint %016llx; this "
                    "run: %llu %ss, fingerprint %016llx) — refusing "
                    "to mix results",
                    ckpt.path.c_str(), names.campaign,
                    static_cast<unsigned long long>(
                        loaded.fingerprint.cells),
                    names.unit,
                    static_cast<unsigned long long>(
                        loaded.fingerprint.hash),
                    static_cast<unsigned long long>(fingerprint.cells),
                    names.unit,
                    static_cast<unsigned long long>(fingerprint.hash)));
            if (loaded.droppedBytes != 0)
                suit::util::warn(
                    "checkpoint '%s': dropped %zu trailing bytes of "
                    "a torn record; the affected %s will re-run",
                    ckpt.path.c_str(), loaded.droppedBytes,
                    names.unit);
            for (CellRecord &record : loaded.records) {
                if (record.index >= n || restored[record.index] ||
                    !units.restore(record))
                    continue;
                restored[record.index] = 1;
                ++counts.restored;
                seed.push_back(std::move(record));
            }
        }
        journal.start(ckpt.path, fingerprint, std::move(seed));
    }

    std::atomic<std::size_t> executed{0};
    std::atomic<std::size_t> skipped{0};
    const CancelToken &token = ctx.token();
    // The lowest-index unit exception so far.  A unit above it cannot
    // change which exception propagates, so it is not started; every
    // unit below it still runs.  That keeps the rethrown exception
    // independent of the dispatch order and the worker count.
    std::mutex error_mu;
    std::atomic<std::size_t> error_index{n};
    std::exception_ptr error;

    const auto runOne = [&](std::size_t i) {
        if (restored[i] ||
            i > error_index.load(std::memory_order_relaxed))
            return;
        if (token.cancelled()) {
            skipped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        CellRecord record;
        {
            suit::obs::Span span(names.span, names.category,
                                 units.spanMs);
            span.arg("index", static_cast<std::uint64_t>(i));
            JournaledUnit unit{journal.active() ? &record : nullptr,
                               span};
            bool completed = false;
            try {
                completed = units.run(i, unit);
            } catch (const Cancelled &) {
                skipped.fetch_add(1, std::memory_order_relaxed);
                return;
            } catch (...) {
                std::lock_guard lock(error_mu);
                if (i < error_index.load(std::memory_order_relaxed)) {
                    error_index.store(i, std::memory_order_relaxed);
                    error = std::current_exception();
                }
                return;
            }
            span.arg("ok", completed ? 1 : 0);
            if (unit.record)
                journal.append(record);
            if (completed)
                executed.fetch_add(1, std::memory_order_relaxed);
        }
        if (units.done)
            units.done(i);
    };

    const auto dispatch = [&](std::size_t k) {
        runOne(units.order.empty() ? k : units.order[k]);
    };
    if (suit::exec::ThreadPool *pool = session.pool()) {
        // Each of the batch's n jobs claims one position, so a claim
        // always finds one.
        LaneDispatch lanes(n, units.groups,
                           units.order.empty()
                               ? 1
                               : static_cast<std::size_t>(
                                     pool->workers()));
        pool->parallelFor(n, [&](std::size_t) {
            dispatch(lanes.claim(
                suit::exec::ThreadPool::currentWorkerIndex()));
        });
    } else {
        // The lanes back to back: the order itself.
        for (std::size_t k = 0; k < n; ++k)
            dispatch(k);
    }
    if (error)
        std::rethrow_exception(error);

    counts.executed = executed.load();
    counts.skipped = skipped.load();
    counts.interrupted = token.cancelled();

    suit::obs::Registry &reg = suit::obs::metrics();
    if (reg.enabled()) {
        const std::string prefix = names.counters;
        reg.add(reg.counter(prefix + ".executed"), counts.executed);
        reg.add(reg.counter(prefix + ".restored"), counts.restored);
        reg.add(reg.counter(prefix + ".skipped"), counts.skipped);
    }
    return counts;
}

} // namespace suit::runtime

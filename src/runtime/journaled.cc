#include "runtime/journaled.hh"

#include <atomic>
#include <exception>
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
        pool->parallelFor(n, dispatch);
    } else {
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

/**
 * @file
 * runJournaled: the one resume/cancel/journal loop behind every
 * journaled campaign — exec::SweepEngine's grid cells and
 * fleet::FleetEngine's domain shards.
 *
 * For n index-addressed units under a RunContext the loop
 *  1. on resume, loads the journal, refuses a fingerprint mismatch,
 *     warns about a dropped torn tail and re-seeds a fresh journal
 *     with the records the engine's restore callback accepted;
 *  2. runs the units on the Session's pool (inline when serial) in
 *     the engine's dispatch order, skipping restored units and, once
 *     the token tripped, counting the rest skipped; each started
 *     unit runs inside one obs::Span (flight stack, host trace
 *     track, optional histogram) that closes after the journal
 *     append and carries the unit's index, the engine's args and
 *     `ok` (the run callback's result; a unit that throws closes
 *     its span without one);
 *  3. counts a unit aborted mid-flight (runtime::Cancelled) skipped
 *     and never journals it, so a resume recomputes it whole; a
 *     settled unit is journaled, *then* the done callback runs on
 *     the same worker;
 *  4. rethrows the lowest-index unit exception, if any; otherwise
 *     publishes the executed/restored/skipped counters.  Every
 *     settled unit's record is durable by then: each append writes
 *     and fdatasyncs it (after a cancellation too).
 *
 * The dispatch order only decides which unit starts when: results
 * are index-addressed, journal records carry their index and land in
 * completion order anyway, and a resume skips restored units by
 * index, so no output depends on it.  The serial path walks the
 * order; the pool walks the same order cut into one lane per worker
 * (JournaledUnits::order), and every pool job claims its unit in one
 * short mutex-guarded step, so there is one dispatch path.
 *
 * What differs between the engines comes in as data (JournaledNames)
 * or callbacks (JournaledUnits); the loop has no engine branch.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "exec/checkpoint.hh"
#include "obs/flight.hh"
#include "runtime/run_context.hh"
#include "runtime/session.hh"

namespace suit::runtime {

/** How one engine names its units; every field a string literal. */
struct JournaledNames
{
    const char *span;     //!< unit span name ("sweep.cell")
    const char *category; //!< ... and category ("sweep")
    const char *unit;     //!< noun in messages ("cell")
    const char *campaign; //!< a foreign journal's ("grid")
    const char *counters; //!< `<counters>.executed` etc.
};

/** Outputs of one unit, filled by the engine's run callback. */
struct JournaledUnit
{
    /** The unit's journal record; null when no journal is bound. */
    suit::exec::CellRecord *record;
    /** The unit's span, for extra trace args. */
    suit::obs::Span &span;
};

/** The engine side of the loop. */
struct JournaledUnits
{
    /**
     * Adopt a journal record (index < n, first record per index);
     * false drops it and the unit re-runs.
     */
    std::function<bool(const suit::exec::CellRecord &)> restore;
    /**
     * Run unit i and fill @p unit.  Returns true when the unit
     * completed, false when it settled as failed (journaled, not
     * counted executed).  Throwing runtime::Cancelled marks it
     * skipped; any other exception propagates out of runJournaled
     * (lowest index first; a unit above the lowest failure so far
     * is not started).
     */
    std::function<bool(std::size_t, JournaledUnit &)> run;
    /** Optional: after a settled unit's journal append. */
    std::function<void(std::size_t)> done;
    /** Optional: obs::metrics() histogram of unit span times (ms). */
    suit::obs::MetricId spanMs;
    /**
     * Optional dispatch order: a permutation of [0, n), order[k]
     * being the k-th unit to start serially.  Empty means index
     * order, claimed by every pool worker from one shared front.
     * Given an order, the pool cuts it into one lane per worker
     * (see cutLanes()); each worker runs its own lane front to back,
     * and a worker whose lane ran dry steals from the back of the
     * fullest lane: its back-most group when one starts behind the
     * lane's front, else its last unit.
     */
    std::vector<std::size_t> order;
    /**
     * Ascending positions of `order` at which a group of units that
     * share expensive state (a sweep's (workload, seed) traces)
     * begins.  Lanes are cut, and groups stolen, only at these
     * positions.  Empty means every position starts a group.
     */
    std::vector<std::size_t> groups;
};

/** Accounting of one runJournaled() call. */
struct JournaledCounts
{
    std::size_t executed = 0; //!< units completed by this call
    std::size_t restored = 0; //!< units restored from the journal
    std::size_t skipped = 0;  //!< units the tripped token skipped
    bool interrupted = false; //!< the token ended the run early
};

/**
 * Start positions of @p lanes contiguous lanes over @p n dispatch
 * positions: lane l is [starts[l], starts[l + 1]), the last one ends
 * at n.  Lane l > 0 starts at the group start in @p groups (see
 * JournaledUnits::groups; empty: every position) nearest l*n/lanes,
 * the lower one on a tie, so no lane splits a group; a lane may be
 * empty.
 */
std::vector<std::size_t> cutLanes(std::size_t n,
                                  const std::vector<std::size_t> &groups,
                                  std::size_t lanes);

/**
 * Run @p n units of one campaign identified by @p fingerprint under
 * @p ctx on @p session; see the file comment.
 *
 * @throws exec::JournalError on resume without a path, an unusable
 *         journal, or a fingerprint mismatch.
 */
JournaledCounts runJournaled(Session &session, RunContext &ctx,
                             std::size_t n,
                             const suit::exec::GridFingerprint &fingerprint,
                             const JournaledNames &names,
                             const JournaledUnits &units);

} // namespace suit::runtime

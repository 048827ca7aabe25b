/**
 * @file
 * SweepEngine: deterministic parallel execution of experiment grids.
 *
 * Every headline experiment (Table 6, Table 7, Table 8, Fig. 16, the
 * ablations) is a Cartesian sweep of CPU x cores x strategy x offset
 * x workload cells, each cell an independent runWorkload() call.
 * SweepEngine executes such a job list across the borrowed
 * runtime::Session's ThreadPool and returns the results *in job
 * order*, so the output of a parallel sweep is bit-identical to
 * running the same list serially:
 *
 *  - every job is a pure function of its SweepJob (trace generation
 *    and simulation jitter derive only from EvalConfig::seed), so no
 *    job observes another job's scheduling;
 *  - results are written into index-addressed slots, never into a
 *    completion-ordered container;
 *  - the session's shared TraceCache is keyed by value, not by
 *    arrival order — whichever worker generates a trace first, every
 *    worker reads the same bytes (and an LRU-evicted trace
 *    regenerates to the same bytes, being a pure function of its
 *    key).
 *
 * Since no output depends on which cell starts when, run() starts
 * the cells in trace-key order rather than job order: grouped by the
 * traces they read, one contiguous lane of whole groups per worker,
 * so the worker that generates a group's traces runs its cells (an
 * idle worker steals from the back of the fullest lane, a whole
 * group when one is left behind its owner's).  A grid whose traces overflow the cache then still
 * generates each trace about once, as long as the groups the
 * workers run at once fit.
 *
 * A serial Session (jobs == 1, no pool) runs the jobs inline: the
 * serial reference path used by the determinism tests.  Per-run
 * state — cancellation, deadline, journal policy — arrives through a
 * runtime::RunContext, and the cells run through runtime::runJournaled
 * (the loop the fleet engine shares): a tripped token skips unstarted
 * cells and aborts in-flight cells mid-simulation (runtime::Cancelled),
 * which count as skipped, never as failed or journaled.
 */

#ifndef SUIT_EXEC_SWEEP_HH
#define SUIT_EXEC_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exec/checkpoint.hh"
#include "exec/thread_pool.hh"
#include "runtime/run_context.hh"
#include "runtime/session.hh"
#include "sim/evaluation.hh"
#include "sim/model_version.hh"
#include "sim/trace_cache.hh"

namespace suit::exec {

/** One cell of an experiment grid. */
struct SweepJob
{
    /** Free-form cell label (carried through to the results). */
    std::string label;
    /** Full evaluation configuration (CPU pointer not owned). */
    suit::sim::EvalConfig config;
    /** Workload to run (not owned; must outlive the sweep). */
    const suit::trace::WorkloadProfile *profile = nullptr;
};

/**
 * Failure policy of one run() invocation.  By default a throwing
 * cell is recorded as failed and the run goes on; checkpointing and
 * interruption live in runtime::RunContext (checkpoint policy +
 * cancel token).
 */
struct RunPolicy
{
    /**
     * Fail-fast: rethrow the lowest-index cell exception instead of
     * recording the cell as failed.
     */
    bool strict = false;
    /**
     * Called after each cell settles (completed or failed), with the
     * cell index.  Runs on worker threads; must be thread-safe.
     * Not called for skipped/cancelled cells.
     */
    std::function<void(std::size_t)> onCellDone;
};

/** One grid cell whose evaluation threw. */
struct CellFailure
{
    /** Cell index in the job list. */
    std::size_t index = 0;
    /** Cell label (empty for runCells()). */
    std::string label;
    /** what() of the cell's exception. */
    std::string error;
};

/** Outcome of a policy-driven run. */
struct SweepOutcome
{
    /** Index-addressed results; failed/skipped slots are default. */
    std::vector<suit::sim::DomainResult> results;
    /** 1 where results[i] holds a completed cell. */
    std::vector<std::uint8_t> done;
    /** Cells whose evaluation threw, sorted by index. */
    std::vector<CellFailure> failures;
    /** Cells executed by this invocation. */
    std::size_t executed = 0;
    /** Cells restored from the journal (resume only). */
    std::size_t restored = 0;
    /** Cells skipped or aborted because the token tripped. */
    std::size_t skipped = 0;
    /** True if the cancel token ended the run early. */
    bool interrupted = false;

    /** Every cell completed. */
    bool complete() const
    {
        return failures.empty() && skipped == 0;
    }
};

/** Executes SweepJob lists with deterministic result order. */
class SweepEngine
{
  public:
    /** Borrow @p session's pool and trace cache (must outlive us). */
    explicit SweepEngine(suit::runtime::Session &session);
    ~SweepEngine();

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    /**
     * Run every job and return results in job order.  Bit-identical
     * for any worker count.  Exceptions out of a job propagate
     * (lowest job index first).  Uses a throwaway RunContext: no
     * journal, no cancellation.
     */
    std::vector<suit::sim::DomainResult>
    run(const std::vector<SweepJob> &jobs);

    /**
     * Run every job under @p ctx (journal policy + cancellation) and
     * @p policy (strictness, done callback): optional checkpoint
     * journal, resume and graceful failure recording.
     * Completed slots are bit-identical to a serial fail-fast run for
     * any worker count and any number of prior interruptions.  Cells
     * start in trace-key order (see the file comment), so which
     * cells a cancellation leaves unstarted is not a job-index
     * prefix.
     *
     * @throws JournalError on an unusable or mismatching journal;
     *         rethrows cell exceptions only when policy.strict.
     */
    SweepOutcome run(const std::vector<SweepJob> &jobs,
                     suit::runtime::RunContext &ctx,
                     const RunPolicy &policy = {});

    /**
     * Policy-driven execution of @p n abstract cells (the core of
     * run(jobs, ctx, policy), exposed for tests and non-SweepJob
     * grids).  @p fingerprint identifies the grid in the journal.
     */
    SweepOutcome
    runCells(std::size_t n,
             const std::function<suit::sim::DomainResult(std::size_t)>
                 &cell,
             suit::runtime::RunContext &ctx,
             const RunPolicy &policy,
             const GridFingerprint &fingerprint);

    /** Effective worker count (1 when running serially). */
    int jobs() const;

    /** The borrowed session. */
    suit::runtime::Session &session() { return session_; }

    /**
     * The session's trace cache, shared by all jobs of all run()
     * calls.  run()'s trace-key dispatch order keeps a (workload,
     * seed) group's cells together, so Table 6's strategy x offset
     * cells of one workload reuse its traces; a grid generates each
     * trace once when the groups the workers hold at once fit the
     * cap.  runCells(), which keeps index order, can evict and
     * regenerate a trace (to the same bytes).
     */
    suit::sim::TraceCache &traceCache()
    {
        return session_.traceCache();
    }

    /** Per-worker counters (empty in serial mode). */
    std::vector<WorkerStats> workerStats() const
    {
        return session_.workerStats();
    }

    /** Worker counter footer table / serial notice. */
    std::string workerFooter() const
    {
        return session_.workerFooter();
    }

  private:
    /** runCells() starting the cells in @p order, cut into lanes at
     *  @p groups (empty: index order; see runtime::JournaledUnits). */
    SweepOutcome
    runOrdered(std::size_t n,
               const std::function<suit::sim::DomainResult(std::size_t)>
                   &cell,
               suit::runtime::RunContext &ctx, const RunPolicy &policy,
               const GridFingerprint &fingerprint,
               std::vector<std::size_t> order,
               std::vector<std::size_t> groups);

    suit::runtime::Session &session_;
};

/**
 * Fingerprint of a job list: an order-sensitive hash over the
 * simulation model version and every cell's CPU, core count,
 * strategy kind + parameters, offset, run mode, seed, workload and
 * label.  Two grids resume-compatibly iff their fingerprints match.
 * @p modelVersion is a parameter only so tests can vary it.
 */
GridFingerprint
fingerprintJobs(const std::vector<SweepJob> &jobs,
                std::uint64_t modelVersion = suit::sim::kModelVersion);

/**
 * Derive the seed of grid cell @p index from @p root.
 *
 * Used by grid-enumerating frontends (suit_sweep) so that every cell
 * gets a decorrelated stream while remaining a pure function of
 * (root, index) — independent of worker count and scheduling.
 */
std::uint64_t deriveSeed(std::uint64_t root, std::uint64_t index);

} // namespace suit::exec

#endif // SUIT_EXEC_SWEEP_HH

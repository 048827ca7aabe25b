/**
 * @file
 * FleetEngine: one process simulating up to a million SUIT domains.
 *
 * The engine shards the fleet's global domain index space into
 * fixed-size contiguous blocks and runs the shards across the
 * borrowed runtime::Session's ThreadPool.  Each shard expands its
 * domain configurations into a contiguous block (reused per worker —
 * no per-domain heap churn in the expansion), simulates every domain
 * through the session's shared TraceCache, and streams the
 * DomainResults into one per-shard FleetAccumulator — per-domain
 * results are never stored, so memory scales with shards, not
 * domains.
 *
 * Inside a shard the domains run in stable trace-key order
 * (rack, workload, variant) — the key that fixes a domain's profile,
 * trace seed and stream count.  Racks are contiguous index ranges, so
 * a shard spans one rack or a few and holds at most their workloads x
 * variants keys: the shard fetches each key's traces from the cache
 * once and reuses the pins for the key's whole run of domains,
 * instead of one locked lookup per domain.
 *
 * Determinism contract, mirroring exec::SweepEngine:
 *  - every domain is a pure function of (spec, global index)
 *    (FleetSpec::domainAt), so no domain observes scheduling;
 *  - shard accumulators live in index-addressed slots and merge in
 *    shard order;
 *  - every floating-point total is a util::ExactSum, so the merged
 *    aggregate is bit-identical to a serial run for any worker count,
 *    any shard size and any order inside a shard (exact sums are
 *    associative and commutative).
 *
 * Checkpointing reuses the exec journal: each finished shard appends
 * one blob record (CellRecord status 2) carrying its serialized
 * accumulator, fingerprinted by (spec fingerprint, shard size).  A
 * killed run resumes by restoring finished shards bit-for-bit and
 * running only the rest — the final aggregate is identical to an
 * uninterrupted run.  The journal path/resume flag and cancellation
 * (SIGINT link, wall-clock deadline) arrive through the same
 * runtime::RunContext the sweep engine uses, and the shards run
 * through the same loop, runtime::runJournaled: a shard aborted
 * mid-flight by the token is accounted as skipped, never journaled.
 */

#ifndef SUIT_FLEET_ENGINE_HH
#define SUIT_FLEET_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/params.hh"
#include "fleet/accumulator.hh"
#include "fleet/spec.hh"
#include "power/cpu_model.hh"
#include "runtime/run_context.hh"
#include "runtime/session.hh"
#include "sim/trace_cache.hh"
#include "trace/profile.hh"

namespace suit::fleet {

/** One run's execution policy. */
struct FleetOptions
{
    /** Domains per shard; 0 selects the default (4096). */
    std::uint64_t shardSize = 0;
    /**
     * Called after each shard completes, with the shard index.  Runs
     * on worker threads; must be thread-safe.  Not called for
     * skipped/cancelled shards.
     */
    std::function<void(std::uint64_t)> onShardDone;
};

/** Outcome of one FleetEngine::run(). */
struct FleetOutcome
{
    /** Whole-fleet aggregates (shards merged in shard order). */
    FleetAccumulator totals;
    /** Total shards of the fleet. */
    std::uint64_t shards = 0;
    /** Shards executed by this invocation. */
    std::uint64_t shardsRun = 0;
    /** Shards restored from the journal (resume only). */
    std::uint64_t shardsRestored = 0;
    /** Shards skipped or aborted because the token tripped. */
    std::uint64_t shardsSkipped = 0;
    /** True if the cancel token ended the run early. */
    bool interrupted = false;

    /** Every shard accumulated (run or restored). */
    bool complete() const { return shardsSkipped == 0; }
};

/** Simulates a FleetSpec; see the file comment. */
class FleetEngine
{
  public:
    /** Default shard size (domains per checkpointable unit). */
    static constexpr std::uint64_t kDefaultShardSize = 4096;

    /**
     * Resolve @p spec: instantiate the racks' CPU models, their
     * Table-7 strategy parameters and the trace-scaled workload
     * profiles.  @p spec is copied; the engine borrows @p session's
     * pool and trace cache (the session must outlive the engine).
     */
    FleetEngine(suit::runtime::Session &session, FleetSpec spec);

    FleetEngine(const FleetEngine &) = delete;
    FleetEngine &operator=(const FleetEngine &) = delete;

    /**
     * Simulate the whole fleet under @p ctx (journal policy +
     * cancellation) and @p options.  The returned aggregates are
     * bit-identical for any session worker count / shardSize
     * combination and across kill-and-resume cycles.
     *
     * @throws exec::JournalError on an unusable or mismatching
     *         journal.
     */
    FleetOutcome run(suit::runtime::RunContext &ctx,
                     const FleetOptions &options = {});

    /** As above with a throwaway context (no journal, no cancel). */
    FleetOutcome run(const FleetOptions &options = {});

    /** The resolved spec (after any scaling the caller did). */
    const FleetSpec &spec() const { return spec_; }

    /** The borrowed session. */
    suit::runtime::Session &session() { return session_; }

    /**
     * Baseline (conservative-curve) package power attributed to one
     * domain of rack @p rack: the whole package for a shared-domain
     * CPU, one core's share for per-core-domain CPUs.
     */
    double domainBasePowerW(std::size_t rack) const;

    /**
     * The session's trace cache, shared by every shard of every
     * run(): all domains of a (workload, variant) stream read the
     * same generated trace.
     */
    suit::sim::TraceCache &traceCache()
    {
        return session_.traceCache();
    }

    /** Journal identity of this fleet at @p shard_size domains. */
    std::uint64_t journalFingerprint(std::uint64_t shard_size) const;

  private:
    /** Per-rack resolved state (see the constructor). */
    struct ResolvedRack
    {
        const suit::power::CpuModel *cpu = nullptr;
        suit::core::StrategyParams params;
        /** Trace-scaled copies of the rack's workload profiles. */
        std::vector<suit::trace::WorkloadProfile> profiles;
        /** Streams per domain (shared-domain CPUs: cores). */
        int streams = 1;
        /** Baseline package power per domain (W). */
        double basePowerW = 0.0;
    };

    /**
     * Simulate one shard's expanded domains @p block into @p acc, in
     * trace-key order with one cache fetch per key run.
     */
    void simulateBlock(const std::vector<DomainConfig> &block,
                       FleetAccumulator &acc,
                       const suit::runtime::CancelToken *cancel);

    suit::runtime::Session &session_;
    FleetSpec spec_;
    std::vector<std::unique_ptr<suit::power::CpuModel>> cpus_;
    std::vector<ResolvedRack> racks_;
};

} // namespace suit::fleet

#endif // SUIT_FLEET_ENGINE_HH

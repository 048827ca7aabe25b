/**
 * @file
 * Experiment runner on top of the domain simulator.
 *
 * Turns (CPU, workload, configuration) into the rows of the paper's
 * Table 6 and Fig. 16: generates the synthetic traces, lays them out
 * over DVFS domains according to the CPU's topology (CPU A: all
 * utilised cores in one shared domain; CPUs B and C: per-core
 * domains) and aggregates suite-level geomean / median deltas.
 */

#ifndef SUIT_SIM_EVALUATION_HH
#define SUIT_SIM_EVALUATION_HH

#include <string>
#include <vector>

#include "sim/domain_sim.hh"
#include "sim/trace_cache.hh"
#include "sim/workspace.hh"

namespace suit::sim {

/** One evaluated configuration. */
struct EvalConfig
{
    /** Machine model (not owned). */
    const suit::power::CpuModel *cpu = nullptr;
    /** Utilised cores (subscript in the paper: A1, A4). */
    int cores = 1;
    /** Undervolt offset of the efficient curve (negative mV). */
    double offsetMv = -97.0;
    /** Operating mode. */
    RunMode mode = RunMode::Suit;
    /** Strategy for RunMode::Suit. */
    suit::core::StrategyKind strategy =
        suit::core::StrategyKind::CombinedFv;
    /** Strategy parameters; Table 7 defaults via optimalParams(). */
    suit::core::StrategyParams params;
    /** Root seed for trace generation and delay jitter. */
    std::uint64_t seed = 1;
    /**
     * Run the simulator's pre-optimization reference event loop
     * (SimConfig::referencePath); for golden-identity tests and
     * speedup benchmarks only.  Deliberately not part of the sweep
     * fingerprint — both paths produce bit-identical results.
     */
    bool referencePath = false;
    /**
     * Cooperative cancellation token polled by the simulator's event
     * loop (runtime::Cancelled is thrown mid-run when it trips).
     * Like referencePath, deliberately not part of the sweep
     * fingerprint — cancellation never changes a completed result.
     */
    const suit::runtime::CancelToken *cancel = nullptr;
};

/** Result of one workload under one configuration. */
struct WorkloadRow
{
    /** Workload name. */
    std::string workload;
    /** Simulation outcome (multi-domain results merged). */
    DomainResult result;
};

/**
 * Run @p profile under @p config.
 *
 * On a shared-domain CPU all utilised cores execute independent
 * streams of the workload inside one domain; on per-core-domain CPUs
 * the result is core-count independent and a single domain is run.
 *
 * Trace generation is memoised in @p traces (thread-safe); the
 * two-argument overload uses the process-wide globalTraceCache().
 * Evaluates through a fresh SimWorkspace and returns a copy of its
 * result; @p config.cores must not exceed TraceCache::kMaxStreams
 * on a shared-domain CPU.
 * runWorkload itself is a pure function of (config, profile) — safe
 * to call from multiple threads, which is what the suit::exec sweep
 * engine does.
 */
DomainResult runWorkload(const EvalConfig &config,
                         const suit::trace::WorkloadProfile &profile,
                         TraceCache &traces);

/** As above, memoising traces in the process-wide cache. */
DomainResult runWorkload(const EvalConfig &config,
                         const suit::trace::WorkloadProfile &profile);

/**
 * Allocation-free variant: evaluates into @p ws, reusing its
 * simulator, pin/work vectors and result scratch.  Returns a
 * reference to ws.result, valid until the workspace's next use.
 * The allocating overloads are this one on a fresh workspace; reuse
 * only rebinds buffers, so a warmed workspace is bit-identical to a
 * fresh one (the golden suite compares the serialized bytes).
 */
const DomainResult &
runWorkload(const EvalConfig &config,
            const suit::trace::WorkloadProfile &profile,
            TraceCache &traces, SimWorkspace &ws);

/** Run every profile in @p profiles (serial reference path). */
std::vector<WorkloadRow>
runSuite(const EvalConfig &config,
         const std::vector<suit::trace::WorkloadProfile> &profiles);

/** Geometric-mean of deltas: geomean(1 + d_i) - 1. */
double gmeanDelta(const std::vector<double> &deltas);

/** Median of deltas. */
double medianDelta(std::vector<double> deltas);

/** Suite-level aggregation of a set of rows. */
struct SuiteSummary
{
    double gmeanPerf = 0.0;
    double gmeanPower = 0.0;
    double gmeanEff = 0.0;
    double medianPerf = 0.0;
    double medianPower = 0.0;
    double medianEff = 0.0;
    double meanEfficientShare = 0.0;

    /** Aggregate a set of workload rows. */
    static SuiteSummary of(const std::vector<WorkloadRow> &rows);
};

} // namespace suit::sim

#endif // SUIT_SIM_EVALUATION_HH

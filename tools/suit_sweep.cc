/**
 * @file
 * suit_sweep — run a user-specified Cartesian configuration grid on
 * the suit::exec SweepEngine and emit one CSV row per cell.
 *
 * The grid is cpu x cores x strategy x offset x workload x rep; each
 * axis takes a comma-separated list.  Repetition r > 0 of cell i
 * draws its seed from exec::deriveSeed(root, cell index), so
 * re-running the same grid with the same --seed is bit-identical for
 * any --jobs value.
 *
 * Long campaigns are crash-safe: with --checkpoint every finished
 * cell is appended to a journal on disk (one O_APPEND write plus
 * fdatasync per cell; a kill can leave at most a torn last record,
 * which --resume drops and re-runs), and --resume re-runs only the
 * cells the journal does not cover — the final CSV is byte-identical
 * to an uninterrupted run.  Ctrl-C requests a graceful stop:
 * in-flight cells finish and are journaled, the rest are skipped,
 * and the exit code is 130 (a second Ctrl-C kills immediately; the
 * journal stays valid).  --deadline-s arms a wall-clock budget with
 * the same graceful-stop semantics, and --trace-cache-mb bounds the
 * session's trace cache (LRU eviction; evicted traces regenerate
 * bit-identically).  A throwing cell is recorded as failed instead
 * of aborting the sweep: it is listed on stderr, the exit code is 2,
 * and the next --resume re-attempts it.
 *
 * Examples:
 *   suit_sweep                               # CPU C, fV, SPEC suite
 *   suit_sweep --cpu A,B,C --strategy e,fV --offset -70,-97 \
 *              --workload spec --jobs 8 --out sweep.csv
 *   suit_sweep --cpu A --cores 1,2,4 --workload Nginx,VLC --reps 5
 *   suit_sweep --workload all --checkpoint sweep.ckpt --out s.csv
 *   suit_sweep --workload all --checkpoint sweep.ckpt --resume \
 *              --out s.csv                   # after an interruption
 */

#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "core/params.hh"
#include "core/strategy.hh"
#include "exec/sweep.hh"
#include "obs/registry.hh"
#include "obs/setup.hh"
#include "power/cpu_model.hh"
#include "runtime/cli_run.hh"
#include "sim/evaluation.hh"
#include "sim/trace_cache.hh"
#include "trace/profile.hh"
#include "util/args.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace {

using namespace suit;
using exec::SweepEngine;
using exec::SweepJob;

/** Checked parse of one --cores list item (1..kMaxStreams). */
int
coreCountByName(const std::string &value)
{
    long cores = 0;
    if (util::tryParseLong(value, cores) != util::ParseStatus::Ok)
        util::fatal("--cores expects positive integers, got '%s'",
                    value.c_str());
    if (cores < 1)
        util::fatal("--cores values must be >= 1, got %ld", cores);
    if (cores > sim::TraceCache::kMaxStreams)
        util::fatal("--cores value %ld exceeds the per-domain core "
                    "cap of %d",
                    cores, sim::TraceCache::kMaxStreams);
    return static_cast<int>(cores);
}

/** Checked parse of one --offset list item (mV). */
double
offsetByName(const std::string &value)
{
    double offset = 0.0;
    if (util::tryParseDouble(value, offset) != util::ParseStatus::Ok)
        util::fatal("--offset expects numbers in mV, got '%s'",
                    value.c_str());
    return offset;
}

/** CSV metadata of one cell, parallel to the job list. */
struct CellMeta
{
    std::string cpu;
    int cores;
    std::string strategy;
    double offsetMv;
    std::string workload;
    std::uint64_t seed;
    long rep;
};

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args(
        "suit_sweep",
        "run a configuration grid in parallel, emit CSV");
    args.addOption("cpu", "C", "CPU models (comma list of A, B, C, i5)");
    args.addOption("cores", "1",
                   "utilised-core counts (comma list; shared-domain "
                   "CPUs only)");
    args.addOption("strategy", "fV",
                   "operating strategies (comma list of e, f, V, fV, "
                   "hybrid)");
    args.addOption("offset", "-97",
                   "undervolt offsets in mV (comma list)");
    args.addOption("workload", "spec",
                   "workloads: comma list of names, 'spec' or 'all'");
    args.addOption("reps", "1",
                   "repetitions per cell with derived seeds");
    args.addOption("seed", "1", "root seed of the grid");
    args.addOption("out", "-", "output CSV file ('-' = stdout)");
    args.addFlag("nosimd", "model binaries compiled without SIMD");
    runtime::CliRun::addOptions(args, "cell");
    obs::addCliOptions(args);
    if (!args.parse(argc, argv))
        return 0;

    // Declared before the SweepEngine so worker threads never outlive
    // the trace session; flushes --metrics/--trace-out at exit.
    obs::CliScope obs_scope(args);

    // Own every axis value for the duration of the sweep (jobs hold
    // pointers into these).
    std::vector<power::CpuModel> cpus;
    for (const std::string &name : util::splitList(args.get("cpu")))
        cpus.push_back(power::cpuModelByName(name));
    const std::vector<trace::WorkloadProfile> profiles =
        trace::profilesByList(args.get("workload"));
    std::vector<int> core_list;
    for (const std::string &value : util::splitList(args.get("cores")))
        core_list.push_back(coreCountByName(value));
    const std::vector<std::string> strategy_list =
        util::splitList(args.get("strategy"));
    std::vector<double> offset_list;
    for (const std::string &value : util::splitList(args.get("offset")))
        offset_list.push_back(offsetByName(value));
    const long reps = args.getIntInRange("reps", 1, INT_MAX);
    const std::uint64_t root = static_cast<std::uint64_t>(
        args.getIntInRange("seed", 0, LONG_MAX));
    if (cpus.empty() || profiles.empty() || core_list.empty() ||
        strategy_list.empty() || offset_list.empty() || reps < 1)
        util::fatal("every grid axis needs at least one value");

    // Enumerate the grid in deterministic nested order.
    std::vector<SweepJob> jobs;
    std::vector<CellMeta> meta;
    std::uint64_t cell = 0;
    for (const power::CpuModel &cpu : cpus) {
        for (const int cores : core_list) {
            for (const std::string &strat_s : strategy_list) {
                const core::StrategyKind strategy =
                    core::strategyKindByName(strat_s);
                for (const double offset : offset_list) {
                    for (const auto &p : profiles) {
                        for (long r = 0; r < reps; ++r, ++cell) {
                            sim::EvalConfig cfg;
                            cfg.cpu = &cpu;
                            cfg.cores = cores;
                            cfg.offsetMv = offset;
                            cfg.strategy = strategy;
                            cfg.params = core::optimalParams(cpu);
                            cfg.mode =
                                args.getFlag("nosimd")
                                    ? sim::RunMode::NoSimdCompile
                                    : sim::RunMode::Suit;
                            cfg.seed =
                                r == 0 ? root
                                       : exec::deriveSeed(root, cell);
                            jobs.push_back({p.name, cfg, &p});
                            meta.push_back({cpu.label(), cores,
                                            strat_s, offset, p.name,
                                            cfg.seed, r});
                        }
                    }
                }
            }
        }
    }

    runtime::CliRun run(args, obs_scope, "cell");

    util::inform("suit_sweep: %zu cells on %s", jobs.size(),
                 run.session().jobs() == 1 ? "1 worker (serial)"
                                           : "parallel workers");

    exec::RunPolicy policy;
    policy.onCellDone = run.stopAfterHook();

    SweepEngine engine(run.session());
    const exec::SweepOutcome outcome =
        run.execute([&] { return engine.run(jobs, run.ctx(), policy); });

    std::FILE *out = stdout;
    if (args.get("out") != "-") {
        out = std::fopen(args.get("out").c_str(), "w");
        if (out == nullptr)
            util::fatal("cannot open '%s' for writing",
                        args.get("out").c_str());
    }

    std::fprintf(out,
                 "cpu,cores,strategy,offset_mv,workload,seed,rep,"
                 "perf_delta,power_delta,eff_delta,on_efficient,"
                 "cf_share,cv_share,traps,emulations,pstate_switches,"
                 "thrash_detections\n");
    for (std::size_t i = 0; i < outcome.results.size(); ++i) {
        if (!outcome.done[i])
            continue; // failed or skipped: reported on stderr below
        const CellMeta &m = meta[i];
        const sim::DomainResult &r = outcome.results[i];
        std::fprintf(
            out,
            "%s,%d,%s,%g,%s,%llu,%ld,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,"
            "%llu,%llu,%llu,%llu\n",
            m.cpu.c_str(), m.cores, m.strategy.c_str(), m.offsetMv,
            m.workload.c_str(),
            static_cast<unsigned long long>(m.seed), m.rep,
            r.perfDelta(), r.powerDelta(), r.efficiencyDelta(),
            r.efficientShare, r.cfShare, r.cvShare,
            static_cast<unsigned long long>(r.traps),
            static_cast<unsigned long long>(r.emulations),
            static_cast<unsigned long long>(r.pstateSwitches),
            static_cast<unsigned long long>(r.thrashDetections));
    }
    if (out != stdout)
        std::fclose(out);

    // Footer goes to stderr so it never pollutes CSV-on-stdout.
    std::fprintf(stderr,
                 "sweep execution (%d worker%s, %zu jobs, %zu run, "
                 "%zu restored, %s):\n%s",
                 engine.jobs(), engine.jobs() == 1 ? "" : "s",
                 jobs.size(), outcome.executed, outcome.restored,
                 engine.traceCache().summary().c_str(),
                 engine.workerFooter().c_str());
    if (obs::metrics().enabled()) {
        std::fprintf(stderr, "\nobservability metrics:\n%s",
                     obs::renderMetricsTable(obs::metrics().snapshot())
                         .c_str());
    }
    for (const exec::CellFailure &f : outcome.failures)
        std::fprintf(stderr,
                     "failed cell %zu (%s, %s/%s, seed %llu): %s\n",
                     f.index, f.label.c_str(),
                     meta[f.index].cpu.c_str(),
                     meta[f.index].strategy.c_str(),
                     static_cast<unsigned long long>(
                         meta[f.index].seed),
                     f.error.c_str());
    return run.finish(outcome.interrupted, outcome.skipped,
                      outcome.failures.empty() ? 0 : 2);
}

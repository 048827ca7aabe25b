/**
 * @file
 * suit_sim — run the SUIT trace simulator from the command line.
 *
 * Examples:
 *   suit_sim --workload 557.xz
 *   suit_sim --cpu B --strategy f --offset -70 --workload Nginx
 *   suit_sim --cpu A --cores 4 --workload 502.gcc
 *   suit_sim --trace mytrace.sfb --strategy hybrid
 *   suit_sim --workload 508.namd --nosimd
 *   suit_sim --workload spec --jobs 4      # whole suite, 4 workers
 */

#include <climits>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.hh"
#include "core/params.hh"
#include "exec/sweep.hh"
#include "obs/setup.hh"
#include "runtime/cli_run.hh"
#include "sim/evaluation.hh"
#include "sim/trace_cache.hh"
#include "trace/generator.hh"
#include "trace/io.hh"
#include "trace/profile.hh"
#include "util/args.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace {

using namespace suit;

/** Run a multi-workload suite in parallel and print per-row results. */
int
runSuiteMode(const sim::EvalConfig &cfg,
             const std::vector<trace::WorkloadProfile> &profiles,
             runtime::CliRun &run, const exec::RunPolicy &policy,
             bool verbose)
{
    std::vector<exec::SweepJob> sweep_jobs;
    sweep_jobs.reserve(profiles.size());
    for (const trace::WorkloadProfile &p : profiles)
        sweep_jobs.push_back({p.name, cfg, &p});

    exec::SweepEngine engine(run.session());
    const exec::SweepOutcome outcome = run.execute(
        [&] { return engine.run(sweep_jobs, run.ctx(), policy); });

    std::vector<sim::WorkloadRow> rows;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        if (outcome.done[i])
            rows.push_back({profiles[i].name, outcome.results[i]});
    }

    util::TablePrinter t({"Workload", "Perf", "Power", "Eff", "onE"});
    for (const sim::WorkloadRow &r : rows)
        t.addRow({r.workload,
                  util::sformat("%+.2f%%", 100 * r.result.perfDelta()),
                  util::sformat("%+.2f%%",
                                100 * r.result.powerDelta()),
                  util::sformat("%+.2f%%",
                                100 * r.result.efficiencyDelta()),
                  util::sformat("%.1f%%",
                                100 * r.result.efficientShare)});
    t.print();

    // A suite geomean over a subset would be silently wrong — only
    // print it once every workload completed.
    if (rows.size() == profiles.size()) {
        const sim::SuiteSummary sum = sim::SuiteSummary::of(rows);
        std::printf("\nSuite gmean: perf %+.2f%%, power %+.2f%%, eff "
                    "%+.2f%% (median eff %+.2f%%)\n",
                    100 * sum.gmeanPerf, 100 * sum.gmeanPower,
                    100 * sum.gmeanEff, 100 * sum.medianEff);
    } else {
        std::printf("\nSuite summary withheld: %zu of %zu workloads "
                    "completed\n",
                    rows.size(), profiles.size());
    }
    for (const exec::CellFailure &f : outcome.failures)
        std::fprintf(stderr, "failed workload %s: %s (%d attempt%s)\n",
                     f.label.c_str(), f.error.c_str(), f.attempts,
                     f.attempts == 1 ? "" : "s");
    if (verbose) {
        std::printf("\nSweep execution (%d worker%s, %zu jobs, %zu "
                    "run, %zu restored):\n%s",
                    engine.jobs(), engine.jobs() == 1 ? "" : "s",
                    profiles.size(), outcome.executed,
                    outcome.restored, engine.workerFooter().c_str());
        std::printf("Trace cache: %s\n",
                    engine.traceCache().summary().c_str());
    }
    return run.finish(outcome.interrupted, outcome.skipped,
                      outcome.failures.empty() ? 0 : 2);
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("suit_sim",
                         "simulate SUIT on a workload (paper Sec. 6)");
    args.addOption("cpu", "C", "CPU model: A, B, C or i5");
    args.addOption("workload", "557.xz",
                   "built-in workload profile name, a comma-separated "
                   "list, 'spec', 'all', or 'list'");
    args.addOption("trace", "", "run a recorded .sft/.sfb trace "
                                "instead of a built-in profile");
    args.addOption("strategy", "fV",
                   "operating strategy: e, f, V, fV, hybrid or auto");
    args.addOption("offset", "-97", "undervolt offset in mV");
    args.addOption("cores", "1",
                   "utilised cores (shared-domain CPUs only)");
    args.addOption("seed", "1", "trace / jitter seed");
    args.addOption("retries", "0",
                   "re-attempts for a failing workload before "
                   "recording it as failed");
    args.addFlag("strict",
                 "fail fast: abort the suite on the first workload "
                 "failure");
    args.addFlag("nosimd", "model a binary compiled without SIMD");
    args.addFlag("verbose", "also print switch/trap counters");
    // Suite (multi-workload) runs only.
    runtime::CliRun::addOptions(args, "workload", false);
    obs::addCliOptions(args);
    if (!args.parse(argc, argv))
        return 0;

    if (args.get("workload") == "list") {
        for (const auto &p : trace::allProfiles())
            std::printf("%s\n", p.name.c_str());
        return 0;
    }

    // Declared before any engine/pool so trace-emitting workers never
    // outlive the session; flushes --metrics/--trace-out at exit.
    obs::CliScope obs_scope(args);

    const power::CpuModel cpu = power::cpuModelByName(args.get("cpu"));

    sim::EvalConfig cfg;
    cfg.cpu = &cpu;
    cfg.cores = static_cast<int>(
        args.getIntInRange("cores", 1, sim::TraceCache::kMaxStreams));
    cfg.offsetMv = args.getDouble("offset");
    cfg.params = core::optimalParams(cpu);
    cfg.seed = static_cast<std::uint64_t>(
        args.getIntInRange("seed", 0, LONG_MAX));
    cfg.mode = args.getFlag("nosimd") ? sim::RunMode::NoSimdCompile
                                      : sim::RunMode::Suit;

    // Multi-workload selection runs as a parallel suite.
    if (args.get("trace").empty()) {
        const std::string &wl = args.get("workload");
        if (wl == "spec" || wl == "all" ||
            wl.find(',') != std::string::npos) {
            if (args.get("strategy") != "auto")
                cfg.strategy = core::strategyKindByName(args.get("strategy"));
            else
                util::fatal("--strategy auto needs a single "
                            "workload");
            exec::RunPolicy policy;
            policy.retries = static_cast<int>(
                args.getIntInRange("retries", 0, INT_MAX));
            policy.strict = args.getFlag("strict");
            runtime::CliRun run(args, obs_scope, "workload");

            std::printf("suite '%s' on %s, strategy %s, %.0f mV:\n",
                        wl.c_str(), cpu.name().c_str(),
                        core::toString(cfg.strategy), cfg.offsetMv);
            return runSuiteMode(cfg, trace::profilesByList(wl), run, policy,
                                args.getFlag("verbose"));
        }
    }
    if (!args.get("checkpoint").empty() || args.getFlag("resume"))
        util::fatal("--checkpoint/--resume apply to multi-workload "
                    "suite runs only");

    sim::DomainResult result;
    std::string workload_name;
    if (!args.get("trace").empty()) {
        const trace::Trace t = trace::loadTrace(args.get("trace"));
        workload_name = t.name();
        // A recorded trace carries no profile; wrap it in a neutral
        // one so the simulator has IPC and weight.
        trace::WorkloadProfile profile;
        profile.name = t.name();
        profile.ipc = t.ipc();
        profile.totalInstructions = t.totalInstructions();
        profile.eventWeight = t.eventWeight();

        cfg.strategy = args.get("strategy") == "auto"
                           ? core::selectStrategy(cpu, t, cfg.params)
                           : core::strategyKindByName(args.get("strategy"));
        sim::SimConfig sim_cfg;
        sim_cfg.cpu = cfg.cpu;
        sim_cfg.offsetMv = cfg.offsetMv;
        sim_cfg.mode = cfg.mode;
        sim_cfg.strategy = cfg.strategy;
        sim_cfg.params = cfg.params;
        sim_cfg.seed = cfg.seed;
        sim::DomainSimulator sim(sim_cfg, {{&t, &profile}});
        result = sim.run();
    } else {
        const auto &profile =
            trace::profileByName(args.get("workload"));
        workload_name = profile.name;
        if (args.get("strategy") == "auto") {
            const trace::Trace probe =
                trace::TraceGenerator(cfg.seed).generate(profile);
            cfg.strategy =
                core::selectStrategy(cpu, probe, cfg.params);
        } else {
            cfg.strategy = core::strategyKindByName(args.get("strategy"));
        }
        result = sim::runWorkload(cfg, profile);
    }

    std::printf("%s on %s, strategy %s, %.0f mV:\n",
                workload_name.c_str(), cpu.name().c_str(),
                core::toString(cfg.strategy), cfg.offsetMv);
    std::printf("  performance %+7.2f %%\n",
                100 * result.perfDelta());
    std::printf("  power       %+7.2f %%\n",
                100 * result.powerDelta());
    std::printf("  efficiency  %+7.2f %%\n",
                100 * result.efficiencyDelta());
    std::printf("  on efficient curve %5.1f %% (Cf %.1f %%, CV "
                "%.1f %%)\n",
                100 * result.efficientShare, 100 * result.cfShare,
                100 * result.cvShare);
    if (args.getFlag("verbose")) {
        std::printf("  traps %llu, emulations %llu, switches %llu, "
                    "thrash activations %llu\n",
                    static_cast<unsigned long long>(result.traps),
                    static_cast<unsigned long long>(result.emulations),
                    static_cast<unsigned long long>(
                        result.pstateSwitches),
                    static_cast<unsigned long long>(
                        result.thrashDetections));
    }
    return 0;
}

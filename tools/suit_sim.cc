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
 *
 * One configuration per run; suites and grids run through suit_sweep
 * (suit_sweep --workload spec).
 */

#include <climits>
#include <cstdio>
#include <string>

#include "core/controller.hh"
#include "core/params.hh"
#include "obs/setup.hh"
#include "sim/evaluation.hh"
#include "sim/trace_cache.hh"
#include "trace/generator.hh"
#include "trace/io.hh"
#include "trace/profile.hh"
#include "util/args.hh"
#include "util/logging.hh"

int
main(int argc, char **argv)
{
    using namespace suit;

    util::ArgParser args("suit_sim",
                         "simulate SUIT on a workload (paper Sec. 6)");
    args.addOption("cpu", "C", "CPU model: A, B, C or i5");
    args.addOption("workload", "557.xz",
                   "built-in workload profile name, or 'list'");
    args.addOption("trace", "", "run a recorded .sft/.sfb trace "
                                "instead of a built-in profile");
    args.addOption("strategy", "fV",
                   "operating strategy: e, f, V, fV, hybrid or auto");
    args.addOption("offset", "-97", "undervolt offset in mV");
    args.addOption("cores", "1",
                   "utilised cores (shared-domain CPUs only; 1 with "
                   "--trace)");
    args.addOption("seed", "1", "trace / jitter seed");
    args.addFlag("nosimd", "model a binary compiled without SIMD");
    args.addFlag("verbose", "also print switch/trap counters");
    obs::addCliOptions(args);
    if (!args.parse(argc, argv))
        return 0;

    if (args.get("workload") == "list") {
        for (const auto &p : trace::allProfiles())
            std::printf("%s\n", p.name.c_str());
        return 0;
    }

    // Flushes --metrics/--trace-out at exit.
    obs::CliScope obs_scope(args);

    const power::CpuModel cpu = power::cpuModelByName(args.get("cpu"));

    sim::EvalConfig cfg;
    cfg.cpu = &cpu;
    cfg.cores = static_cast<int>(
        args.getIntInRange("cores", 1, sim::TraceCache::kMaxStreams));
    if (!args.get("trace").empty() && cfg.cores != 1)
        util::fatal("--trace runs the one recorded stream on one core; "
                    "--cores %d is not supported with it",
                    cfg.cores);
    cfg.offsetMv = args.getDouble("offset");
    cfg.params = core::optimalParams(cpu);
    cfg.seed = static_cast<std::uint64_t>(
        args.getIntInRange("seed", 0, LONG_MAX));
    cfg.mode = args.getFlag("nosimd") ? sim::RunMode::NoSimdCompile
                                      : sim::RunMode::Suit;

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

/**
 * @file
 * Regenerates Fig. 16: per-benchmark performance and efficiency of
 * SUIT on CPU C (Xeon Silver 4208, per-core PCPS) under the fV
 * operating strategy at -70 mV and -97 mV.
 *
 * The 25 x 2 (workload x offset) grid runs as one batch on the
 * suit::exec SweepEngine; rows print in Fig. 16 order regardless of
 * worker count.
 */

#include <cstdio>
#include <vector>

#include "core/params.hh"
#include "exec/sweep.hh"
#include "runtime/session.hh"
#include "sim/evaluation.hh"
#include "trace/profile.hh"
#include "util/args.hh"
#include "util/format.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace suit;
    using exec::SweepEngine;
    using exec::SweepJob;

    util::ArgParser args("fig16_per_benchmark",
                         "regenerate Fig. 16 (paper Sec. 6.4)");
    args.addOption("jobs", "0",
                   "parallel sweep workers (0 = hardware threads, "
                   "1 = serial reference)");
    if (!args.parse(argc, argv))
        return 0;

    std::printf("SUIT reproduction — Fig. 16: per-benchmark impact "
                "on CPU C (fV strategy)\n\n");

    const power::CpuModel cpu = power::cpuC_xeon4208();
    const auto &profiles = trace::allProfiles();

    sim::EvalConfig cfg;
    cfg.cpu = &cpu;
    cfg.strategy = core::StrategyKind::CombinedFv;
    cfg.params = core::optimalParams(cpu);

    // Per profile: the -70 mV cell then the -97 mV cell.
    std::vector<SweepJob> jobs;
    jobs.reserve(2 * profiles.size());
    for (const auto &p : profiles) {
        sim::EvalConfig c70 = cfg;
        c70.offsetMv = -70.0;
        jobs.push_back({p.name, c70, &p});
        sim::EvalConfig c97 = cfg;
        c97.offsetMv = -97.0;
        jobs.push_back({p.name, c97, &p});
    }

    runtime::Session session({.jobs = static_cast<int>(args.getInt("jobs"))});
    SweepEngine engine(session);
    const std::vector<sim::DomainResult> results = engine.run(jobs);

    util::TablePrinter t({"Benchmark", "Perf -70", "Eff -70",
                          "Perf -97", "Eff -97", "onE -97"});

    std::vector<double> eff97_all, perf97_all;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const auto &p = profiles[i];
        const sim::DomainResult &r70 = results[2 * i];
        const sim::DomainResult &r97 = results[2 * i + 1];

        if (p.suite != trace::Suite::Network) {
            eff97_all.push_back(r97.efficiencyDelta());
            perf97_all.push_back(r97.perfDelta());
        }

        t.addRow({p.name,
                  util::sformat("%+.2f%%", 100 * r70.perfDelta()),
                  util::sformat("%+.1f%%",
                                100 * r70.efficiencyDelta()),
                  util::sformat("%+.2f%%", 100 * r97.perfDelta()),
                  util::sformat("%+.1f%%",
                                100 * r97.efficiencyDelta()),
                  util::sformat("%.1f%%",
                                100 * r97.efficientShare)});
    }
    t.print();

    std::printf("\nSPEC aggregate at -97 mV: perf gmean %+.2f%%, eff "
                "gmean %+.1f%%, eff median %+.1f%%\n",
                100 * sim::gmeanDelta(perf97_all),
                100 * sim::gmeanDelta(eff97_all),
                100 * sim::medianDelta(eff97_all));
    std::printf("\nPaper reference (-97 mV): efficiency gmean +11%%, "
                "median +13%%, 72.7%% of time on the efficient\n"
                "curve; 557.xz best (+16.9%% eff, +2.75%% perf), "
                "502.gcc worst perf (-2.89%%), 520.omnetpp parks\n"
                "on the conservative curve with negligible impact.\n");
    std::printf("\nSweep execution (%d worker%s, %zu jobs):\n%s",
                engine.jobs(), engine.jobs() == 1 ? "" : "s",
                jobs.size(), engine.workerFooter().c_str());
    return 0;
}

/**
 * @file
 * Regenerates Table 8: for how many SPEC CPU2017 benchmarks is
 * compiling without SIMD faster than running the SIMD binary under
 * SUIT's trap machinery, per CPU configuration at -97 mV.
 *
 * All (configuration x benchmark x {SUIT, no-SIMD}) cells run as one
 * parallel batch on the suit::exec SweepEngine; the win counters are
 * tallied from the deterministic result order.
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "core/params.hh"
#include "exec/sweep.hh"
#include "runtime/session.hh"
#include "sim/evaluation.hh"
#include "trace/profile.hh"
#include "util/args.hh"
#include "util/format.hh"
#include "util/table.hh"

namespace {

using namespace suit;
using exec::SweepEngine;
using exec::SweepJob;
using sim::DomainResult;

struct Spec
{
    const char *label;
    const power::CpuModel *cpu;
    int cores;
    core::StrategyKind strategy;
};

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("table8_nosimd_vs_suit",
                         "regenerate Table 8 (paper Sec. 6.7)");
    args.addOption("jobs", "0",
                   "parallel sweep workers (0 = hardware threads, "
                   "1 = serial reference)");
    if (!args.parse(argc, argv))
        return 0;

    std::printf("SUIT reproduction — Table 8: no-SIMD compilation vs "
                "SUIT traps (-97 mV, 23 SPEC benchmarks)\n\n");

    const power::CpuModel cpu_a = power::cpuA_i9_9900k();
    const power::CpuModel cpu_b = power::cpuB_ryzen7700x();
    const power::CpuModel cpu_c = power::cpuC_xeon4208();

    const Spec specs[] = {
        {"A1 fV", &cpu_a, 1, core::StrategyKind::CombinedFv},
        {"A4 fV", &cpu_a, 4, core::StrategyKind::CombinedFv},
        {"Ainf e", &cpu_a, 1, core::StrategyKind::Emulation},
        {"Binf f", &cpu_b, 1, core::StrategyKind::Frequency},
        {"Binf e", &cpu_b, 1, core::StrategyKind::Emulation},
        {"Cinf fV", &cpu_c, 1, core::StrategyKind::CombinedFv},
    };

    const auto profiles = trace::specProfiles();

    // Job order: spec-major, per benchmark the SUIT cell then the
    // no-SIMD cell, finally the two 508.namd worst-case cells.
    std::vector<SweepJob> jobs;
    for (const Spec &spec : specs) {
        sim::EvalConfig cfg;
        cfg.cpu = spec.cpu;
        cfg.cores = spec.cores;
        cfg.offsetMv = -97.0;
        cfg.strategy = spec.strategy;
        cfg.params = core::optimalParams(*spec.cpu);

        sim::EvalConfig nosimd = cfg;
        nosimd.mode = sim::RunMode::NoSimdCompile;

        for (const auto &p : profiles) {
            jobs.push_back({spec.label, cfg, &p});
            jobs.push_back({spec.label, nosimd, &p});
        }
    }

    const auto &namd = trace::profileByName("508.namd");
    const std::size_t namd_begin = jobs.size();
    {
        sim::EvalConfig cfg;
        cfg.cpu = &cpu_c;
        cfg.offsetMv = -97.0;
        cfg.params = core::optimalParams(cpu_c);
        sim::EvalConfig nosimd = cfg;
        nosimd.mode = sim::RunMode::NoSimdCompile;
        jobs.push_back({"namd suit", cfg, &namd});
        jobs.push_back({"namd nosimd", nosimd, &namd});
    }

    runtime::Session session({.jobs = static_cast<int>(args.getInt("jobs"))});
    SweepEngine engine(session);
    const std::vector<DomainResult> results = engine.run(jobs);

    util::TablePrinter t({"Config", "No SIMD wins", "SUIT wins"});
    for (std::size_t s = 0; s < std::size(specs); ++s) {
        const std::size_t begin = s * 2 * profiles.size();
        int nosimd_wins = 0, suit_wins = 0;
        for (std::size_t p = 0; p < profiles.size(); ++p) {
            const double perf_suit =
                results[begin + 2 * p].perfDelta();
            const double perf_nosimd =
                results[begin + 2 * p + 1].perfDelta();
            if (perf_nosimd > perf_suit)
                ++nosimd_wins;
            else
                ++suit_wins;
        }
        t.addRow({specs[s].label, util::sformat("%d", nosimd_wins),
                  util::sformat("%d", suit_wins)});
    }
    t.print();

    std::printf("\nWorst case for recompilation (paper: 508.namd "
                "loses ~20 pp when compiled without SIMD):\n");
    std::printf("  508.namd on C: SUIT eff %+.1f%%, no-SIMD eff "
                "%+.1f%%\n",
                100 * results[namd_begin].efficiencyDelta(),
                100 * results[namd_begin + 1].efficiencyDelta());

    std::printf("\nPaper reference: no-SIMD wins 15/21/23/21/23/16 of "
                "23 for A1/A4/Ainf-e/Binf-f/Binf-e/Cinf;\nrecompiling "
                "helps most benchmarks, but hurts SIMD-heavy ones "
                "badly, and emulation never beats it.\n");
    std::printf("\nSweep execution (%d worker%s, %zu jobs):\n%s",
                engine.jobs(), engine.jobs() == 1 ? "" : "s",
                jobs.size(), engine.workerFooter().c_str());
    return 0;
}

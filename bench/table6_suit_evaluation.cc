/**
 * @file
 * Regenerates Table 6: power saving and performance impact of SUIT
 * on CPUs A (i9-9900K, shared domain, 1 and 4 cores), B (7700X,
 * per-core frequency domains) and C (Xeon 4208, per-core PCPS)
 * under the fV / f / e operating strategies at -70 mV and -97 mV.
 *
 * The full grid — 2 offsets x 6 CPU configurations x (23 SPEC + 23
 * no-SIMD + Nginx + VLC) = 576 cells — is enqueued as one job list
 * on the suit::exec SweepEngine, so the wall clock scales with the
 * available hardware threads while the printed rows stay
 * bit-identical to the serial reference (`--jobs 1`).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/params.hh"
#include "core/strategy.hh"
#include "exec/sweep.hh"
#include "runtime/session.hh"
#include "power/cpu_model.hh"
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
using sim::EvalConfig;
using sim::RunMode;
using sim::SuiteSummary;
using sim::WorkloadRow;

std::string
pct(double x)
{
    return util::sformat("%+.1f%%", 100.0 * x);
}

struct ConfigSpec
{
    const char *label;     //!< e.g. "A1 fV"
    const power::CpuModel *cpu;
    int cores;
    core::StrategyKind strategy;
};

/** Job-list slice of one (offset, spec) group. */
struct GroupIndex
{
    std::size_t suitBegin = 0;   //!< 23 SPEC rows under SUIT
    std::size_t nosimdBegin = 0; //!< 23 SPEC rows compiled w/o SIMD
    std::size_t nginx = 0;
    std::size_t vlc = 0;
};

const WorkloadRow *
findRow(const std::vector<WorkloadRow> &rows, const std::string &name)
{
    for (const auto &r : rows) {
        if (r.workload == name)
            return &r;
    }
    return nullptr;
}

/** Slice [begin, begin + profiles.size()) of @p results as rows. */
std::vector<WorkloadRow>
sliceRows(const std::vector<DomainResult> &results, std::size_t begin,
          const std::vector<trace::WorkloadProfile> &profiles)
{
    std::vector<WorkloadRow> rows;
    rows.reserve(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i)
        rows.push_back({profiles[i].name, results[begin + i]});
    return rows;
}

void
printOffset(double offset_mv, const std::vector<ConfigSpec> &specs,
            const std::vector<trace::WorkloadProfile> &spec_profiles,
            const std::vector<GroupIndex> &groups,
            const std::vector<DomainResult> &results)
{
    std::printf("\n=== Table 6 — %g mV undervolt ===\n", offset_mv);
    util::TablePrinter table({"CPU/OS", "Metric", "SPECgmean",
                              "SPECmedian", "525.x264", "SPECnoSIMD",
                              "Nginx", "VLC"});

    for (std::size_t s = 0; s < specs.size(); ++s) {
        const ConfigSpec &spec = specs[s];
        const GroupIndex &g = groups[s];

        const auto rows =
            sliceRows(results, g.suitBegin, spec_profiles);
        const SuiteSummary sum = SuiteSummary::of(rows);
        const auto *x264 = findRow(rows, "525.x264");

        const auto nosimd_rows =
            sliceRows(results, g.nosimdBegin, spec_profiles);
        const SuiteSummary nosimd = SuiteSummary::of(nosimd_rows);

        const DomainResult &nginx = results[g.nginx];
        const DomainResult &vlc = results[g.vlc];

        const std::string who = util::sformat(
            "%s%s %s", spec.cpu->label().c_str(),
            spec.cpu->domains() == power::DomainLayout::SharedAll
                ? util::sformat("%d", spec.cores).c_str()
                : "inf",
            core::toString(spec.strategy));

        table.addRow({who, "Pwr", pct(sum.gmeanPower),
                      pct(sum.medianPower),
                      pct(x264->result.powerDelta()),
                      pct(nosimd.gmeanPower),
                      pct(nginx.powerDelta()), pct(vlc.powerDelta())});
        table.addRow({"", "Perf", pct(sum.gmeanPerf),
                      pct(sum.medianPerf),
                      pct(x264->result.perfDelta()),
                      pct(nosimd.gmeanPerf), pct(nginx.perfDelta()),
                      pct(vlc.perfDelta())});
        table.addRow({"", "Eff", pct(sum.gmeanEff),
                      pct(sum.medianEff),
                      pct(x264->result.efficiencyDelta()),
                      pct(nosimd.gmeanEff),
                      pct(nginx.efficiencyDelta()),
                      pct(vlc.efficiencyDelta())});
        table.addRow({"", "onE",
                      util::sformat("%.1f%%",
                                    100.0 * sum.meanEfficientShare),
                      "", "", "", "", ""});
        table.addSeparator();
    }
    table.print();
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("table6_suit_evaluation",
                         "regenerate Table 6 (paper Sec. 6.3)");
    args.addOption("jobs", "0",
                   "parallel sweep workers (0 = hardware threads, "
                   "1 = serial reference)");
    if (!args.parse(argc, argv))
        return 0;

    std::printf("SUIT reproduction — Table 6: efficiency and "
                "performance of SUIT\n");
    std::printf("(paper: ASPLOS'24, Juffinger et al., Sec. 6.3)\n");

    const power::CpuModel cpu_a = power::cpuA_i9_9900k();
    const power::CpuModel cpu_b = power::cpuB_ryzen7700x();
    const power::CpuModel cpu_c = power::cpuC_xeon4208();

    const std::vector<ConfigSpec> specs = {
        {"A1 fV", &cpu_a, 1, core::StrategyKind::CombinedFv},
        {"A4 fV", &cpu_a, 4, core::StrategyKind::CombinedFv},
        {"Ainf e", &cpu_a, 1, core::StrategyKind::Emulation},
        {"Binf f", &cpu_b, 1, core::StrategyKind::Frequency},
        {"Binf e", &cpu_b, 1, core::StrategyKind::Emulation},
        {"Cinf fV", &cpu_c, 1, core::StrategyKind::CombinedFv},
    };
    const double offsets[] = {-70.0, -97.0};

    const auto spec_profiles = trace::specProfiles();
    const auto &nginx_profile = trace::nginxProfile();
    const auto &vlc_profile = trace::vlcProfile();

    // Enqueue the entire grid in one deterministic job order:
    // offset-major, then spec, then (SUIT SPEC, no-SIMD SPEC, Nginx,
    // VLC).
    std::vector<SweepJob> jobs;
    std::vector<std::vector<GroupIndex>> groups(2);
    for (std::size_t o = 0; o < 2; ++o) {
        for (const ConfigSpec &spec : specs) {
            EvalConfig cfg;
            cfg.cpu = spec.cpu;
            cfg.cores = spec.cores;
            cfg.offsetMv = offsets[o];
            cfg.mode = RunMode::Suit;
            cfg.strategy = spec.strategy;
            cfg.params = core::optimalParams(*spec.cpu);

            // SPECnoSIMD: every benchmark compiled without SIMD, no
            // trappable instructions left (paper Sec. 6.7).
            EvalConfig nosimd_cfg = cfg;
            nosimd_cfg.mode = RunMode::NoSimdCompile;

            GroupIndex g;
            g.suitBegin = jobs.size();
            for (const auto &p : spec_profiles)
                jobs.push_back({spec.label, cfg, &p});
            g.nosimdBegin = jobs.size();
            for (const auto &p : spec_profiles)
                jobs.push_back({spec.label, nosimd_cfg, &p});
            g.nginx = jobs.size();
            jobs.push_back({spec.label, cfg, &nginx_profile});
            g.vlc = jobs.size();
            jobs.push_back({spec.label, cfg, &vlc_profile});
            groups[o].push_back(g);
        }
    }

    runtime::Session session({.jobs = static_cast<int>(args.getInt("jobs"))});
    SweepEngine engine(session);
    const std::vector<DomainResult> results = engine.run(jobs);

    for (std::size_t o = 0; o < 2; ++o)
        printOffset(offsets[o], specs, spec_profiles, groups[o],
                    results);

    std::printf(
        "\nPaper reference points (-97 mV): A1 fV eff +12%%, A4 fV "
        "eff +5.8%%, Ainf e eff -34%% (median +0.6%%),\nBinf f eff "
        "+1.4%%, Binf e eff -14%%, Cinf fV eff +11%% with ~72.7%% of "
        "time on the efficient curve;\nNginx/VLC with emulation "
        "collapse to about -98%%/-92%% performance.\n");
    std::printf("\nSweep execution (%d worker%s, %zu jobs):\n%s",
                engine.jobs(), engine.jobs() == 1 ? "" : "s",
                jobs.size(), engine.workerFooter().c_str());
    return 0;
}

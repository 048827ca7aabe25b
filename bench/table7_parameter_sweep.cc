/**
 * @file
 * Regenerates Table 7: the optimal operating-strategy parameters
 * (deadline p_dl, thrash window p_ts, exception count p_ec, deadline
 * factor p_df), found by sweeping each parameter around the paper's
 * optimum on a representative workload subset, plus the Sec. 6.4
 * sensitivity observation (+-10 us around the deadline moves the
 * efficiency by well under a percent).
 *
 * All three parameter sweeps are flattened into one job list on the
 * suit::exec SweepEngine: (sweep point x 6 workloads) cells execute
 * in parallel and are averaged back per point in deterministic
 * order.
 */

#include <cstdio>
#include <iterator>
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

/** Representative workload subset of the paper's sweep. */
const char *kSubset[] = {"557.xz", "538.imagick", "502.gcc",
                         "503.bwaves", "520.omnetpp", "Nginx"};

/** One sweep point: a full strategy configuration to average. */
struct SweepPoint
{
    const power::CpuModel *cpu;
    core::StrategyParams params;
    core::StrategyKind strategy;
};

/** Append one job per subset workload for @p point. */
void
appendPoint(std::vector<SweepJob> &jobs, const SweepPoint &point)
{
    sim::EvalConfig cfg;
    cfg.cpu = point.cpu;
    cfg.offsetMv = -97.0;
    cfg.strategy = point.strategy;
    cfg.params = point.params;
    for (const char *name : kSubset)
        jobs.push_back({name, cfg, &trace::profileByName(name)});
}

/** Mean efficiency of point @p index over its subset slice. */
double
meanEff(const std::vector<DomainResult> &results, std::size_t index)
{
    double sum = 0.0;
    for (std::size_t w = 0; w < std::size(kSubset); ++w)
        sum += results[index * std::size(kSubset) + w]
                   .efficiencyDelta();
    return sum / static_cast<double>(std::size(kSubset));
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("table7_parameter_sweep",
                         "regenerate Table 7 (paper Sec. 6.4)");
    args.addOption("jobs", "0",
                   "parallel sweep workers (0 = hardware threads, "
                   "1 = serial reference)");
    if (!args.parse(argc, argv))
        return 0;

    std::printf("SUIT reproduction — Table 7: optimal fV-strategy "
                "parameters\n\n");

    const power::CpuModel cpu_c = power::cpuC_xeon4208();
    const power::CpuModel cpu_b = power::cpuB_ryzen7700x();

    util::TablePrinter t({"CPU", "p_dl", "p_ts", "p_ec", "p_df"});
    const core::StrategyParams fast = core::fastSwitchParams();
    const core::StrategyParams slow = core::slowSwitchParams();
    t.addRow({"A & C", util::sformat("%.0f us", fast.deadlineUs),
              util::sformat("%.0f us", fast.timeSpanUs),
              util::sformat("%d", fast.maxExceptionCount),
              util::sformat("%.0f", fast.deadlineFactor)});
    t.addRow({"B", util::sformat("%.0f us", slow.deadlineUs),
              util::sformat("%.0f ms", slow.timeSpanUs / 1000.0),
              util::sformat("%d", slow.maxExceptionCount),
              util::sformat("%.0f", slow.deadlineFactor)});
    t.print();

    // Enumerate every sweep point, then execute all (point x
    // workload) cells in one parallel batch.
    const double kDeadlines[] = {10.0, 20.0, 30.0, 40.0, 60.0, 120.0};
    const double kFactors[] = {1.0, 4.0, 9.0, 14.0, 20.0};
    const double kDeadlinesB[] = {30.0, 200.0, 700.0, 1500.0};

    std::vector<SweepPoint> points;
    points.push_back({&cpu_c, fast, core::StrategyKind::CombinedFv});
    const std::size_t dl_begin = points.size();
    for (double dl : kDeadlines) {
        core::StrategyParams p = fast;
        p.deadlineUs = dl;
        points.push_back({&cpu_c, p, core::StrategyKind::CombinedFv});
    }
    const std::size_t df_begin = points.size();
    for (double df : kFactors) {
        core::StrategyParams p = fast;
        p.deadlineFactor = df;
        points.push_back({&cpu_c, p, core::StrategyKind::CombinedFv});
    }
    const std::size_t dlb_begin = points.size();
    for (double dl : kDeadlinesB) {
        core::StrategyParams p = slow;
        p.deadlineUs = dl;
        points.push_back({&cpu_b, p, core::StrategyKind::Frequency});
    }

    std::vector<SweepJob> jobs;
    jobs.reserve(points.size() * std::size(kSubset));
    for (const SweepPoint &point : points)
        appendPoint(jobs, point);

    runtime::Session session({.jobs = static_cast<int>(args.getInt("jobs"))});
    SweepEngine engine(session);
    const std::vector<DomainResult> results = engine.run(jobs);

    std::printf("\nDeadline sweep on CPU C (fV, -97 mV, mean "
                "efficiency over a 6-workload subset):\n");
    util::TablePrinter sweep({"p_dl", "mean eff", "vs optimum"});
    const double base = meanEff(results, 0);
    for (std::size_t i = 0; i < std::size(kDeadlines); ++i) {
        const double dl = kDeadlines[i];
        const double eff = meanEff(results, dl_begin + i);
        sweep.addRow({util::sformat("%.0f us%s", dl,
                                    dl == 30.0 ? " (Table 7)" : ""),
                      util::sformat("%+.2f%%", 100 * eff),
                      util::sformat("%+.2f pp", 100 * (eff - base))});
    }
    sweep.print();

    std::printf("\nDeadline-factor sweep on CPU C:\n");
    util::TablePrinter sweep2({"p_df", "mean eff"});
    for (std::size_t i = 0; i < std::size(kFactors); ++i) {
        const double df = kFactors[i];
        sweep2.addRow(
            {util::sformat("%.0f%s", df, df == 14.0 ? " (Table 7)" : ""),
             util::sformat("%+.2f%%",
                           100 * meanEff(results, df_begin + i))});
    }
    sweep2.print();

    std::printf("\nDeadline sweep on CPU B (f strategy, 668 us "
                "switches need a much longer deadline):\n");
    util::TablePrinter sweep3({"p_dl", "mean eff"});
    for (std::size_t i = 0; i < std::size(kDeadlinesB); ++i) {
        const double dl = kDeadlinesB[i];
        sweep3.addRow(
            {util::sformat("%.0f us%s", dl,
                           dl == 700.0 ? " (Table 7)" : ""),
             util::sformat("%+.2f%%",
                           100 * meanEff(results, dlb_begin + i))});
    }
    sweep3.print();

    std::printf("\nPaper reference (Sec. 6.4): the optimum is flat — "
                "varying the deadline +-10 us changes the mean\n"
                "efficiency by only ~0.6 pp, so one parameter set "
                "works across workloads.\n");
    std::printf("\nSweep execution (%d worker%s, %zu jobs):\n%s",
                engine.jobs(), engine.jobs() == 1 ? "" : "s",
                jobs.size(), engine.workerFooter().c_str());
    return 0;
}

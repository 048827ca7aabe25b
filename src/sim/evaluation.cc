#include "sim/evaluation.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/stats.hh"

namespace suit::sim {

using suit::power::DomainLayout;
using suit::trace::WorkloadProfile;

DomainResult
runWorkload(const EvalConfig &config, const WorkloadProfile &profile,
            TraceCache &traces)
{
    SimWorkspace ws;
    return runWorkload(config, profile, traces, ws);
}

DomainResult
runWorkload(const EvalConfig &config, const WorkloadProfile &profile)
{
    return runWorkload(config, profile, globalTraceCache());
}

const DomainResult &
runWorkload(const EvalConfig &config, const WorkloadProfile &profile,
            TraceCache &traces, SimWorkspace &ws)
{
    SUIT_ASSERT(config.cpu != nullptr, "evaluation needs a CPU model");
    SUIT_ASSERT(config.cores >= 1, "need at least one core");

    const bool shared =
        config.cpu->domains() == DomainLayout::SharedAll;
    const int streams = shared ? config.cores : 1;

    // One lock acquisition pins every stream; the pins stay in the
    // workspace until the next domain replaces them.
    traces.getMany(profile, config.seed, streams, ws.pinned);
    ws.work.clear();
    for (int s = 0; s < streams; ++s)
        ws.work.push_back(
            {ws.pinned[static_cast<std::size_t>(s)].get(), &profile});

    SimConfig sim_cfg;
    sim_cfg.cpu = config.cpu;
    sim_cfg.offsetMv = config.offsetMv;
    sim_cfg.mode = config.mode;
    sim_cfg.strategy = config.strategy;
    sim_cfg.params = config.params;
    sim_cfg.seed = config.seed * 7919 + 17;
    sim_cfg.referencePath = config.referencePath;
    sim_cfg.cancel = config.cancel;

    ws.sim.reset(sim_cfg, ws.work);
    ws.sim.runInto(ws.result);
    return ws.result;
}

std::vector<WorkloadRow>
runSuite(const EvalConfig &config,
         const std::vector<WorkloadProfile> &profiles)
{
    std::vector<WorkloadRow> rows;
    rows.reserve(profiles.size());
    for (const WorkloadProfile &p : profiles)
        rows.push_back({p.name, runWorkload(config, p)});
    return rows;
}

double
gmeanDelta(const std::vector<double> &deltas)
{
    if (deltas.empty())
        return 0.0;
    std::vector<double> ratios;
    ratios.reserve(deltas.size());
    for (double d : deltas)
        ratios.push_back(1.0 + d);
    return suit::util::geomean(ratios) - 1.0;
}

double
medianDelta(std::vector<double> deltas)
{
    return suit::util::median(std::move(deltas));
}

SuiteSummary
SuiteSummary::of(const std::vector<WorkloadRow> &rows)
{
    SuiteSummary s;
    if (rows.empty())
        return s;
    std::vector<double> perf, power, eff;
    double share = 0.0;
    for (const WorkloadRow &r : rows) {
        perf.push_back(r.result.perfDelta());
        power.push_back(r.result.powerDelta());
        eff.push_back(r.result.efficiencyDelta());
        share += r.result.efficientShare;
    }
    s.gmeanPerf = gmeanDelta(perf);
    s.gmeanPower = gmeanDelta(power);
    s.gmeanEff = gmeanDelta(eff);
    s.medianPerf = medianDelta(perf);
    s.medianPower = medianDelta(power);
    s.medianEff = medianDelta(eff);
    s.meanEfficientShare = share / static_cast<double>(rows.size());
    return s;
}

} // namespace suit::sim

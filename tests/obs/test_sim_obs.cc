/**
 * @file
 * End-to-end checks of the simulator instrumentation: enabling the
 * metrics registry and installing a trace session must not perturb
 * simulation results by a single bit, the published counters must
 * agree with the DomainResult they describe and with the reference
 * loop's, and a traced run must produce a valid Chrome document
 * containing the paper's signature events (p-state transitions, #DO
 * traps).
 *
 * Uses the process-global obs::metrics() registry — the same one the
 * library instrumentation records into — so tests reset it and
 * switch it off again on exit.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/params.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "obs/validate.hh"
#include "sim/domain_sim.hh"
#include "sim/evaluation.hh"
#include "sim/result_io.hh"
#include "sim/trace_cache.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

namespace {

using namespace suit;

/** RAII: enable the global registry, restore the off state after. */
struct MetricsOn
{
    MetricsOn()
    {
        obs::metrics().reset();
        obs::metrics().setEnabled(true);
    }
    ~MetricsOn()
    {
        obs::metrics().setEnabled(false);
        obs::metrics().reset();
    }
};

std::string
simulate(const power::CpuModel &cpu, const trace::Trace &t,
         const trace::WorkloadProfile &p, bool bypass)
{
    sim::SimConfig cfg;
    cfg.cpu = &cpu;
    cfg.offsetMv = -97.0;
    cfg.mode = sim::RunMode::Suit;
    cfg.strategy = core::StrategyKind::CombinedFv;
    cfg.params = core::optimalParams(cpu);
    cfg.seed = 11;
    cfg.obsBypass = bypass;
    sim::DomainSimulator simulator(cfg, {{&t, &p}});
    std::string bytes;
    sim::serializeResult(simulator.run(), bytes);
    return bytes;
}

TEST(ObsSim, InstrumentationIsBitIdentical)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const auto &p = trace::profileByName("Nginx");
    const trace::Trace t = trace::TraceGenerator(11).generate(p);

    // Baseline: obs fully off (the suite-wide default state).
    const std::string off = simulate(cpu, t, p, false);

    // Metrics on, trace session installed: the instrumented paths
    // all fire, and the serialized result must not move.
    std::string on;
    {
        MetricsOn metrics_on;
        obs::TraceSession session;
        obs::setActiveTrace(&session);
        on = simulate(cpu, t, p, false);
        obs::setActiveTrace(nullptr);
    }

    // obsBypass (the bench baseline) skips even the latch.
    const std::string bypassed = simulate(cpu, t, p, true);

    EXPECT_EQ(off, on);
    EXPECT_EQ(off, bypassed);
}

TEST(ObsSim, PublishedCountersMatchResult)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const auto &p = trace::profileByName("Nginx");
    const trace::Trace t = trace::TraceGenerator(11).generate(p);

    MetricsOn metrics_on;

    sim::SimConfig cfg;
    cfg.cpu = &cpu;
    cfg.offsetMv = -97.0;
    cfg.mode = sim::RunMode::Suit;
    cfg.strategy = core::StrategyKind::CombinedFv;
    cfg.params = core::optimalParams(cpu);
    cfg.seed = 11;
    sim::DomainSimulator simulator(cfg, {{&t, &p}});
    const sim::DomainResult result = simulator.run();

    const obs::Snapshot snap = obs::metrics().snapshot();
    ASSERT_NE(snap.find("sim.runs"), nullptr);
    EXPECT_EQ(snap.find("sim.runs")->count, 1u);
    EXPECT_EQ(snap.find("sim.traps")->count, result.traps);
    EXPECT_EQ(snap.find("sim.emulations")->count, result.emulations);
    EXPECT_EQ(snap.find("sim.pstate_switches")->count,
              result.pstateSwitches);

    // Per-kind trap counters partition the total.
    std::uint64_t by_kind = 0;
    for (const obs::MetricValue &m : snap.metrics) {
        if (m.name.rfind("sim.traps.", 0) == 0)
            by_kind += m.count;
    }
    EXPECT_EQ(by_kind, result.traps);

    // This workload traps: the check must bite.
    EXPECT_GT(result.traps, 0u);
}

TEST(ObsSim, CountersAddUpOverManyDomains)
{
    // The end-of-run flush resolves its metric handles once per
    // process; K domains of mixed shape must still add up exactly.
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const std::vector<const trace::WorkloadProfile *> profiles = {
        &trace::profileByName("Nginx"),
        &trace::profileByName("557.xz"),
        &trace::profileByName("VLC")};

    MetricsOn metrics_on;

    constexpr int kDomains = 6;
    std::uint64_t events = 0;
    std::uint64_t traps = 0;
    std::uint64_t cores = 0;
    for (int d = 0; d < kDomains; ++d) {
        const trace::WorkloadProfile &p = *profiles[d % 3];
        const int streams = 1 + d % 2;
        std::vector<trace::Trace> traces;
        for (int s = 0; s < streams; ++s)
            traces.push_back(
                trace::TraceGenerator(20 + d).generate(p, s));
        std::vector<sim::CoreWork> work;
        for (const trace::Trace &t : traces) {
            work.push_back({&t, &p});
            events += t.eventCount();
        }

        sim::SimConfig cfg;
        cfg.cpu = &cpu;
        cfg.offsetMv = -97.0;
        cfg.mode = sim::RunMode::Suit;
        cfg.strategy = core::StrategyKind::CombinedFv;
        cfg.params = core::optimalParams(cpu);
        cfg.seed = 20 + d;
        sim::DomainSimulator simulator(cfg, std::move(work));
        const sim::DomainResult result = simulator.run();
        traps += result.traps;
        cores += result.cores.size();
    }

    const obs::Snapshot snap = obs::metrics().snapshot();
    ASSERT_NE(snap.find("sim.runs"), nullptr);
    EXPECT_EQ(snap.find("sim.runs")->count,
              static_cast<std::uint64_t>(kDomains));
    EXPECT_EQ(snap.find("sim.events.total")->count, events);
    EXPECT_EQ(snap.find("sim.traps")->count, traps);
    // One simulated-duration sample per core; the old host-time
    // sounding name is gone.
    ASSERT_NE(snap.find("sim.domain_sim_ms"), nullptr);
    EXPECT_EQ(snap.find("sim.domain_sim_ms")->histogram.total(), cores);
    EXPECT_EQ(snap.find("sim.domain_ms"), nullptr);
    EXPECT_GT(events, 0u);
}

/** Every registry counter after one runWorkload() of @p cfg. */
std::map<std::string, std::uint64_t>
countersAfter(const sim::EvalConfig &cfg,
              const trace::WorkloadProfile &p, sim::TraceCache &traces)
{
    obs::metrics().reset();
    (void)sim::runWorkload(cfg, p, traces);
    std::map<std::string, std::uint64_t> counters;
    for (const obs::MetricValue &m : obs::metrics().snapshot().metrics) {
        if (m.kind == obs::MetricKind::Counter)
            counters[m.name] = m.count;
    }
    return counters;
}

TEST(ObsSim, FastAndReferenceLoopsPublishTheSameCounters)
{
    // The fast loop's batched windows account the deadline timer and
    // the event counters once per window, not per event; every
    // published counter must still match the reference loop's.  Only
    // sim.events.batched counts fast-loop work by definition.
    const std::vector<power::CpuModel> cpus = {power::cpuA_i9_9900k(),
                                               power::cpuC_xeon4208()};
    const std::vector<std::pair<sim::RunMode, core::StrategyKind>>
        modes = {
            {sim::RunMode::Baseline, core::StrategyKind::CombinedFv},
            {sim::RunMode::Suit, core::StrategyKind::Emulation},
            {sim::RunMode::Suit, core::StrategyKind::Frequency},
            {sim::RunMode::Suit, core::StrategyKind::Voltage},
            {sim::RunMode::Suit, core::StrategyKind::CombinedFv},
            {sim::RunMode::Suit, core::StrategyKind::Hybrid}};
    std::vector<trace::WorkloadProfile> profiles;
    for (const char *name : {"Nginx", "502.gcc", "557.xz"}) {
        // A slice of each workload, as a fleet's trace_scale takes.
        trace::WorkloadProfile p = trace::profileByName(name);
        p.totalInstructions =
            std::max<std::uint64_t>(1000000, p.totalInstructions / 100);
        profiles.push_back(std::move(p));
    }

    MetricsOn metrics_on;
    sim::TraceCache traces;
    int checked = 0;
    std::uint64_t resets = 0;
    std::uint64_t expirations = 0;
    for (const power::CpuModel &cpu : cpus) {
        for (const auto &[mode, strategy] : modes) {
            for (const int cores : {1, 4}) {
                for (const trace::WorkloadProfile &p : profiles) {
                    sim::EvalConfig cfg;
                    cfg.cpu = &cpu;
                    cfg.cores = cores;
                    cfg.mode = mode;
                    cfg.strategy = strategy;
                    cfg.params = core::optimalParams(cpu);
                    cfg.seed = 13;
                    // Warm the cache: both runs then count the same
                    // trace-cache hits.
                    (void)sim::runWorkload(cfg, p, traces);

                    std::map<std::string, std::uint64_t> fast =
                        countersAfter(cfg, p, traces);
                    cfg.referencePath = true;
                    std::map<std::string, std::uint64_t> ref =
                        countersAfter(cfg, p, traces);
                    EXPECT_EQ(ref["sim.events.batched"], 0u);
                    fast.erase("sim.events.batched");
                    ref.erase("sim.events.batched");
                    EXPECT_EQ(fast, ref)
                        << "CPU " << cpu.label() << " cores=" << cores
                        << " mode=" << static_cast<int>(mode) << " "
                        << core::toString(strategy) << " " << p.name;
                    resets += ref["sim.deadline.resets"];
                    expirations += ref["sim.deadline.expirations"];
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, 72);
    // The timer counters must be live for the comparison to bite.
    EXPECT_GT(resets, 0u);
    EXPECT_GT(expirations, 0u);
}

TEST(ObsSim, TracedRunEmitsSignatureEvents)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const auto &p = trace::profileByName("Nginx");
    const trace::Trace t = trace::TraceGenerator(11).generate(p);

    obs::TraceSession session;
    obs::setActiveTrace(&session);
    (void)simulate(cpu, t, p, false);
    obs::setActiveTrace(nullptr);

    const obs::CheckResult result =
        obs::checkChromeTrace(session.render());
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.hasName("pstate"));
    EXPECT_TRUE(result.hasName("do-trap"));
}

TEST(ObsSim, ObsBypassSuppressesTraceEvents)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const auto &p = trace::profileByName("Nginx");
    const trace::Trace t = trace::TraceGenerator(11).generate(p);

    obs::TraceSession session;
    obs::setActiveTrace(&session);
    const std::size_t before = session.eventCount();
    (void)simulate(cpu, t, p, true);
    obs::setActiveTrace(nullptr);
    EXPECT_EQ(session.eventCount(), before);
}

} // namespace

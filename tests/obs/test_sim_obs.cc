/**
 * @file
 * End-to-end checks of the simulator instrumentation: enabling the
 * metrics registry and installing a trace session must not perturb
 * simulation results by a single bit, the published counters must
 * agree with the DomainResult they describe, and a traced run must
 * produce a valid Chrome document containing the paper's signature
 * events (p-state transitions, #DO traps).
 *
 * Uses the process-global obs::metrics() registry — the same one the
 * library instrumentation records into — so tests reset it and
 * switch it off again on exit.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/params.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "obs/validate.hh"
#include "sim/domain_sim.hh"
#include "sim/result_io.hh"
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

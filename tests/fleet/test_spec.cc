/**
 * @file
 * FleetSpec tests: parse acceptance and line-numbered rejections,
 * deterministic per-domain expansion, trace-seed sharing, domain
 * rescaling and fingerprint sensitivity.
 */

#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "exec/sweep.hh"
#include "fleet/spec.hh"
#include "power/cpu_model.hh"
#include "sim/model_version.hh"
#include "trace/profile.hh"

namespace {

using namespace suit;
using fleet::DomainConfig;
using fleet::FleetSpec;
using fleet::SpecError;

const char *const kGoodSpec =
    "# demo fleet\n"
    "name = unit\n"
    "seed = 11\n"
    "pue = 1.5\n"
    "cost_usd_per_kwh = 0.08\n"
    "trace_scale = 0.01\n"
    "rack web cpu=C domains=30 workloads=Nginx:3,VLC:1 "
    "strategy=fV,hybrid offset=-97,-70 variants=2\n"
    "rack build cpu=A domains=10 cores=4 workloads=502.gcc "
    "strategy=e\n";

TEST(FleetSpecParse, AcceptsFullSpec)
{
    const FleetSpec spec = FleetSpec::parse(kGoodSpec);
    EXPECT_EQ(spec.name, "unit");
    EXPECT_EQ(spec.seed, 11u);
    EXPECT_DOUBLE_EQ(spec.pue, 1.5);
    EXPECT_DOUBLE_EQ(spec.costUsdPerKwh, 0.08);
    EXPECT_DOUBLE_EQ(spec.traceScale, 0.01);
    ASSERT_EQ(spec.racks.size(), 2u);
    EXPECT_EQ(spec.racks[0].name, "web");
    EXPECT_EQ(spec.racks[0].cpu, "C");
    EXPECT_EQ(spec.racks[0].domains, 30u);
    ASSERT_EQ(spec.racks[0].workloads.size(), 2u);
    EXPECT_EQ(spec.racks[0].workloads[0].workload, "Nginx");
    EXPECT_DOUBLE_EQ(spec.racks[0].workloads[0].weight, 3.0);
    EXPECT_EQ(spec.racks[0].strategies.size(), 2u);
    EXPECT_EQ(spec.racks[0].offsetsMv.size(), 2u);
    EXPECT_EQ(spec.racks[0].traceVariants, 2);
    EXPECT_EQ(spec.racks[1].cores, 4);
    EXPECT_EQ(spec.totalDomains(), 40u);
}

/** Expect parse() to throw a SpecError containing @p needle. */
void
expectRejects(const std::string &text, const std::string &needle)
{
    try {
        FleetSpec::parse(text);
        FAIL() << "spec accepted; expected error containing '"
               << needle << "'";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "error was: " << e.what();
    }
}

TEST(FleetSpecParse, RejectsWithLineNumbers)
{
    // The offending construct sits on line 2 of each snippet.
    expectRejects("name = x\nbogus line here\n", "line 2");
    expectRejects("name = x\nrack a cpu=Z domains=1 workloads=VLC\n",
                  "unknown CPU 'Z'");
    expectRejects(
        "name = x\nrack a cpu=C domains=1 workloads=NoSuchLoad\n",
        "unknown workload 'NoSuchLoad'");
    expectRejects("name = x\nrack a domains=1 workloads=VLC "
                  "strategy=warp\n",
                  "unknown strategy 'warp'");
    expectRejects("name = x\nrack a domains=1 workloads=VLC "
                  "offset=25\n",
                  "must be <= 0 mV");
    expectRejects("name = x\nrack a domains=0 workloads=VLC\n",
                  "positive integer");
    expectRejects("name = x\nrack a workloads=VLC\n",
                  "needs domains=");
    expectRejects("name = x\nrack a domains=1\n", "needs workloads=");
    expectRejects("name = x\nrack a domains=1 workloads=VLC:0\n",
                  "must be > 0");
    expectRejects("name = x\nrack a domains=1 workloads=VLC "
                  "variants=1000\n",
                  "256");
    expectRejects("name = x\nrack a domains=1 workloads=VLC "
                  "cores=100\n",
                  "core count");
    expectRejects("name = x\nrack a domains=1 workloads=VLC "
                  "color=red\n",
                  "unknown rack key 'color'");
    expectRejects("pue = 0.5\nrack a domains=1 workloads=VLC\n",
                  "pue must be >= 1.0");
    expectRejects("trace_scale = 2\nrack a domains=1 workloads=VLC\n",
                  "trace_scale must be in (0, 1]");
    expectRejects("wibble = 3\nrack a domains=1 workloads=VLC\n",
                  "unknown fleet key 'wibble'");
    expectRejects("rack a domains=1 workloads=VLC\n"
                  "rack a domains=1 workloads=VLC\n",
                  "duplicate rack name 'a'");
    expectRejects("name = x\n", "no racks");
}

TEST(FleetSpecExpand, IsDeterministicAndInRange)
{
    const FleetSpec spec = FleetSpec::parse(kGoodSpec);
    for (std::uint64_t i = 0; i < spec.totalDomains(); ++i) {
        const DomainConfig a = spec.domainAt(i);
        const DomainConfig b = spec.domainAt(i);
        EXPECT_EQ(a.rack, b.rack);
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(a.strategy, b.strategy);
        EXPECT_EQ(a.variant, b.variant);
        EXPECT_EQ(a.offsetMv, b.offsetMv);
        EXPECT_EQ(a.simSeed, b.simSeed);
        EXPECT_EQ(a.traceSeed, b.traceSeed);

        const fleet::RackSpec &rack = spec.racks[a.rack];
        EXPECT_EQ(a.rack, i < 30 ? 0u : 1u);
        EXPECT_LT(a.workload, rack.workloads.size());
        EXPECT_LT(a.strategy, rack.strategies.size());
        EXPECT_LT(a.variant, rack.traceVariants);
    }
}

TEST(FleetSpecExpand, SharesTraceSeedsPerVariantOnly)
{
    FleetSpec spec = FleetSpec::parse(kGoodSpec);
    spec.racks[0].domains = 2000;

    // Group domains by (workload, variant): one trace seed per
    // group, distinct seeds across groups, unique sim seeds always.
    std::map<std::pair<int, int>, std::uint64_t> seed_of;
    std::set<std::uint64_t> trace_seeds;
    std::set<std::uint64_t> sim_seeds;
    for (std::uint64_t i = 0; i < 2000; ++i) {
        const DomainConfig cfg = spec.domainAt(i);
        const auto key = std::make_pair(
            static_cast<int>(cfg.workload),
            static_cast<int>(cfg.variant));
        const auto [it, fresh] =
            seed_of.emplace(key, cfg.traceSeed);
        if (!fresh) {
            EXPECT_EQ(it->second, cfg.traceSeed);
        }
        trace_seeds.insert(cfg.traceSeed);
        EXPECT_TRUE(sim_seeds.insert(cfg.simSeed).second)
            << "sim seed of domain " << i << " reused";
    }
    // 2 workloads x 2 variants, all distinct.
    EXPECT_EQ(seed_of.size(), 4u);
    EXPECT_EQ(trace_seeds.size(), 4u);
}

TEST(FleetSpecExpand, TenantWeightsShapeTheDraw)
{
    FleetSpec spec = FleetSpec::parse(kGoodSpec);
    spec.racks[0].domains = 20000;
    std::uint64_t nginx = 0;
    for (std::uint64_t i = 0; i < 20000; ++i)
        if (spec.domainAt(i).workload == 0)
            ++nginx;
    // Weight 3:1 => ~75 % Nginx; allow a generous tolerance.
    EXPECT_GT(nginx, 20000 * 0.70);
    EXPECT_LT(nginx, 20000 * 0.80);
}

TEST(FleetSpecScale, HitsTheTargetExactly)
{
    for (const std::uint64_t target : {2ull, 7ull, 99ull, 100001ull}) {
        FleetSpec spec = FleetSpec::parse(kGoodSpec);
        spec.scaleDomains(target);
        EXPECT_EQ(spec.totalDomains(), target);
        for (const fleet::RackSpec &rack : spec.racks)
            EXPECT_GE(rack.domains, 1u);
    }
}

TEST(FleetSpecScale, RefusesFewerDomainsThanRacks)
{
    // Every rack keeps at least one domain, so a target below the
    // rack count has no distribution; it must throw, not spin.
    FleetSpec spec = FleetSpec::parse(kGoodSpec);
    ASSERT_EQ(spec.racks.size(), 2u);
    try {
        spec.scaleDomains(1);
        FAIL() << "scaleDomains(1) on a two-rack fleet did not throw";
    } catch (const SpecError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("1 domains"), std::string::npos) << what;
        EXPECT_NE(what.find("2 racks"), std::string::npos) << what;
    }
    EXPECT_THROW(FleetSpec::demo(3), SpecError);
}

TEST(FleetSpecScale, RackCountGivesOneDomainPerRack)
{
    FleetSpec spec = FleetSpec::parse(kGoodSpec);
    spec.scaleDomains(spec.racks.size());
    for (const fleet::RackSpec &rack : spec.racks)
        EXPECT_EQ(rack.domains, 1u);

    const FleetSpec demo = FleetSpec::demo(5);
    ASSERT_EQ(demo.racks.size(), 5u);
    for (const fleet::RackSpec &rack : demo.racks)
        EXPECT_EQ(rack.domains, 1u);
}

TEST(FleetSpecFingerprint, TracksSimulationInputsOnly)
{
    const FleetSpec base = FleetSpec::parse(kGoodSpec);
    const std::uint64_t h = base.fingerprint();
    EXPECT_EQ(h, FleetSpec::parse(kGoodSpec).fingerprint());

    FleetSpec seeded = base;
    seeded.seed = 12;
    EXPECT_NE(seeded.fingerprint(), h);

    FleetSpec resized = base;
    resized.racks[1].domains = 11;
    EXPECT_NE(resized.fingerprint(), h);

    FleetSpec offset = base;
    offset.racks[0].offsetsMv[0] = -80.0;
    EXPECT_NE(offset.fingerprint(), h);

    // Report-only knobs must not invalidate checkpoints.
    FleetSpec priced = base;
    priced.pue = 2.0;
    priced.costUsdPerKwh = 0.50;
    EXPECT_EQ(priced.fingerprint(), h);
}

/**
 * The simulation model version is part of both checkpoint
 * fingerprints, so a journal written under another model is refused
 * as a fingerprint mismatch instead of being resumed.
 */
TEST(ModelVersion, ChangesSweepAndFleetFingerprints)
{
    const std::uint64_t v = sim::kModelVersion;
    const FleetSpec spec = FleetSpec::parse(kGoodSpec);
    EXPECT_EQ(spec.fingerprint(), spec.fingerprint(v));
    EXPECT_NE(spec.fingerprint(v + 1), spec.fingerprint(v));

    const power::CpuModel cpu = power::cpuA_i9_9900k();
    sim::EvalConfig cfg;
    cfg.cpu = &cpu;
    const std::vector<exec::SweepJob> jobs = {
        {"xz", cfg, &trace::profileByName("557.xz")}};
    EXPECT_EQ(exec::fingerprintJobs(jobs), exec::fingerprintJobs(jobs, v));
    EXPECT_NE(exec::fingerprintJobs(jobs, v + 1).hash,
              exec::fingerprintJobs(jobs, v).hash);
}

TEST(FleetSpecDemo, ScalesToRequestedSize)
{
    const FleetSpec spec = FleetSpec::demo(12345);
    EXPECT_EQ(spec.totalDomains(), 12345u);
    EXPECT_GE(spec.racks.size(), 3u);
}

} // namespace

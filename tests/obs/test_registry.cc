/**
 * @file
 * Unit tests for the obs::Registry: registration semantics, the
 * enabled gate, multi-threaded lock-free recording, snapshot
 * correctness and the two exporters.
 */

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/registry.hh"
#include "obs/validate.hh"

namespace {

using namespace suit;
using obs::MetricId;
using obs::MetricKind;
using obs::Registry;
using obs::Snapshot;

TEST(ObsRegistry, DisabledByDefaultAndDropsRecords)
{
    Registry reg;
    EXPECT_FALSE(reg.enabled());
    const MetricId c = reg.counter("drops");
    reg.add(c, 17);
    EXPECT_EQ(reg.snapshot().find("drops")->count, 0u);

    reg.setEnabled(true);
    reg.add(c, 17);
    EXPECT_EQ(reg.snapshot().find("drops")->count, 17u);
}

TEST(ObsRegistry, RegistrationIsIdempotentByName)
{
    Registry reg;
    reg.setEnabled(true);
    const MetricId a = reg.counter("same");
    const MetricId b = reg.counter("same");
    reg.add(a, 2);
    reg.add(b, 3);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.snapshot().find("same")->count, 5u);
}

TEST(ObsRegistry, GaugeHoldsLastValue)
{
    Registry reg;
    reg.setEnabled(true);
    const MetricId g = reg.gauge("level");
    reg.set(g, 1.5);
    reg.set(g, -2.25);
    const Snapshot snap = reg.snapshot();
    ASSERT_NE(snap.find("level"), nullptr);
    EXPECT_EQ(snap.find("level")->kind, MetricKind::Gauge);
    EXPECT_DOUBLE_EQ(snap.find("level")->value, -2.25);
}

TEST(ObsRegistry, HistogramBinsAndPercentiles)
{
    Registry reg;
    reg.setEnabled(true);
    const MetricId h = reg.histogram("lat", {1.0, 10.0, 100.0});
    reg.observe(h, 0.5);   // bucket 0
    reg.observe(h, 5.0);   // bucket 1
    reg.observe(h, 50.0);  // bucket 2
    reg.observe(h, 500.0); // overflow
    const Snapshot snap = reg.snapshot();
    const util::BucketHistogram &hist = snap.find("lat")->histogram;
    EXPECT_EQ(hist.total(), 4u);
    EXPECT_EQ(hist.count(0), 1u);
    EXPECT_EQ(hist.count(1), 1u);
    EXPECT_EQ(hist.count(2), 1u);
    EXPECT_EQ(hist.count(3), 1u);
    EXPECT_LE(hist.percentile(50.0), 10.0);
    EXPECT_DOUBLE_EQ(snap.find("lat")->sum, 555.5);
}

TEST(ObsRegistry, SnapshotSortsByName)
{
    Registry reg;
    reg.setEnabled(true);
    reg.add(reg.counter("zebra"));
    reg.add(reg.counter("alpha"));
    const Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.metrics.size(), 2u);
    EXPECT_EQ(snap.metrics[0].name, "alpha");
    EXPECT_EQ(snap.metrics[1].name, "zebra");
}

TEST(ObsRegistry, ResetZeroesButKeepsMetrics)
{
    Registry reg;
    reg.setEnabled(true);
    const MetricId c = reg.counter("hits");
    const MetricId g = reg.gauge("depth");
    reg.add(c, 9);
    reg.set(g, 4.0);
    reg.reset();
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.snapshot().find("hits")->count, 0u);
    EXPECT_DOUBLE_EQ(reg.snapshot().find("depth")->value, 0.0);
}

/**
 * The lock-free contract: concurrent add()/observe() from many
 * threads must lose no increments, and a concurrent snapshot() must
 * be race-free (this test is part of the `obs` label run under
 * -DSUIT_SANITIZE=thread).
 */
TEST(ObsRegistry, ConcurrentRecordingLosesNothing)
{
    Registry reg;
    reg.setEnabled(true);
    const MetricId c = reg.counter("mt.count");
    const MetricId h = reg.histogram("mt.hist", {10.0, 100.0});

    constexpr int kThreads = 8;
    constexpr int kIters = 10'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                reg.add(c);
                reg.observe(h, static_cast<double>((t + i) % 200));
            }
        });
    }
    // Concurrent reader: results are transient, but must not race.
    for (int i = 0; i < 50; ++i)
        (void)reg.snapshot();
    for (std::thread &t : threads)
        t.join();

    const Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.find("mt.count")->count,
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(snap.find("mt.hist")->histogram.total(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    // Integer samples: every partial sum is exact.
    double sum = 0.0;
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kIters; ++i)
            sum += static_cast<double>((t + i) % 200);
    EXPECT_EQ(snap.find("mt.hist")->sum, sum);
}

TEST(ObsRegistry, JsonExportPassesValidator)
{
    Registry reg;
    reg.setEnabled(true);
    reg.add(reg.counter("a.count"), 3);
    reg.set(reg.gauge("b.gauge"), 7.5);
    reg.observe(reg.histogram("c.hist", {1.0, 2.0}), 1.5);

    const obs::CheckResult result =
        obs::checkMetricsJson(obs::renderMetricsJson(reg.snapshot()));
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.entries, 3u);
    EXPECT_TRUE(result.hasName("a.count"));
    EXPECT_TRUE(result.hasName("b.gauge"));
    EXPECT_TRUE(result.hasName("c.hist"));
}

TEST(ObsRegistry, TableExportMentionsEveryMetric)
{
    Registry reg;
    reg.setEnabled(true);
    reg.add(reg.counter("one"), 1);
    reg.observe(reg.histogram("two", {5.0}), 3.0);
    const std::string table = obs::renderMetricsTable(reg.snapshot());
    EXPECT_NE(table.find("one"), std::string::npos);
    EXPECT_NE(table.find("two"), std::string::npos);
}

TEST(ObsRegistry, SeparateRegistriesDoNotShareShards)
{
    // The thread-local shard cache is keyed by registry serial; a
    // second registry on the same thread must start from zero.
    Registry first;
    first.setEnabled(true);
    first.add(first.counter("x"), 5);

    Registry second;
    second.setEnabled(true);
    second.add(second.counter("x"), 2);

    EXPECT_EQ(first.snapshot().find("x")->count, 5u);
    EXPECT_EQ(second.snapshot().find("x")->count, 2u);
}

} // namespace

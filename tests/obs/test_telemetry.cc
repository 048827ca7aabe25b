/**
 * @file
 * Unit tests for the continuous-telemetry stack: the
 * TelemetrySampler ring (wrap-around, lock-free concurrent reads,
 * start/stop idempotence), the OpenMetrics exposition (renderer,
 * TCP server, validator), the FlightRecorder JSONL dumps and the
 * obs::Span sinks.
 *
 * The concurrent tests are in the sanitizer matrix (label `obs`,
 * thread + undefined): the seqlock ring must be TSan-clean while a
 * worker hammers registry counters mid-sample.
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/flight.hh"
#include "obs/openmetrics.hh"
#include "obs/registry.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "obs/validate.hh"

namespace {

using namespace suit;
using obs::MetricId;
using obs::MetricKind;
using obs::Registry;
using obs::TelemetryConfig;
using obs::TelemetrySample;
using obs::TelemetrySampler;

/** Unique scratch path that is removed again on destruction. */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string &name)
        : path_(::testing::TempDir() + "suit_telemetry_" + name)
    {
        std::remove(path_.c_str());
    }
    ~ScratchFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }
    std::string read() const
    {
        std::ifstream in(path_, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }

  private:
    std::string path_;
};

TelemetryConfig
manualConfig(std::size_t capacity = 8)
{
    TelemetryConfig cfg;
    cfg.intervalS = 3600.0; // background thread effectively idle
    cfg.ringCapacity = capacity;
    return cfg;
}

TEST(ObsTelemetry, StartStopIsIdempotentAndRestartable)
{
    Registry reg;
    reg.setEnabled(true);
    TelemetrySampler sampler(reg, manualConfig());

    EXPECT_FALSE(sampler.running());
    sampler.start();
    sampler.start(); // second start is a no-op
    EXPECT_TRUE(sampler.running());
    sampler.stop();
    sampler.stop(); // second stop is a no-op
    EXPECT_FALSE(sampler.running());

    // A stopped sampler restarts cleanly and keeps its ring state.
    sampler.sampleOnce();
    sampler.start();
    EXPECT_TRUE(sampler.running());
    sampler.stop();
    EXPECT_GE(sampler.samplesTaken(), 1u);
}

TEST(ObsTelemetry, SampleIdsAreMonotonicAndRingWrapsAround)
{
    Registry reg;
    reg.setEnabled(true);
    const MetricId c = reg.counter("wrap.count");

    TelemetrySampler sampler(reg, manualConfig(4));
    for (int i = 0; i < 10; ++i) {
        reg.add(c, 1);
        EXPECT_EQ(sampler.sampleOnce(),
                  static_cast<std::uint64_t>(i) + 1);
    }
    EXPECT_EQ(sampler.samplesTaken(), 10u);

    // Only the last capacity samples survive, oldest first, ids
    // strictly increasing, timestamps non-decreasing.
    const std::vector<TelemetrySample> tail = sampler.lastSamples(32);
    ASSERT_EQ(tail.size(), 4u);
    EXPECT_EQ(tail.front().id, 7u);
    EXPECT_EQ(tail.back().id, 10u);
    for (std::size_t i = 1; i < tail.size(); ++i) {
        EXPECT_LT(tail[i - 1].id, tail[i].id);
        EXPECT_LE(tail[i - 1].hostUs, tail[i].hostUs);
    }

    // The counter series is cumulative: sample id n carries n.
    const std::vector<obs::SeriesInfo> series = sampler.series();
    ASSERT_EQ(series.size(), 1u);
    EXPECT_EQ(series[0].name, "wrap.count");
    EXPECT_EQ(series[0].kind, MetricKind::Counter);
    for (const TelemetrySample &s : tail) {
        ASSERT_EQ(s.raw.size(), 1u);
        EXPECT_EQ(s.raw[0], s.id);
    }
}

TEST(ObsTelemetry, SeriesTableGrowsWithNewMetrics)
{
    Registry reg;
    reg.setEnabled(true);
    reg.add(reg.counter("first"), 1);

    TelemetrySampler sampler(reg, manualConfig());
    sampler.sampleOnce();
    EXPECT_EQ(sampler.series().size(), 1u);

    reg.add(reg.counter("second"), 1);
    sampler.sampleOnce();
    const std::vector<obs::SeriesInfo> series = sampler.series();
    ASSERT_EQ(series.size(), 2u);
    // Registration order, not name order.
    EXPECT_EQ(series[0].name, "first");
    EXPECT_EQ(series[1].name, "second");

    // The older sample reports only the series it knew about.
    const std::vector<TelemetrySample> tail = sampler.lastSamples(2);
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].raw.size(), 1u);
    EXPECT_EQ(tail[1].raw.size(), 2u);
}

TEST(ObsTelemetry, GaugeSeriesRoundTripsThroughBitCast)
{
    Registry reg;
    reg.setEnabled(true);
    const MetricId g = reg.gauge("level");
    reg.set(g, -2.25);

    TelemetrySampler sampler(reg, manualConfig());
    sampler.sampleOnce();
    const std::vector<TelemetrySample> tail = sampler.lastSamples(1);
    ASSERT_EQ(tail.size(), 1u);
    ASSERT_EQ(tail[0].raw.size(), 1u);
    EXPECT_DOUBLE_EQ(
        obs::seriesValue(MetricKind::Gauge, tail[0].raw[0]), -2.25);
}

// The satellite regression for `--metrics-interval` dump reuse: the
// sampler's retained snapshot must render the identical JSON document
// the registry itself renders, byte for byte, whenever the registry
// is quiescent — interval dumps and the final dump then always agree.
TEST(ObsTelemetry, RenderLatestJsonMatchesRegistryRender)
{
    Registry reg;
    reg.setEnabled(true);
    reg.add(reg.counter("zz.last"), 7);
    reg.add(reg.counter("aa.first"), 3);
    reg.set(reg.gauge("mm.gauge"), 1.5);
    reg.observe(reg.histogram("hh.lat", {1.0, 10.0}), 5.0);

    TelemetrySampler sampler(reg, manualConfig());
    sampler.sampleOnce();
    EXPECT_EQ(sampler.renderLatest(obs::renderMetricsJson),
              obs::renderMetricsJson(reg.snapshot()));
    EXPECT_TRUE(
        obs::checkMetricsJson(
            sampler.renderLatest(obs::renderMetricsJson))
            .ok);

    // Still identical after more traffic and another sample.
    reg.add(reg.counter("aa.first"), 9);
    sampler.sampleOnce();
    EXPECT_EQ(sampler.renderLatest(obs::renderMetricsJson),
              obs::renderMetricsJson(reg.snapshot()));
}

TEST(ObsTelemetry, ConcurrentSampleWhileIncrementIsCoherent)
{
    Registry reg;
    reg.setEnabled(true);
    const MetricId c = reg.counter("mt.count");
    TelemetrySampler sampler(reg, manualConfig(16));

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        while (!stop.load(std::memory_order_acquire))
            reg.add(c, 1);
    });
    std::thread scanner([&] {
        std::vector<TelemetrySample> scratch;
        for (int i = 0; i < 200; ++i)
            sampler.lastSamplesInto(scratch, 16);
    });
    for (int i = 0; i < 200; ++i)
        sampler.sampleOnce();
    stop.store(true, std::memory_order_release);
    writer.join();
    scanner.join();

    // Every surviving sample pair must show a non-decreasing counter.
    const std::vector<TelemetrySample> tail = sampler.lastSamples(16);
    ASSERT_GE(tail.size(), 2u);
    for (std::size_t i = 1; i < tail.size(); ++i)
        EXPECT_LE(tail[i - 1].raw[0], tail[i].raw[0]);
}

TEST(ObsOpenMetrics, NamesAreSanitized)
{
    EXPECT_EQ(obs::openMetricsName("sim.trace_cache.hits"),
              "suit_sim_trace_cache_hits");
    EXPECT_EQ(obs::openMetricsName("fleet.shard-ms"),
              "suit_fleet_shard_ms");
}

TEST(ObsOpenMetrics, RenderedTextPassesValidator)
{
    Registry reg;
    reg.setEnabled(true);
    reg.add(reg.counter("sim.runs"), 41);
    reg.set(reg.gauge("queue.depth"), 3.0);
    reg.observe(reg.histogram("lat.ms", {1.0, 10.0}), 5.0);

    TelemetrySampler sampler(reg, manualConfig());
    sampler.sampleOnce();
    const std::string doc =
        sampler.renderLatest(obs::renderOpenMetrics);

    const obs::CheckResult result = obs::checkOpenMetrics(doc);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.hasName("suit_sim_runs"));
    EXPECT_NE(doc.find("suit_sim_runs_total 41"), std::string::npos);
    EXPECT_NE(doc.find("# EOF"), std::string::npos);
}

TEST(ObsOpenMetrics, ValidatorRejectsTamperedDocuments)
{
    // Duplicate metric/label pair.
    EXPECT_FALSE(obs::checkOpenMetrics("# TYPE suit_a counter\n"
                                       "suit_a_total 1\n"
                                       "suit_a_total 2\n"
                                       "# EOF\n")
                     .ok);
    // Missing terminator.
    EXPECT_FALSE(obs::checkOpenMetrics("# TYPE suit_a counter\n"
                                       "suit_a_total 1\n")
                     .ok);
    // Sample without a preceding TYPE line.
    EXPECT_FALSE(obs::checkOpenMetrics("suit_a_total 1\n# EOF\n").ok);
    // Histogram buckets must be cumulative.
    EXPECT_FALSE(
        obs::checkOpenMetrics("# TYPE suit_h histogram\n"
                              "suit_h_bucket{le=\"1\"} 5\n"
                              "suit_h_bucket{le=\"+Inf\"} 3\n"
                              "suit_h_count 3\n"
                              "# EOF\n")
            .ok);
}

TEST(ObsOpenMetrics, ServerServesScrapesOnEphemeralPort)
{
    Registry reg;
    reg.setEnabled(true);
    reg.add(reg.counter("scrape.count"), 5);
    TelemetrySampler sampler(reg, manualConfig());

    obs::MetricsServer server(0, [&] {
        sampler.sampleOnce();
        return sampler.renderLatest(obs::renderOpenMetrics);
    });
    ASSERT_TRUE(server.ok());
    ASSERT_NE(server.port(), 0);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, request, sizeof(request) - 1, 0),
              static_cast<ssize_t>(sizeof(request) - 1));

    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);

    EXPECT_NE(response.find("200 OK"), std::string::npos);
    const std::size_t body_at = response.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    const std::string body = response.substr(body_at + 4);
    const obs::CheckResult result = obs::checkOpenMetrics(body);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.hasName("suit_scrape_count"));
    EXPECT_EQ(server.scrapes(), 1u);
    server.stop();
}

TEST(ObsFlight, DumpWritesValidJsonlWithSpans)
{
    Registry reg;
    reg.setEnabled(true);
    const MetricId c = reg.counter("flight.count");
    TelemetrySampler sampler(reg, manualConfig());
    for (int i = 0; i < 3; ++i) {
        reg.add(c, 2);
        sampler.sampleOnce();
    }

    const ScratchFile out("flight.jsonl");
    obs::FlightConfig cfg;
    cfg.path = out.path();
    cfg.installSignalHandlers = false;
    obs::FlightRecorder recorder(cfg, &sampler);
    {
        obs::Span outer("outer", "test");
        obs::Span inner("inner", "test");
        ASSERT_TRUE(recorder.dump("deadline"));
    }
    EXPECT_EQ(recorder.dumps(), 1u);

    const std::string doc = out.read();
    const obs::CheckResult result = obs::checkFlightJsonl(doc);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.hasName("flight.count"));
    EXPECT_NE(doc.find("\"reason\": \"deadline\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"outer\""), std::string::npos);
    EXPECT_NE(doc.find("\"inner\""), std::string::npos);
}

/** Occurrences of @p needle in @p hay. */
std::size_t
countOf(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

/** Samples in obs::metrics() histogram @p name (0 when absent). */
std::uint64_t
histogramTotal(const std::string &name)
{
    const obs::Snapshot snap = obs::metrics().snapshot();
    const obs::MetricValue *m = snap.find(name);
    return m ? m->histogram.total() : 0;
}

/**
 * The three sinks of one Span, all on: a stack line while it is
 * open, one 'X' event with its args and one histogram sample after.
 */
TEST(ObsFlight, SpanFeedsStackTraceAndHistogram)
{
    obs::Registry &reg = obs::metrics();
    reg.setEnabled(true);
    const MetricId ms = reg.histogram("test.span_ms", {1.0, 10.0});
    const std::uint64_t before = histogramTotal("test.span_ms");
    obs::TraceSession session;
    obs::setActiveTrace(&session);

    const ScratchFile out("span.jsonl");
    obs::FlightConfig cfg;
    cfg.path = out.path();
    cfg.installSignalHandlers = false;
    {
        obs::FlightRecorder recorder(cfg);
        obs::Span span("test.region", "test", ms);
        span.arg("index", 7);
        ASSERT_TRUE(recorder.dump("cancelled"));
    }
    obs::setActiveTrace(nullptr);
    reg.setEnabled(false);

    const std::string doc = out.read();
    EXPECT_TRUE(obs::checkFlightJsonl(doc).ok);
    EXPECT_EQ(countOf(doc, "\"span_thread\""), 1u);
    EXPECT_NE(doc.find("\"name\": \"test.region\", \"cat\": \"test\""),
              std::string::npos);

    const std::string trace = session.render();
    const obs::CheckResult result = obs::checkChromeTrace(trace);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(countOf(trace, "\"ph\": \"X\""), 1u);
    EXPECT_NE(trace.find("\"name\": \"test.region\", \"cat\": "
                         "\"test\", \"args\": {\"index\": 7}"),
              std::string::npos);

    EXPECT_EQ(histogramTotal("test.span_ms"), before + 1);
}

/**
 * With every sink off when it opens, a span records nothing, even
 * if the sinks come on before it closes.
 */
TEST(ObsFlight, SpansAreFreeWhenNoRecorderIsArmed)
{
    obs::Registry &reg = obs::metrics();
    const MetricId ms = reg.histogram("test.idle_span_ms", {1.0});
    ASSERT_FALSE(reg.enabled());
    ASSERT_EQ(obs::FlightRecorder::active(), nullptr);
    ASSERT_EQ(obs::activeTrace(), nullptr);

    obs::TraceSession session;
    const std::size_t events = session.eventCount();
    const ScratchFile out("idle.jsonl");
    obs::FlightConfig cfg;
    cfg.path = out.path();
    cfg.installSignalHandlers = false;
    {
        obs::Span span("unrecorded", "test", ms);
        span.arg("index", 1);
        reg.setEnabled(true);
        obs::setActiveTrace(&session);
        obs::FlightRecorder recorder(cfg);
        ASSERT_TRUE(recorder.dump("cancelled"));
    }
    obs::setActiveTrace(nullptr);
    reg.setEnabled(false);

    EXPECT_EQ(out.read().find("unrecorded"), std::string::npos);
    EXPECT_EQ(session.eventCount(), events);
    EXPECT_EQ(histogramTotal("test.idle_span_ms"), 0u);
}

TEST(ObsFlight, ValidatorRejectsTamperedDumps)
{
    const char header[] =
        "{\"schema\": \"suit-flight-v1\", \"reason\": \"sigint\", "
        "\"interval_s\": 0.1, \"series\": "
        "[{\"name\": \"a\", \"kind\": \"counter\"}]}\n";

    // Decreasing counter between consecutive samples.
    EXPECT_FALSE(
        obs::checkFlightJsonl(
            std::string(header) +
            "{\"sample\": 1, \"host_us\": 1.0, \"values\": [5]}\n"
            "{\"sample\": 2, \"host_us\": 2.0, \"values\": [3]}\n")
            .ok);
    // Non-monotonic sample ids.
    EXPECT_FALSE(
        obs::checkFlightJsonl(
            std::string(header) +
            "{\"sample\": 2, \"host_us\": 1.0, \"values\": [1]}\n"
            "{\"sample\": 1, \"host_us\": 2.0, \"values\": [2]}\n")
            .ok);
    // Duplicate series names in the header.
    EXPECT_FALSE(
        obs::checkFlightJsonl(
            "{\"schema\": \"suit-flight-v1\", \"reason\": \"x\", "
            "\"series\": [{\"name\": \"a\", \"kind\": \"counter\"}, "
            "{\"name\": \"a\", \"kind\": \"gauge\"}]}\n")
            .ok);
    // Wrong schema string.
    EXPECT_FALSE(
        obs::checkFlightJsonl("{\"schema\": \"other\", "
                              "\"reason\": \"x\", \"series\": []}\n")
            .ok);
    // A well-formed dump passes.
    EXPECT_TRUE(
        obs::checkFlightJsonl(
            std::string(header) +
            "{\"sample\": 1, \"host_us\": 1.0, \"values\": [1]}\n"
            "{\"sample\": 2, \"host_us\": 2.0, \"values\": [4]}\n")
            .ok);
}

} // namespace

/**
 * @file
 * Unit tests for the continuous-telemetry stack: the
 * TelemetrySampler ring (wrap-around, concurrent reads, start/stop
 * idempotence), the OpenMetrics exposition (renderer, TCP server,
 * validator), the FlightRecorder JSONL dumps and the obs::Span
 * sinks.
 *
 * The concurrent tests are in the sanitizer matrix (label `obs`,
 * thread + undefined): the ring must be TSan-clean while a worker
 * hammers registry counters mid-sample and a reader scans the tail.
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <sstream>
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

/** Sampling period that leaves the background thread idle. */
constexpr double kIdleS = 3600.0;

/** Metric names of the newest sample, in registration order. */
std::vector<std::string>
newestNames(const TelemetrySampler &sampler)
{
    const TelemetrySampler::Tail tail = sampler.tail();
    std::vector<std::string> names;
    if (tail.size() > 0)
        for (const obs::MetricValue &m :
             tail[tail.size() - 1].snapshot.metrics)
            names.push_back(m.name);
    return names;
}

TEST(ObsTelemetry, StartStopIsIdempotentAndRestartable)
{
    Registry reg;
    reg.setEnabled(true);
    TelemetrySampler sampler(reg, kIdleS);

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

    TelemetrySampler sampler(reg, kIdleS);
    const std::uint64_t taken = TelemetrySampler::kRingSamples + 6;
    for (std::uint64_t i = 0; i < taken; ++i) {
        reg.add(c, 1);
        EXPECT_EQ(sampler.sampleOnce(), i + 1);
    }
    EXPECT_EQ(sampler.samplesTaken(), taken);

    // Only the last kRingSamples samples survive, oldest first, ids
    // strictly increasing, timestamps non-decreasing.
    const TelemetrySampler::Tail tail = sampler.tail();
    ASSERT_EQ(tail.size(), TelemetrySampler::kRingSamples);
    EXPECT_EQ(tail[0].id, 7u);
    EXPECT_EQ(tail[tail.size() - 1].id, taken);
    for (std::size_t i = 1; i < tail.size(); ++i) {
        EXPECT_LT(tail[i - 1].id, tail[i].id);
        EXPECT_LE(tail[i - 1].hostUs, tail[i].hostUs);
    }

    // The counter series is cumulative: sample id n carries n.
    for (std::size_t i = 0; i < tail.size(); ++i) {
        const std::vector<obs::MetricValue> &metrics =
            tail[i].snapshot.metrics;
        ASSERT_EQ(metrics.size(), 1u);
        EXPECT_EQ(metrics[0].name, "wrap.count");
        EXPECT_EQ(metrics[0].kind, MetricKind::Counter);
        EXPECT_EQ(metrics[0].count, tail[i].id);
    }
}

TEST(ObsTelemetry, SeriesTableGrowsWithNewMetrics)
{
    Registry reg;
    reg.setEnabled(true);
    reg.add(reg.counter("first"), 1);

    TelemetrySampler sampler(reg, kIdleS);
    sampler.sampleOnce();
    EXPECT_EQ(newestNames(sampler).size(), 1u);

    reg.add(reg.counter("second"), 1);
    sampler.sampleOnce();
    // Registration order, not name order.
    EXPECT_EQ(newestNames(sampler),
              (std::vector<std::string>{"first", "second"}));

    // The older sample reports only the series it knew about.
    const TelemetrySampler::Tail tail = sampler.tail();
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].snapshot.metrics.size(), 1u);
    EXPECT_EQ(tail[1].snapshot.metrics.size(), 2u);
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

    TelemetrySampler sampler(reg, kIdleS);
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
    TelemetrySampler sampler(reg, kIdleS);

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        while (!stop.load(std::memory_order_acquire))
            reg.add(c, 1);
    });
    std::thread scanner([&] {
        for (int i = 0; i < 200; ++i) {
            const TelemetrySampler::Tail tail = sampler.tail();
            for (std::size_t j = 1; j < tail.size(); ++j)
                EXPECT_LT(tail[j - 1].id, tail[j].id);
        }
    });
    for (int i = 0; i < 200; ++i)
        sampler.sampleOnce();
    stop.store(true, std::memory_order_release);
    writer.join();
    scanner.join();

    // Every surviving sample pair must show a non-decreasing counter.
    const TelemetrySampler::Tail tail = sampler.tail();
    ASSERT_GE(tail.size(), 2u);
    for (std::size_t i = 1; i < tail.size(); ++i)
        EXPECT_LE(tail[i - 1].snapshot.metrics[0].count,
                  tail[i].snapshot.metrics[0].count);
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

    TelemetrySampler sampler(reg, kIdleS);
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
    TelemetrySampler sampler(reg, kIdleS);

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
    TelemetrySampler sampler(reg, kIdleS);
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

/** Line @p n (0-based) of @p doc, or "" past its end. */
std::string
lineOf(const std::string &doc, std::size_t n)
{
    std::istringstream in(doc);
    std::string line;
    for (std::size_t i = 0; i <= n; ++i)
        if (!std::getline(in, line))
            return "";
    return line;
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
 * Every metric reaches the dump, past any fixed series cap: the
 * header lists all of them and each sample line carries one value per
 * metric, gauges as plain doubles.
 */
TEST(ObsFlight, DumpCarriesEveryRegisteredSeries)
{
    Registry reg;
    reg.setEnabled(true);
    constexpr int kCounters = 300;
    for (int i = 0; i < kCounters; ++i)
        reg.add(reg.counter("c" + std::to_string(i)), i);
    reg.set(reg.gauge("level"), -2.25);
    TelemetrySampler sampler(reg, kIdleS);
    sampler.sampleOnce();
    sampler.sampleOnce();

    const ScratchFile out("wide.jsonl");
    obs::FlightConfig cfg;
    cfg.path = out.path();
    cfg.installSignalHandlers = false;
    obs::FlightRecorder recorder(cfg, &sampler);
    ASSERT_TRUE(recorder.dump("sigint"));

    const std::string doc = out.read();
    const obs::CheckResult result = obs::checkFlightJsonl(doc);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(countOf(lineOf(doc, 0), "{\"name\": "),
              static_cast<std::size_t>(kCounters + 1));
    EXPECT_TRUE(result.hasName("c0"));
    EXPECT_TRUE(result.hasName("c299"));
    EXPECT_TRUE(result.hasName("level"));

    const std::string last = lineOf(doc, 2);
    ASSERT_EQ(last.rfind("{\"sample\": 2,", 0), 0u) << last;
    // Two field separators, then one between each pair of values.
    EXPECT_EQ(countOf(last, ", "),
              static_cast<std::size_t>(2 + kCounters));
    EXPECT_NE(last.find(", 298, 299, -2.25]}"), std::string::npos)
        << last;
}

/**
 * A crash dump does not wait for the ring mutex: the crashing thread
 * may be the sampler, mid-sample.  With the mutex held elsewhere the
 * dump still writes the header and the span stacks, and no samples.
 */
TEST(ObsFlight, CrashDumpSkipsSamplesWhileTheRingIsLocked)
{
    Registry reg;
    reg.setEnabled(true);
    reg.add(reg.counter("held.count"), 1);
    TelemetrySampler sampler(reg, kIdleS);
    sampler.sampleOnce();

    const ScratchFile out("crash.jsonl");
    obs::FlightConfig cfg;
    cfg.path = out.path();
    cfg.installSignalHandlers = false;
    obs::FlightRecorder recorder(cfg, &sampler);

    std::promise<void> locked;
    std::promise<void> release;
    std::thread holder([&] {
        const TelemetrySampler::Tail tail = sampler.tail();
        locked.set_value();
        release.get_future().wait();
    });
    locked.get_future().wait();
    {
        obs::Span span("crash.region", "test");
        EXPECT_TRUE(recorder.dump("crash-signal", /*crash=*/true));
    }
    release.set_value();
    holder.join();

    std::string doc = out.read();
    EXPECT_TRUE(obs::checkFlightJsonl(doc).ok);
    EXPECT_NE(doc.find("\"reason\": \"crash-signal\""),
              std::string::npos);
    EXPECT_EQ(countOf(doc, "{\"sample\": "), 0u);
    EXPECT_NE(doc.find("\"crash.region\""), std::string::npos);

    // With the mutex free the same crash dump carries the sample.
    ASSERT_TRUE(recorder.dump("crash-signal", /*crash=*/true));
    doc = out.read();
    EXPECT_EQ(countOf(doc, "{\"sample\": "), 1u);
    EXPECT_TRUE(obs::checkFlightJsonl(doc).hasName("held.count"));
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

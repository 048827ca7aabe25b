/**
 * @file
 * Unit tests for obs::TraceSession: track allocation, event emission
 * (including from many threads at once) and the render format via
 * the structural validator.
 */

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.hh"
#include "obs/validate.hh"

namespace {

using namespace suit;
using obs::TraceSession;

TEST(ObsTrace, RenderIsValidChromeTrace)
{
    TraceSession session;
    const int track = session.newTrack(TraceSession::kSimPid, "dom");
    session.instant(TraceSession::kSimPid, track, 1.0, "pstate",
                    "sim", {{"to", "Cf"}, {"how", "wait"}});
    session.begin(TraceSession::kHostPid, session.threadTrack("main"),
                  0.0, "cell", "sweep");
    session.end(TraceSession::kHostPid, session.threadTrack("main"),
                5.0);
    session.complete(TraceSession::kHostPid,
                     session.threadTrack("main"), 6.0, 2.0, "job",
                     "exec", {{"index", 3}});

    const obs::CheckResult result =
        obs::checkChromeTrace(session.render());
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.hasName("pstate"));
    EXPECT_TRUE(result.hasName("cell"));
    EXPECT_TRUE(result.hasName("job"));
    EXPECT_EQ(session.dropped(), 0u);
}

TEST(ObsTrace, ThreadTrackIsStablePerThread)
{
    TraceSession session;
    const int a = session.threadTrack("main");
    const int b = session.threadTrack("ignored-on-reuse");
    EXPECT_EQ(a, b);

    int other = 0;
    std::thread t([&] { other = session.threadTrack("worker"); });
    t.join();
    EXPECT_NE(a, other);
}

TEST(ObsTrace, ArgValuesAreEscaped)
{
    TraceSession session;
    const int track = session.newTrack(TraceSession::kSimPid, "dom");
    session.instant(TraceSession::kSimPid, track, 0.0, "note", "sim",
                    {{"text", "quote \" backslash \\ newline \n"}});
    const std::string doc = session.render();
    const obs::CheckResult result = obs::checkChromeTrace(doc);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_NE(doc.find("\\\""), std::string::npos);
    EXPECT_NE(doc.find("\\\\"), std::string::npos);
    EXPECT_NE(doc.find("\\n"), std::string::npos);
}

/**
 * Many threads emitting concurrently: every event must land (below
 * the cap) and the resulting document must still be balanced.  Part
 * of the `obs` TSan label.
 */
TEST(ObsTrace, ConcurrentEmissionStaysBalanced)
{
    TraceSession session;
    constexpr int kThreads = 8;
    constexpr int kSpans = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const int track = session.threadTrack(
                "worker " + std::to_string(t));
            for (int i = 0; i < kSpans; ++i) {
                const double ts = session.hostNowUs();
                session.begin(TraceSession::kHostPid, track, ts,
                              "span", "test");
                session.instant(TraceSession::kHostPid, track, ts,
                                "tick", "test", {{"i", i}});
                session.end(TraceSession::kHostPid, track,
                            session.hostNowUs());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const obs::CheckResult result =
        obs::checkChromeTrace(session.render());
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(session.dropped(), 0u);
    // 3 events per span per thread, plus metadata events.
    EXPECT_GE(session.eventCount(),
              static_cast<std::size_t>(kThreads) * kSpans * 3);
}

TEST(ObsTrace, SimUsConvertsPicosecondTicks)
{
    // 1 tick = 1 ps; 5'000'000 ps = 5 µs.
    EXPECT_DOUBLE_EQ(TraceSession::simUs(5'000'000), 5.0);
}

} // namespace

/**
 * @file
 * Unit tests for obs::CliScope, the CLI wiring of the obs flags: it
 * starts a telemetry sampler only when a telemetry flag asks for one,
 * its --metrics-interval dumps ride the sampler thread and land
 * before finish(), --metrics-series is written by finish(), and
 * finish() runs once.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/setup.hh"
#include "obs/validate.hh"
#include "util/args.hh"

namespace {

using namespace suit;

/** Unique scratch path that is removed again on destruction. */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string &name)
        : path_(::testing::TempDir() + "suit_setup_" + name)
    {
        std::remove(path_.c_str());
    }
    ~ScratchFile()
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".tmp").c_str());
    }
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

/** An ArgParser with the obs flags, parsed from @p args. */
class ObsArgs
{
  public:
    explicit ObsArgs(std::initializer_list<std::string> args)
        : parser_("test", "a test tool")
    {
        obs::addCliOptions(parser_);
        strings_.emplace_back("prog");
        strings_.insert(strings_.end(), args);
        std::vector<char *> ptrs;
        for (std::string &s : strings_)
            ptrs.push_back(s.data());
        EXPECT_TRUE(
            parser_.parse(static_cast<int>(ptrs.size()), ptrs.data()));
    }
    const util::ArgParser &parser() const { return parser_; }

  private:
    util::ArgParser parser_;
    std::vector<std::string> strings_;
};

TEST(ObsCliScope, NoTelemetryFlagStartsNoSampler)
{
    const ObsArgs args({});
    obs::CliScope scope(args.parser());
    EXPECT_FALSE(scope.metricsEnabled());
    EXPECT_EQ(scope.trace(), nullptr);
    EXPECT_EQ(scope.telemetry(), nullptr);
    EXPECT_EQ(scope.metricsServer(), nullptr);
    EXPECT_EQ(scope.flightRecorder(), nullptr);
    scope.finish();
}

TEST(ObsCliScope, MetricsIntervalDumpsBeforeFinish)
{
    const ScratchFile out("interval.json");
    const ObsArgs args(
        {"--metrics", out.path(), "--metrics-interval", "0.02"});
    obs::CliScope scope(args.parser());
    ASSERT_NE(scope.telemetry(), nullptr);
    EXPECT_TRUE(scope.telemetry()->running());
    obs::metrics().add(obs::metrics().counter("setup.test.ticks"), 3);

    // The dump rides the sampler thread: give it a bounded wait.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    obs::CheckResult mid;
    while (std::chrono::steady_clock::now() < deadline) {
        mid = obs::checkMetricsJson(out.read());
        if (mid.ok)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(mid.ok) << mid.error;
    scope.finish();
}

TEST(ObsCliScope, MetricsSeriesIsWrittenByFinish)
{
    const ScratchFile out("series.txt");
    const ObsArgs args({"--metrics-series", out.path()});
    obs::CliScope scope(args.parser());
    ASSERT_NE(scope.telemetry(), nullptr);
    EXPECT_TRUE(scope.metricsEnabled());
    EXPECT_EQ(scope.trace(), nullptr);
    obs::metrics().add(obs::metrics().counter("setup.test.series"), 2);
    scope.finish();

    const obs::CheckResult result = obs::checkOpenMetrics(out.read());
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.hasName("suit_setup_test_series"));
}

TEST(ObsCliScope, SecondFinishIsANoOp)
{
    const ScratchFile out("twice.json");
    const ScratchFile series("twice.om");
    const ObsArgs args({"--metrics", out.path(), "--metrics-series",
                        series.path()});
    obs::CliScope scope(args.parser());
    obs::metrics().add(obs::metrics().counter("setup.test.twice"), 1);
    scope.finish();
    EXPECT_TRUE(obs::checkMetricsJson(out.read()).ok);
    EXPECT_FALSE(obs::metrics().enabled());

    std::remove(out.path().c_str());
    std::remove(series.path().c_str());
    scope.finish();
    EXPECT_EQ(out.read(), "");
    EXPECT_EQ(series.read(), "");
}

} // namespace

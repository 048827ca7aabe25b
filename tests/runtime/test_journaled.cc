/**
 * @file
 * runtime::runJournaled dispatch-order tests: the serial path starts
 * units in the given permutation, and a unit exception propagates
 * lowest index first whatever the order and worker count — the loop
 * does not start units above the lowest failure seen so far.
 */

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/journaled.hh"
#include "runtime/run_context.hh"
#include "runtime/session.hh"

namespace {

using namespace suit;

constexpr runtime::JournaledNames kNames{"test.unit", "test", "unit",
                                         "test", "test.units"};

TEST(RunJournaled, SerialPathFollowsTheDispatchOrder)
{
    runtime::SessionConfig config;
    config.jobs = 1;
    runtime::Session session(config);
    runtime::RunContext ctx;
    std::vector<std::size_t> started;
    runtime::JournaledUnits units;
    units.run = [&](std::size_t i, runtime::JournaledUnit &) {
        started.push_back(i);
        return true;
    };
    units.order = {3, 1, 4, 0, 2};
    const runtime::JournaledCounts counts =
        runtime::runJournaled(session, ctx, 5, {5, 1}, kNames, units);
    EXPECT_EQ(started, units.order);
    EXPECT_EQ(counts.executed, 5u);
    EXPECT_EQ(counts.skipped, 0u);
}

TEST(RunJournaled, RethrowsLowestIndexWhateverTheOrder)
{
    constexpr std::size_t kUnits = 16;
    std::vector<std::size_t> identity(kUnits);
    std::iota(identity.begin(), identity.end(), std::size_t{0});
    std::vector<std::size_t> reversed(identity.rbegin(),
                                      identity.rend());

    for (const int jobs : {1, 4}) {
        for (const std::vector<std::size_t> &order :
             {identity, reversed}) {
            runtime::SessionConfig config;
            config.jobs = jobs;
            runtime::Session session(config);
            runtime::RunContext ctx;
            std::mutex mu;
            std::vector<std::size_t> started;
            runtime::JournaledUnits units;
            units.run = [&](std::size_t i, runtime::JournaledUnit &) {
                {
                    std::lock_guard lock(mu);
                    started.push_back(i);
                }
                if (i == 3 || i == 11)
                    throw std::runtime_error("index " +
                                             std::to_string(i));
                return true;
            };
            units.order = order;
            try {
                runtime::runJournaled(session, ctx, kUnits,
                                      {kUnits, 1}, kNames, units);
                FAIL() << "a unit exception was swallowed";
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "index 3") << "jobs " << jobs;
            }
            // Every unit below the lowest failure ran.
            for (std::size_t i = 0; i <= 3; ++i)
                EXPECT_NE(std::find(started.begin(), started.end(), i),
                          started.end())
                    << "unit " << i << ", jobs " << jobs;
            // Serially in index order, nothing above it starts: the
            // fail-fast behaviour of an index-order loop.
            if (jobs == 1 && order == identity) {
                EXPECT_EQ(started.size(), 4u);
            }
        }
    }
}

} // namespace

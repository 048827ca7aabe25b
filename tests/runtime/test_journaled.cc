/**
 * @file
 * runtime::runJournaled dispatch-order tests: the serial path starts
 * units in the given permutation, and a unit exception propagates
 * lowest index first whatever the order and worker count — the loop
 * does not start units above the lowest failure seen so far.  On a
 * pool the order is cut into one lane of whole groups per worker:
 * each worker runs its lane front to back, then steals from the back
 * of the fullest lane, and every unit runs exactly once.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.hh"
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

TEST(RunJournaled, CutLanesStartAtTheNearestGroupStart)
{
    struct Case
    {
        std::size_t n;
        std::vector<std::size_t> groups;
        std::size_t lanes;
        std::vector<std::size_t> starts;
    };
    const std::vector<Case> cases = {
        // Ideal starts 6, 12, 18: 6 is a group start, 13 is nearer
        // 12 than 10, 19 nearer 18 than 15.
        {24, {0, 3, 6, 10, 13, 15, 19, 22}, 4, {0, 6, 13, 19}},
        // 3 and 5 are both 1 from 4: the lower one wins.
        {8, {0, 3, 5}, 2, {0, 3}},
        // No groups: every position starts one (ties round down).
        {10, {}, 4, {0, 2, 5, 7}},
        // One group: it lands whole in one lane, the rest are empty.
        {10, {0}, 4, {0, 0, 0, 10}},
        // Fewer units than lanes.
        {2, {}, 4, {0, 0, 1, 1}},
    };
    for (const Case &c : cases) {
        const std::vector<std::size_t> starts =
            runtime::cutLanes(c.n, c.groups, c.lanes);
        EXPECT_EQ(starts, c.starts) << "n " << c.n;
        // No lane splits a group.
        for (const std::size_t start : starts)
            EXPECT_TRUE(start == c.n || c.groups.empty() ||
                        std::binary_search(c.groups.begin(),
                                           c.groups.end(), start))
                << "lane start " << start << ", n " << c.n;
    }
}

TEST(RunJournaled, LanesRunEveryUnitExactlyOnce)
{
    constexpr std::size_t kUnits = 203;
    std::vector<std::size_t> order(kUnits);
    for (std::size_t k = 0; k < kUnits; ++k)
        order[k] = (k * 37) % kUnits;
    // Groups of 1 to 13 units.
    std::vector<std::size_t> groups;
    for (std::size_t k = 0, size = 1; k < kUnits;
         k += size, size = size % 13 + 1)
        groups.push_back(k);

    runtime::SessionConfig config;
    config.jobs = 4;
    runtime::Session session(config);
    runtime::RunContext ctx;
    std::vector<std::atomic<int>> runs(kUnits);
    runtime::JournaledUnits units;
    units.run = [&](std::size_t i, runtime::JournaledUnit &) {
        runs[i].fetch_add(1);
        // Uneven unit costs, so lanes drain at different times.
        std::this_thread::sleep_for(
            std::chrono::microseconds(i % 7 == 0 ? 400 : 20));
        return true;
    };
    units.order = order;
    units.groups = groups;
    const runtime::JournaledCounts counts = runtime::runJournaled(
        session, ctx, kUnits, {kUnits, 1}, kNames, units);
    EXPECT_EQ(counts.executed, kUnits);
    for (std::size_t i = 0; i < kUnits; ++i)
        EXPECT_EQ(runs[i].load(), 1) << "unit " << i;
}

/**
 * A scripted run at jobs 4: every worker's first unit waits until
 * all four started one, then workers 1-3 hold theirs until worker 0
 * ran every other unit.  Worker 0's claims are then fully
 * determined: its own lane front to back, then steals from the back
 * of the fullest lane (lowest lane on a tie), a whole group while
 * the lane holds one behind its front, else one unit.
 */
TEST(RunJournaled, WorkersRunTheirLaneThenStealFromTheBack)
{
    constexpr std::size_t kUnits = 24;
    constexpr int kWorkers = 4;
    std::vector<std::size_t> order(kUnits);
    for (std::size_t k = 0; k < kUnits; ++k)
        order[k] = (k * 5) % kUnits;
    const std::vector<std::size_t> groups = {0, 3, 6, 10, 13, 15, 19, 22};
    // Lanes [0,6) [6,13) [13,19) [19,24), see
    // CutLanesStartAtTheNearestGroupStart.
    const std::vector<std::size_t> fronts = {0, 6, 13, 19};

    runtime::SessionConfig config;
    config.jobs = kWorkers;
    runtime::Session session(config);
    runtime::RunContext ctx;
    std::mutex mu;
    std::condition_variable cv;
    std::map<int, std::vector<std::size_t>> ran; // worker -> units
    std::size_t finished = 0;
    const auto wait = [&](std::unique_lock<std::mutex> &lock,
                          const auto &ready) {
        EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(60), ready))
            << "scripted schedule stalled";
    };
    runtime::JournaledUnits units;
    units.run = [&](std::size_t i, runtime::JournaledUnit &) {
        const int worker = exec::ThreadPool::currentWorkerIndex();
        std::unique_lock lock(mu);
        std::vector<std::size_t> &mine = ran[worker];
        mine.push_back(i);
        if (mine.size() == 1) {
            cv.notify_all();
            wait(lock, [&] { return ran.size() == kWorkers; });
            if (worker != 0)
                wait(lock, [&] {
                    return finished >= kUnits - (kWorkers - 1);
                });
        }
        ++finished;
        cv.notify_all();
        return true;
    };
    units.order = order;
    units.groups = groups;
    const runtime::JournaledCounts counts = runtime::runJournaled(
        session, ctx, kUnits, {kUnits, 1}, kNames, units);
    EXPECT_EQ(counts.executed, kUnits);

    // Positions in claim order: lane 0; lane 1's back group [10,13);
    // lane 2's [15,19); lane 3's [22,24); then single units from the
    // backs of lanes holding one group.
    const std::vector<std::size_t> positions = {
        0, 1, 2, 3, 4, 5, 10, 11, 12, 15, 16, 17, 18, 22, 23,
        9, 8, 21, 7, 14, 20};
    std::vector<std::size_t> expected;
    for (const std::size_t k : positions)
        expected.push_back(order[k]);
    EXPECT_EQ(ran[0], expected);
    for (int w = 1; w < kWorkers; ++w)
        EXPECT_EQ(ran[w],
                  std::vector<std::size_t>{order[fronts[w]]})
            << "worker " << w;
}

} // namespace

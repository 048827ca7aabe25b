/**
 * @file
 * Unit tests of the suit_exec thread pool: lifecycle, exception
 * propagation out of jobs, parallelFor edge cases, concurrent
 * callers on one pool and the per-worker counters.
 */

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.hh"

namespace {

using suit::exec::ThreadPool;
using suit::exec::WorkerStats;

TEST(ThreadPool, StartupShutdownIdle)
{
    // Pools of several sizes come up and join cleanly without ever
    // receiving a job.
    for (int workers : {1, 2, 4}) {
        ThreadPool pool(workers);
        EXPECT_EQ(pool.workers(), workers);
    }
}

TEST(ThreadPool, DefaultsToHardwareConcurrency)
{
    ThreadPool pool;
    EXPECT_EQ(pool.workers(), ThreadPool::hardwareConcurrency());
}

TEST(ThreadPool, ExceptionPropagatesOutOfParallelFor)
{
    ThreadPool pool(4);
    try {
        pool.parallelFor(16, [](std::size_t i) {
            if (i % 5 == 3)
                throw std::runtime_error(
                    "index " + std::to_string(i));
        });
        FAIL() << "parallelFor swallowed the job exception";
    } catch (const std::runtime_error &e) {
        // Lowest failing index (3) wins regardless of scheduling.
        EXPECT_STREQ(e.what(), "index 3");
    }
}

TEST(ThreadPool, ParallelForEmptyRange)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForSingleElement)
{
    ThreadPool pool(4);
    std::vector<int> hits(1, 0);
    pool.parallelFor(1, [&](std::size_t i) { hits[i] = 1; });
    EXPECT_EQ(hits[0], 1);
}

TEST(ThreadPool, ParallelForOddSizedRange)
{
    // 37 indices over 4 workers: every index runs exactly once.
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(37);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ConcurrentCallersEachGetTheirOwnBatch)
{
    // Two threads share one pool: each batch runs every one of its
    // own indices exactly once, and each caller gets the lowest
    // failing index of its own batch, never the other's.
    ThreadPool pool(3);
    constexpr std::size_t kN = 257;
    std::vector<std::atomic<int>> hits_a(kN);
    std::vector<std::atomic<int>> hits_b(kN);
    std::string error_a;
    std::string error_b;
    const auto caller = [&](std::vector<std::atomic<int>> &hits,
                            std::size_t first_bad, std::string &error) {
        try {
            pool.parallelFor(kN, [&](std::size_t i) {
                ++hits[i];
                if (i >= first_bad && i % 7 == first_bad % 7)
                    throw std::runtime_error("index " +
                                             std::to_string(i));
            });
        } catch (const std::runtime_error &e) {
            error = e.what();
        }
    };
    std::thread a([&] { caller(hits_a, 40, error_a); });
    std::thread b([&] { caller(hits_b, 101, error_b); });
    a.join();
    b.join();

    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits_a[i], 1) << "batch a, index " << i;
        EXPECT_EQ(hits_b[i], 1) << "batch b, index " << i;
    }
    EXPECT_EQ(error_a, "index 40");
    EXPECT_EQ(error_b, "index 101");

    std::uint64_t total = 0;
    for (const WorkerStats &s : pool.stats())
        total += s.jobsRun;
    EXPECT_EQ(total, 2 * kN);
}

TEST(ThreadPool, ShutdownIsIdempotentAndKeepsStatsReadable)
{
    ThreadPool pool(2);
    pool.parallelFor(8, [](std::size_t) {});
    pool.shutdown();
    pool.shutdown(); // second call is a no-op

    std::uint64_t total = 0;
    for (const WorkerStats &s : pool.stats())
        total += s.jobsRun;
    EXPECT_EQ(total, 8u);
}

TEST(ThreadPool, ShutdownWaitDoesNotCountAsQueueWait)
{
    // Regression: the wait that observed shutdown used to add its
    // entire blocked time to queueWaitNs, inflating the "queue wait"
    // footer column by however long the pool sat idle before
    // destruction.  Idle time between batches must never count.
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.parallelFor(1, [&](std::size_t) { ++ran; });

    // Let the workers idle well past any legitimate queue wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    pool.shutdown();

    for (const WorkerStats &s : pool.stats())
        EXPECT_LT(s.queueWaitS, 0.15)
            << "shutdown idle time leaked into queue wait";
    EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolDeathTest, NestedParallelForPanicsInsteadOfHanging)
{
    // Regression: a job calling parallelFor() on its own pool used
    // to deadlock, waiting on work only its own pool could run.  It
    // must abort with a clear message instead.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ThreadPool pool(2);
            pool.parallelFor(1, [&](std::size_t) {
                pool.parallelFor(4, [](std::size_t) {});
            });
        },
        "nested parallelFor");
}

TEST(ThreadPool, NestedParallelForAcrossDifferentPoolsIsAllowed)
{
    // Only same-pool re-entry deadlocks; an inner loop on a separate
    // pool has its own workers and must keep working.
    ThreadPool outer(2);
    ThreadPool inner(2);
    std::atomic<int> ran{0};
    outer.parallelFor(4, [&](std::size_t) {
        inner.parallelFor(4, [&](std::size_t) { ++ran; });
    });
    EXPECT_EQ(ran, 16);
}

TEST(ThreadPool, WorkerStatsAccountForAllJobs)
{
    ThreadPool pool(3);
    pool.parallelFor(50, [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
    const std::vector<WorkerStats> stats = pool.stats();
    ASSERT_EQ(stats.size(), 3u);
    std::uint64_t total = 0;
    for (const WorkerStats &s : stats) {
        total += s.jobsRun;
        EXPECT_GE(s.busyS, 0.0);
        EXPECT_GE(s.queueWaitS, 0.0);
    }
    EXPECT_EQ(total, 50u);
}

} // namespace

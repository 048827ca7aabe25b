/**
 * @file
 * Property tests of the session-owned exec::ThreadPool: randomized
 * task graphs through parallelFor must reproduce the serial loop bit
 * for bit (index-addressed results), and exception propagation must
 * deterministically surface the lowest failing index.  The
 * generators are seeded, so every run checks the same graphs.
 */

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.hh"
#include "runtime/session.hh"
#include "util/rng.hh"

namespace {

using namespace suit;
using runtime::Session;

/** A cheap pure function of (seed, index) with variable cost. */
std::uint64_t
mix(std::uint64_t seed, std::uint64_t i)
{
    std::uint64_t x = seed ^ (i * 0x9E3779B97F4A7C15ULL);
    // Data-dependent iteration count: tasks finish out of order.
    const std::uint64_t rounds = 1 + (x % 97);
    for (std::uint64_t r = 0; r < rounds; ++r) {
        x ^= x >> 33;
        x *= 0xFF51AFD7ED558CCDULL;
        x ^= x >> 29;
    }
    return x;
}

TEST(PoolProperties, ParallelForMatchesSerialLoopOnRandomGraphs)
{
    Session session({.jobs = 4});
    exec::ThreadPool *pool = session.pool();
    ASSERT_NE(pool, nullptr);

    util::Rng sizes(2024);
    for (int round = 0; round < 8; ++round) {
        const std::size_t n =
            1 + static_cast<std::size_t>(sizes.nextBelow(200));
        const std::uint64_t seed = sizes.next();

        std::vector<std::uint64_t> serial(n);
        for (std::size_t i = 0; i < n; ++i)
            serial[i] = mix(seed, i);

        std::vector<std::uint64_t> parallel(n);
        pool->parallelFor(
            n, [&](std::size_t i) { parallel[i] = mix(seed, i); });
        EXPECT_EQ(parallel, serial) << "round " << round;
    }
}

TEST(PoolProperties, LowestIndexExceptionWinsDeterministically)
{
    Session session({.jobs = 4});
    exec::ThreadPool *pool = session.pool();
    ASSERT_NE(pool, nullptr);

    util::Rng picks(99);
    for (int round = 0; round < 6; ++round) {
        const std::size_t n =
            16 + static_cast<std::size_t>(picks.nextBelow(48));
        // A random subset of indices throws; the survivor of the
        // race must always be the lowest one.
        std::vector<std::size_t> throwers;
        for (std::size_t i = 0; i < n; ++i)
            if (picks.nextBelow(4) == 0)
                throwers.push_back(i);
        if (throwers.empty())
            throwers.push_back(n / 2);
        const std::size_t lowest = throwers.front();

        std::atomic<std::uint64_t> sink{0};
        try {
            pool->parallelFor(n, [&](std::size_t i) {
                for (const std::size_t t : throwers)
                    if (i == t)
                        throw std::runtime_error(
                            "index " + std::to_string(i));
                sink.fetch_add(mix(1, i),
                               std::memory_order_relaxed);
            });
            FAIL() << "parallelFor swallowed the exception";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      "index " + std::to_string(lowest))
                << "round " << round;
        }
    }
}

TEST(PoolProperties, SessionPoolIsReusedAcrossRuns)
{
    // The counters accumulate across parallelFor calls: the pool is
    // one process-lifetime object, not rebuilt per run.
    Session session({.jobs = 2});
    exec::ThreadPool *pool = session.pool();
    ASSERT_NE(pool, nullptr);

    std::atomic<std::uint64_t> sink{0};
    for (int run = 0; run < 3; ++run)
        pool->parallelFor(10, [&](std::size_t i) {
            sink.fetch_add(i, std::memory_order_relaxed);
        });

    std::uint64_t total = 0;
    for (const exec::WorkerStats &w : session.workerStats())
        total += w.jobsRun;
    EXPECT_EQ(total, 30u);
    EXPECT_EQ(sink.load(), 3u * 45u);
}

} // namespace

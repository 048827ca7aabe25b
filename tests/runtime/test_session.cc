/**
 * @file
 * Session ownership tests: worker-count resolution, serial mode, the
 * per-worker SimWorkspace slots, the opt-in worker pinning option,
 * and the shared bounded TraceCache — LRU eviction under a tiny
 * capacity, pinned traces surviving their own eviction, and
 * bit-identical regeneration of an evicted trace.
 */

#include <memory>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.hh"
#include "runtime/session.hh"
#include "sim/trace_cache.hh"
#include "sim/workspace.hh"
#include "trace/profile.hh"
#include "trace/trace.hh"

namespace {

using namespace suit;
using runtime::Session;

TEST(Session, SerialModeHasNoPool)
{
    Session session({.jobs = 1});
    EXPECT_EQ(session.jobs(), 1);
    EXPECT_EQ(session.pool(), nullptr);
    EXPECT_TRUE(session.workerStats().empty());
    EXPECT_NE(session.workerFooter().find("serial"),
              std::string::npos);
}

TEST(Session, ExplicitWorkerCountBuildsAPool)
{
    Session session({.jobs = 3});
    EXPECT_EQ(session.jobs(), 3);
    ASSERT_NE(session.pool(), nullptr);
    EXPECT_EQ(session.pool()->workers(), 3);
    EXPECT_EQ(session.workerStats().size(), 3u);
    EXPECT_NE(session.workerFooter().find("#2"), std::string::npos);
}

TEST(Session, ZeroJobsResolvesToHardwareConcurrency)
{
    Session session;
    EXPECT_EQ(session.jobs(),
              exec::ThreadPool::hardwareConcurrency());
    EXPECT_EQ(session.config().traceCacheBytes,
              sim::TraceCache::kDefaultCapacityBytes);
}

TEST(Session, TraceCacheCapacityComesFromTheConfig)
{
    Session session(
        {.jobs = 1, .traceCacheBytes = std::size_t{8} << 20});
    EXPECT_EQ(session.traceCache().capacityBytes(),
              std::size_t{8} << 20);
}

/** Bitwise equality of two traces (the regeneration witness). */
void
expectIdenticalTraces(const trace::Trace &a, const trace::Trace &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.totalInstructions(), b.totalInstructions());
    EXPECT_EQ(a.ipc(), b.ipc());
    EXPECT_EQ(a.eventWeight(), b.eventWeight());
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].gap, b.events()[i].gap);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    }
}

TEST(Session, TinyCacheEvictsButPinnedTracesStayValid)
{
    // A capacity far below one trace: every insertion evicts the
    // previous resident, so the cache cycles while the shared_ptr
    // pins keep every returned trace alive and intact.
    Session session({.jobs = 1, .traceCacheBytes = 4096});
    sim::TraceCache &cache = session.traceCache();

    const auto &gcc = trace::profileByName("502.gcc");
    const auto &xz = trace::profileByName("557.xz");

    std::vector<std::shared_ptr<const trace::Trace>> pinned;
    for (int stream = 0; stream < 4; ++stream) {
        pinned.push_back(cache.get(gcc, 1, stream));
        pinned.push_back(cache.get(xz, 1, stream));
    }
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_LE(cache.entries(), pinned.size());
    EXPECT_EQ(cache.misses(), 8u);

    // Every pinned trace is still readable after its eviction.
    for (const auto &t : pinned) {
        ASSERT_NE(t, nullptr);
        EXPECT_GT(t->totalInstructions(), 0u);
    }

    // Regeneration after eviction is bit-identical: traces are pure
    // functions of (profile, seed, stream).
    const auto again = cache.get(gcc, 1, 0);
    expectIdenticalTraces(*pinned[0], *again);
}

TEST(Session, WorkspaceIsStablePerThread)
{
    // The session thread always gets slot 0; repeated calls hand back
    // the same object so warmed buffers survive across domains.
    Session session({.jobs = 1});
    sim::SimWorkspace &first = session.workspace();
    EXPECT_EQ(&first, &session.workspace());
}

TEST(Session, EachPoolWorkerGetsItsOwnWorkspace)
{
    Session session({.jobs = 3});
    ASSERT_NE(session.pool(), nullptr);

    // One slot per worker plus the session thread's; parallelFor
    // lands each index on some worker, and two tasks on the same
    // worker must see the same workspace while distinct workers see
    // distinct ones.
    sim::SimWorkspace *const session_ws = &session.workspace();
    std::vector<sim::SimWorkspace *> seen(3, nullptr);
    std::mutex mu;
    session.pool()->parallelFor(64, [&](std::size_t) {
        const int worker = exec::ThreadPool::currentWorkerIndex();
        ASSERT_GE(worker, 0);
        ASSERT_LT(worker, 3);
        sim::SimWorkspace *ws = &session.workspace();
        EXPECT_NE(ws, session_ws);
        std::lock_guard<std::mutex> lock(mu);
        if (seen[static_cast<std::size_t>(worker)] == nullptr)
            seen[static_cast<std::size_t>(worker)] = ws;
        EXPECT_EQ(seen[static_cast<std::size_t>(worker)], ws);
    });

    // Distinct workers -> distinct workspaces.
    std::vector<sim::SimWorkspace *> unique;
    for (sim::SimWorkspace *ws : seen) {
        if (ws == nullptr)
            continue;
        for (sim::SimWorkspace *other : unique)
            EXPECT_NE(ws, other);
        unique.push_back(ws);
    }
    EXPECT_GE(unique.size(), 1u);
}

TEST(Session, CurrentWorkerIndexIsMinusOneOffPool)
{
    EXPECT_EQ(exec::ThreadPool::currentWorkerIndex(), -1);
}

TEST(Session, LargeCacheNeverEvictsAndCountsHits)
{
    Session session({.jobs = 1});
    sim::TraceCache &cache = session.traceCache();
    const auto &nginx = trace::profileByName("Nginx");

    const auto first = cache.get(nginx, 7, 0);
    const auto second = cache.get(nginx, 7, 0);
    EXPECT_EQ(first.get(), second.get()); // same resident object
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_GT(cache.residentBytes(), 0u);
    EXPECT_LE(cache.residentBytes(), cache.capacityBytes());

    // A different key is a miss, not a hit.
    cache.get(nginx, 8, 0);
    EXPECT_EQ(cache.misses(), 2u);
}

} // namespace

/**
 * @file
 * Session: process-lifetime execution state shared by every engine.
 *
 * A Session owns exactly one exec::ThreadPool (absent in serial
 * mode) and one bounded sim::TraceCache, so a long-lived process — a
 * CLI running several sweeps, the future suit_serve daemon — pays
 * for workers and trace generation once and shares both across runs.
 * Engines (exec::SweepEngine, fleet::FleetEngine) borrow the Session
 * by reference; per-run state (cancellation, deadline, journal
 * policy) lives in RunContext instead.
 *
 * Ownership picture:
 *
 *   Session (process lifetime)
 *    +- exec::ThreadPool        one pool, null when jobs == 1
 *    +- sim::TraceCache         LRU-bounded, shared by all engines
 *   RunContext (per run)
 *    +- CancelToken             cancel / SIGINT link / deadline
 *    +- CheckpointPolicy        journal path + resume
 *    +- obs::TraceSession*      latched at construction
 *
 * The telemetry sampler is not Session state: obs::CliScope owns the
 * one sampler of a CLI run and starts it before any Session exists.
 */
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.hh"
#include "sim/trace_cache.hh"
#include "sim/workspace.hh"

namespace suit::runtime {

struct SessionConfig {
    /**
     * Worker count: 0 = ThreadPool::hardwareConcurrency(),
     * 1 = serial in-line execution (reference path), n > 1 = pool of
     * n workers.
     */
    int jobs = 0;
    /** Trace cache capacity in bytes (LRU eviction above it). */
    std::size_t traceCacheBytes =
        suit::sim::TraceCache::kDefaultCapacityBytes;
};

class Session
{
  public:
    explicit Session(SessionConfig config = {});

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Effective worker count (1 when running serially). */
    int jobs() const;

    /** The shared pool, or nullptr in serial mode. */
    suit::exec::ThreadPool *pool() { return pool_.get(); }

    /**
     * The calling thread's simulation workspace.
     *
     * The Session owns jobs() + 1 workspaces: slot 0 for the thread
     * that owns the Session (serial runs, engine setup), slots 1..n
     * for the pool's workers, addressed through
     * exec::ThreadPool::currentWorkerIndex().  Each thread only ever
     * sees its own slot, so the returned workspace needs no locking;
     * its contents are scratch, overwritten by the next evaluation
     * on the same thread.
     */
    suit::sim::SimWorkspace &workspace();

    /** The session-wide bounded trace cache. */
    suit::sim::TraceCache &traceCache() { return traces_; }
    const suit::sim::TraceCache &traceCache() const
    {
        return traces_;
    }

    const SessionConfig &config() const { return cfg_; }

    /**
     * Per-worker counters accumulated over every run so far (empty
     * in serial mode).
     */
    std::vector<suit::exec::WorkerStats> workerStats() const;

    /**
     * Render the per-worker counters as a footer table
     * ("worker | jobs | queue wait | busy"), or a one-line serial
     * notice in serial mode.
     */
    std::string workerFooter() const;

  private:
    SessionConfig cfg_;
    suit::sim::TraceCache traces_;
    std::unique_ptr<suit::exec::ThreadPool> pool_;
    /** Slot 0: session thread; slots 1..jobs(): pool workers. */
    std::vector<std::unique_ptr<suit::sim::SimWorkspace>> workspaces_;
};

} // namespace suit::runtime

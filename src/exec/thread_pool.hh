/**
 * @file
 * Fixed-size fork-join worker pool for experiment execution.
 *
 * Design points:
 *  - one batch at a time: parallelFor() publishes {body, n} and the
 *    persistent workers claim indices from one shared atomic cursor
 *    (fetch_add, so positions are claimed in increasing order) until
 *    it passes n; the caller sleeps until the last worker checks
 *    out.  Concurrent callers on one pool take turns;
 *  - exceptions thrown by a body are captured and the lowest failing
 *    index is rethrown to the caller, so failure reporting is
 *    deterministic too;
 *  - per-worker counters (jobs run, queue wait, busy time) as the
 *    first observability hook into experiment execution.
 *
 * Workers are persistent rather than spawned per call: flight-
 * recorder span slots and registry shards are claimed per thread and
 * never released, so a long-lived Session must reuse its threads.
 *
 * Determinism contract: the pool itself never reorders *results* —
 * bodies write into index-addressed slots, so a pool of any size
 * produces bit-identical output to a serial loop as long as each
 * body is a pure function of its index.
 */

#ifndef SUIT_EXEC_THREAD_POOL_HH
#define SUIT_EXEC_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace suit::exec {

/** Per-worker execution counters (snapshot, see ThreadPool::stats). */
struct WorkerStats
{
    /** Jobs executed by this worker. */
    std::uint64_t jobsRun = 0;
    /** Seconds spent inside a batch without running a job. */
    double queueWaitS = 0.0;
    /** Seconds spent executing jobs. */
    double busyS = 0.0;
};

/** Fixed-size fork-join pool: one parallelFor() batch at a time. */
class ThreadPool
{
  public:
    /**
     * @param workers worker thread count; 0 selects
     *        hardwareConcurrency().
     */
    explicit ThreadPool(int workers = 0);

    /** Joins all workers. */
    ~ThreadPool();

    /**
     * Join every worker once the running batch (if any) finished
     * (idempotent; the destructor calls it too).  After shutdown()
     * the pool accepts no new work, but stats() still reads the
     * final counters — which is what the footer rendering and the
     * shutdown-accounting tests rely on.
     */
    void shutdown();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    int workers() const { return static_cast<int>(threads_.size()); }

    /**
     * Index of the pool worker running the current thread, or -1 on
     * any thread that is not a pool worker (including the thread
     * that constructed the pool).  Lets per-worker state — e.g. the
     * Session's SimWorkspace slots — be addressed without plumbing
     * the index through every job signature.  Indices of different
     * pools overlap; with more than one live pool, combine with a
     * pool identity check.
     */
    static int currentWorkerIndex();

    /**
     * Run body(0) .. body(n-1) across the workers and wait.
     *
     * If any bodies throw, the exception of the lowest-index failing
     * job is rethrown after all jobs finished (deterministic
     * regardless of scheduling).
     *
     * Must not be called from a worker of this same pool: that
     * worker would wait on a batch only it could finish, so it is
     * detected with a panic instead of a hang.  Calling it from a
     * worker of a *different* pool is allowed.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /** Snapshot of the per-worker counters. */
    std::vector<WorkerStats> stats() const;

    /** std::thread::hardware_concurrency with a >= 1 floor. */
    static int hardwareConcurrency();

  private:
    /** Counter cell updated only by its owning worker (atomically
     *  relaxed, so concurrent stats() snapshots are race-free). */
    struct WorkerCell
    {
        std::atomic<std::uint64_t> jobsRun{0};
        std::atomic<std::uint64_t> queueWaitNs{0};
        std::atomic<std::uint64_t> busyNs{0};
    };

    void workerMain(std::size_t index);

    /** Claim and run indices of the current batch until the cursor
     *  passes its end. */
    void runBatch(WorkerCell &cell,
                  const std::function<void(std::size_t)> &body,
                  std::size_t n);

    /** Serialises parallelFor() callers and shutdown(). */
    std::mutex callerMu_;

    /** Guards the batch fields below and the two condvars. */
    std::mutex mu_;
    std::condition_variable wake_; //!< workers: new batch or stop
    std::condition_variable done_; //!< caller: last worker out
    /** The published batch; null between batches. */
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t n_ = 0;
    std::uint64_t generation_ = 0; //!< bumped per published batch
    int active_ = 0; //!< workers checked into the current batch
    bool stopping_ = false;
    /** Lowest failing index of the current batch and its error. */
    std::size_t errorIndex_ = 0;
    std::exception_ptr error_;

    /** Next unclaimed index of the current batch (own cache line:
     *  every claim writes it). */
    alignas(64) std::atomic<std::size_t> cursor_{0};

    std::vector<std::unique_ptr<WorkerCell>> cells_;
    std::vector<std::thread> threads_;
    bool joined_ = false; //!< shutdown() already ran
};

} // namespace suit::exec

#endif // SUIT_EXEC_THREAD_POOL_HH

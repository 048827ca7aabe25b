#include "exec/thread_pool.hh"

#include <chrono>
#include <exception>

#include "obs/registry.hh"
#include "obs/trace.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace suit::exec {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * The pool whose worker the current thread is (null on non-worker
 * threads).  Lets parallelFor() detect the nested-use deadlock: a
 * job that re-enters parallelFor() on its own pool waits for a batch
 * that only this pool's workers, itself included, can finish.
 */
thread_local const ThreadPool *tls_worker_pool = nullptr;

/**
 * Index of the current thread within its pool (-1 off-pool).  Read
 * through ThreadPool::currentWorkerIndex() to address per-worker
 * state such as the Session's simulation workspaces.
 */
thread_local int tls_worker_index = -1;

std::uint64_t
elapsedNs(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

} // namespace

int
ThreadPool::hardwareConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int
ThreadPool::currentWorkerIndex()
{
    return tls_worker_index;
}

ThreadPool::ThreadPool(int workers)
{
    const int count = workers > 0 ? workers : hardwareConcurrency();
    cells_.reserve(static_cast<std::size_t>(count));
    threads_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        cells_.push_back(std::make_unique<WorkerCell>());
    for (int i = 0; i < count; ++i)
        threads_.emplace_back(
            [this, i] { workerMain(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::shutdown()
{
    // Taking the caller lock waits out a batch in flight on another
    // thread.
    std::lock_guard caller(callerMu_);
    if (joined_)
        return;
    joined_ = true;
    {
        std::lock_guard lock(mu_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::runBatch(WorkerCell &cell,
                     const std::function<void(std::size_t)> &body,
                     std::size_t n)
{
    const auto check_in = Clock::now();
    std::uint64_t busy_ns = 0;
    for (;;) {
        const std::size_t i =
            cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            break;
        const auto job_start = Clock::now();
        try {
            body(i);
        } catch (...) {
            std::lock_guard lock(mu_);
            if (!error_ || i < errorIndex_) {
                errorIndex_ = i;
                error_ = std::current_exception();
            }
        }
        const std::uint64_t job_ns = elapsedNs(job_start, Clock::now());
        busy_ns += job_ns;
        cell.busyNs.fetch_add(job_ns, std::memory_order_relaxed);
        cell.jobsRun.fetch_add(1, std::memory_order_relaxed);
    }
    // Queue wait is the batch time this worker spent not running a
    // job (claiming indices and timing them); idle time between
    // batches never counts.
    cell.queueWaitNs.fetch_add(
        elapsedNs(check_in, Clock::now()) - busy_ns,
        std::memory_order_relaxed);
}

void
ThreadPool::workerMain(std::size_t index)
{
    tls_worker_pool = this;
    tls_worker_index = static_cast<int>(index);
    WorkerCell &cell = *cells_[index];

    // Latched once per worker: the session (installed before the pool
    // per the obs::CliScope contract) outlives every worker thread.
    obs::TraceSession *trace = obs::activeTrace();
    int track = 0;
    if (trace) {
        track = trace->threadTrack(
            suit::util::sformat("worker %zu", index));
        trace->begin(obs::TraceSession::kHostPid, track,
                     trace->hostNowUs(), "worker", "exec",
                     {{"index", static_cast<std::uint64_t>(index)}});
    }

    std::uint64_t seen = 0; // last batch this worker checked into
    for (;;) {
        const std::function<void(std::size_t)> *body = nullptr;
        std::size_t n = 0;
        {
            std::unique_lock lock(mu_);
            wake_.wait(lock, [&] {
                return stopping_ || (body_ && generation_ != seen);
            });
            if (!body_ || generation_ == seen)
                break; // stopping, and no batch left to join
            seen = generation_;
            body = body_;
            n = n_;
            ++active_;
        }
        runBatch(cell, *body, n);
        std::lock_guard lock(mu_);
        if (--active_ == 0)
            done_.notify_one();
    }

    // Fold this worker's lifetime counters into the registry on the
    // way out, so a CLI's --metrics dump aggregates the whole pool.
    obs::Registry &reg = obs::metrics();
    if (reg.enabled()) {
        reg.add(reg.counter("exec.workers"));
        reg.add(reg.counter("exec.jobs"),
                cell.jobsRun.load(std::memory_order_relaxed));
        reg.add(reg.counter("exec.queue_wait_us"),
                cell.queueWaitNs.load(std::memory_order_relaxed) /
                    1000);
        reg.add(reg.counter("exec.busy_us"),
                cell.busyNs.load(std::memory_order_relaxed) / 1000);
    }
    if (trace)
        trace->end(obs::TraceSession::kHostPid, track,
                   trace->hostNowUs());
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    // A worker of this pool calling back into parallelFor() would
    // wait on a batch while occupying a thread the batch needs — a
    // silent deadlock.  Workers of *other* pools are fine.
    SUIT_ASSERT(tls_worker_pool != this,
                "nested parallelFor() from inside a worker of the "
                "same pool would deadlock; run the inner loop inline "
                "or on a separate pool");

    if (n == 0)
        return;

    std::lock_guard caller(callerMu_);
    SUIT_ASSERT(!joined_, "parallelFor() on a shut-down thread pool");

    std::unique_lock lock(mu_);
    body_ = &body;
    n_ = n;
    cursor_.store(0, std::memory_order_relaxed);
    ++generation_;
    wake_.notify_all();
    // Every claim past n was made by a checked-in worker, and a
    // worker checks out only after its last claim ran: once the
    // cursor passed n with nobody checked in, every body finished.
    done_.wait(lock, [&] {
        return active_ == 0 &&
               cursor_.load(std::memory_order_relaxed) >= n;
    });
    body_ = nullptr;

    std::exception_ptr error = std::move(error_);
    error_ = nullptr;
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

std::vector<WorkerStats>
ThreadPool::stats() const
{
    std::vector<WorkerStats> out;
    out.reserve(cells_.size());
    for (const auto &cell : cells_) {
        WorkerStats s;
        s.jobsRun = cell->jobsRun.load(std::memory_order_relaxed);
        s.queueWaitS =
            1e-9 * static_cast<double>(
                       cell->queueWaitNs.load(std::memory_order_relaxed));
        s.busyS =
            1e-9 * static_cast<double>(
                       cell->busyNs.load(std::memory_order_relaxed));
        out.push_back(s);
    }
    return out;
}

} // namespace suit::exec

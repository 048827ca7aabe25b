#include "runtime/session.hh"

#include "util/format.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace suit::runtime {

using suit::exec::ThreadPool;
using suit::exec::WorkerStats;

Session::Session(SessionConfig config)
    : cfg_(config), traces_(config.traceCacheBytes)
{
    const int requested = cfg_.jobs == 0
                              ? ThreadPool::hardwareConcurrency()
                              : cfg_.jobs;
    SUIT_ASSERT(requested >= 1, "worker count must be >= 1, got %d",
                requested);
    if (requested > 1)
        pool_ = std::make_unique<ThreadPool>(requested);
    // One workspace per pool worker plus one for the session thread
    // (slot 0).  unique_ptr slots keep each workspace's address
    // stable and avoid false sharing between adjacent workers' hot
    // simulator state.
    const std::size_t slots = static_cast<std::size_t>(jobs()) + 1;
    workspaces_.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i)
        workspaces_.push_back(
            std::make_unique<suit::sim::SimWorkspace>());
}

suit::sim::SimWorkspace &
Session::workspace()
{
    const int worker = ThreadPool::currentWorkerIndex();
    const std::size_t slot = static_cast<std::size_t>(worker + 1);
    SUIT_ASSERT(slot < workspaces_.size(),
                "worker index %d outside this session's pool", worker);
    return *workspaces_[slot];
}

int
Session::jobs() const
{
    return pool_ ? pool_->workers() : 1;
}

std::vector<WorkerStats>
Session::workerStats() const
{
    return pool_ ? pool_->stats() : std::vector<WorkerStats>{};
}

std::string
Session::workerFooter() const
{
    if (!pool_)
        return "session: serial reference path (1 job)\n";

    suit::util::TablePrinter t(
        {"worker", "jobs", "queue wait", "busy"});
    const std::vector<WorkerStats> stats = pool_->stats();
    std::uint64_t total_jobs = 0;
    double total_busy = 0.0;
    for (std::size_t i = 0; i < stats.size(); ++i) {
        const WorkerStats &s = stats[i];
        t.addRow({suit::util::sformat("#%zu", i),
                  suit::util::sformat(
                      "%llu",
                      static_cast<unsigned long long>(s.jobsRun)),
                  suit::util::sformat("%.3f s", s.queueWaitS),
                  suit::util::sformat("%.3f s", s.busyS)});
        total_jobs += s.jobsRun;
        total_busy += s.busyS;
    }
    t.addSeparator();
    t.addRow({"all",
              suit::util::sformat(
                  "%llu", static_cast<unsigned long long>(total_jobs)),
              "", suit::util::sformat("%.3f s", total_busy)});
    return t.render();
}

} // namespace suit::runtime

#include "runtime/cli_run.hh"

#include <climits>
#include <cstdio>
#include <string>

namespace suit::runtime {

namespace {

/** Largest --jobs accepted: each worker is an OS thread. */
constexpr long kMaxJobs = 1024;

/** Validate the run flags and build the Session's configuration. */
SessionConfig
sessionConfig(const suit::util::ArgParser &args)
{
    const double deadline_s = args.getDouble("deadline-s");
    if (deadline_s < 0.0)
        suit::util::fatal("--deadline-s must be >= 0, got %g",
                          deadline_s);
    const long cache_mb =
        args.getIntInRange("trace-cache-mb", 1, 1 << 20);
    if (args.getFlag("resume") && args.get("checkpoint").empty())
        suit::util::fatal("--resume needs --checkpoint <path>");

    SessionConfig config;
    config.jobs =
        static_cast<int>(args.getIntInRange("jobs", 0, kMaxJobs));
    config.traceCacheBytes = static_cast<std::size_t>(cache_mb) << 20;
    return config;
}

} // namespace

void
CliRun::addOptions(suit::util::ArgParser &args, const char *noun)
{
    const std::string units = std::string(noun) + "s";
    args.addOption("jobs", "0",
                   "parallel workers (0 = hardware threads, "
                   "1 = serial reference)");
    args.addOption("checkpoint", "",
                   "journal completed " + units +
                       " to this file (crash-safe)");
    args.addFlag("resume", "load the --checkpoint journal and run "
                           "only the missing " + units);
    args.addOption("stop-after", "0",
                   "stop gracefully after N completed " + units +
                       " (testing aid; 0 = run to completion)");
    args.addOption("deadline-s", "0",
                   "wall-clock budget in seconds; on expiry the run "
                   "stops gracefully like Ctrl-C (0 = none)");
    args.addOption("trace-cache-mb", "256",
                   "trace cache capacity in MiB (LRU eviction above "
                   "it)");
}

CliRun::CliRun(const suit::util::ArgParser &args,
               suit::obs::CliScope &obs, const char *noun)
    : args_(args), obs_(obs), noun_(noun),
      session_(sessionConfig(args))
{
    ctx_.checkpoint.path = args.get("checkpoint");
    ctx_.checkpoint.resume = args.getFlag("resume");
    ctx_.token().linkExternal(sigint_.flag());
    const double deadline_s = args.getDouble("deadline-s");
    if (deadline_s > 0.0)
        ctx_.setDeadlineAfter(deadline_s);
}

std::function<void(std::size_t)>
CliRun::stopAfterHook()
{
    const long stop_after =
        args_.getIntInRange("stop-after", 0, LONG_MAX);
    if (stop_after == 0)
        return {};
    return [this, stop_after](std::size_t) {
        if (settled_.fetch_add(1) + 1 >= stop_after)
            sigint_.request();
    };
}

int
CliRun::finish(bool interrupted, std::size_t skipped, int code)
{
    if (!interrupted)
        return code;
    obs_.noteInterruption(sigint_.requested() ? "sigint"
                                              : "deadline");
    std::fprintf(stderr,
                 "run interrupted: %zu %s%s not run; re-run with "
                 "--checkpoint %s --resume to finish\n",
                 skipped, noun_, skipped == 1 ? "" : "s",
                 ctx_.checkpoint.path.empty()
                     ? "<path>"
                     : ctx_.checkpoint.path.c_str());
    return 130;
}

} // namespace suit::runtime

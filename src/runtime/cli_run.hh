/**
 * @file
 * CliRun: the run wiring shared by the two journaled campaign CLIs,
 * suit_sweep and suit_fleet, next to obs::CliScope.
 *
 * addOptions() declares the shared run flags (--jobs, --checkpoint,
 * --resume, --stop-after, --deadline-s and --trace-cache-mb), worded
 * for the CLI's unit noun ("cell", "shard").  After parsing, one
 * CliRun validates them, builds the Session and the RunContext
 * (journal policy, deadline, Ctrl-C link); finish() prints the
 * "interrupted ... re-run with --checkpoint X --resume" footer and
 * maps an interrupted run to exit code 130.  The telemetry sampler is
 * not part of the run wiring: the obs::CliScope owns it.
 *
 * Declare the CliRun after the obs::CliScope, so the Session and its
 * workers are torn down before the scope writes its outputs.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

#include "exec/checkpoint.hh"
#include "obs/setup.hh"
#include "runtime/run_context.hh"
#include "runtime/session.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/sigint.hh"

namespace suit::runtime {

class CliRun
{
  public:
    /** Declare the shared run flags on @p args, worded for @p noun. */
    static void addOptions(suit::util::ArgParser &args,
                           const char *noun);

    /**
     * Validate the run flags of the parsed @p args (fatal() on a bad
     * value), build the Session and RunContext and install the
     * graceful-stop SIGINT handler.  @p args and @p obs must outlive
     * the CliRun.
     */
    CliRun(const suit::util::ArgParser &args,
           suit::obs::CliScope &obs, const char *noun);

    CliRun(const CliRun &) = delete;
    CliRun &operator=(const CliRun &) = delete;

    Session &session() { return session_; }
    RunContext &ctx() { return ctx_; }

    /**
     * Done-callback for the engine that stops the run gracefully
     * once --stop-after units settled (empty when it is 0).
     */
    std::function<void(std::size_t)> stopAfterHook();

    /** Call @p body, turning an exec::JournalError into fatal(). */
    template <typename Body>
    auto execute(Body &&body)
    {
        try {
            return body();
        } catch (const suit::exec::JournalError &e) {
            suit::util::fatal("%s", e.what());
        }
    }

    /**
     * The exit code of a run that ended with @p code: an interrupted
     * run dumps the flight recorder, prints how many of its units
     * (@p skipped) did not run and how to resume them, and returns
     * 130 instead.
     */
    int finish(bool interrupted, std::size_t skipped, int code);

  private:
    const suit::util::ArgParser &args_;
    suit::obs::CliScope &obs_;
    const char *noun_;
    // First Ctrl-C: graceful stop; second: immediate kill.
    suit::util::SigintGuard sigint_;
    std::atomic<long> settled_{0}; //!< units seen by stopAfterHook()
    Session session_;
    RunContext ctx_;
};

} // namespace suit::runtime

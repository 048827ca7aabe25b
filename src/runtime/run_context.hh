/**
 * @file
 * Per-run scope for the engines: one RunContext per sweep / fleet /
 * characterization run.  Bundles the cancellation token (with its
 * optional wall-clock deadline) and the checkpoint/journal policy
 * that sweep and fleet previously each carried in their own options
 * struct.  Observability is not part of it: obs::CliScope installs
 * the trace session before any engine runs and removes it after, so
 * every span and trace point of a run sees the same session.
 *
 * A RunContext is cheap and single-use by convention: resuming an
 * interrupted run means building a fresh context (with a fresh,
 * untripped token) pointing at the same journal path with
 * checkpoint.resume = true.
 */
#pragma once

#include <string>

#include "runtime/cancel.hh"

namespace suit::runtime {

/**
 * Where (and whether) a run journals completed cells/shards, and
 * whether it must first restore a previous journal's valid prefix.
 * Shared verbatim by exec::SweepEngine and fleet::FleetEngine — the
 * journal format already is (exec::CheckpointJournal), only the
 * policy plumbing diverged.
 */
struct CheckpointPolicy {
    /** Journal path; empty disables checkpointing. */
    std::string path;
    /** Restore the journal's valid prefix before running. */
    bool resume = false;
};

class RunContext
{
  public:
    RunContext() = default;

    RunContext(const RunContext &) = delete;
    RunContext &operator=(const RunContext &) = delete;

    CancelToken &token() noexcept { return token_; }
    const CancelToken &token() const noexcept { return token_; }

    /** Shorthand for token().cancelled(). */
    bool cancelled() const noexcept { return token_.cancelled(); }

    /** Arm a wall-clock budget; expiry trips the token. */
    void setDeadlineAfter(double seconds) noexcept
    {
        token_.setDeadlineAfter(seconds);
    }

    /** Journal policy for this run (mutated freely before run()). */
    CheckpointPolicy checkpoint;

  private:
    CancelToken token_;
};

} // namespace suit::runtime

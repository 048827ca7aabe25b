/**
 * @file
 * The hardware deadline timer (paper Sec. 4.1).
 *
 * A count-down register initialised with the deadline.  Executing a
 * would-be-disabled instruction resets the count-down; when it hits
 * zero an interrupt fires so the OS can switch back to the efficient
 * DVFS curve.  This value type tracks the arm/reset/expire state in
 * simulated time.
 */

#ifndef SUIT_CORE_DEADLINE_HH
#define SUIT_CORE_DEADLINE_HH

#include <cstdint>

#include "util/logging.hh"
#include "util/ticks.hh"

namespace suit::core {

/** Count-down timer with reset-on-activity semantics. */
class DeadlineTimer
{
  public:
    /** Arm with a reload value; the count-down starts at @p now. */
    void arm(suit::util::Tick now, suit::util::Tick reload);

    /**
     * A faultable instruction executed at @p now: restart the
     * count-down (no-op while disarmed).  Inline: the simulator's
     * batched native windows call this once per consumed event.
     */
    void touch(suit::util::Tick now)
    {
        if (armed_) {
            expiry_ = now + reload_;
            ++resets_;
        }
    }

    /**
     * @p n faultable instructions executed, the last at @p last: the
     * same state as @p n touch() calls ending at @p last (expiry
     * last + reload, resets + n).  No-op while disarmed or for
     * n == 0.  Lets a batched native window keep the count-down in a
     * register and write it back once.
     */
    void touchMany(std::uint64_t n, suit::util::Tick last)
    {
        if (armed_ && n != 0) {
            expiry_ = last + reload_;
            resets_ += n;
        }
    }

    /** Reload value (valid only while armed). */
    suit::util::Tick reload() const { return reload_; }

    /** Disarm without firing. */
    void cancel();

    /** True while armed. */
    bool armed() const { return armed_; }

    /**
     * Absolute expiry time (valid only while armed).  Inline: read
     * once per event as the native windows' closing boundary.
     */
    suit::util::Tick expiry() const
    {
        SUIT_ASSERT(armed_, "expiry() on a disarmed timer");
        return expiry_;
    }

    /**
     * Check for expiry: returns true exactly once when @p now has
     * reached the expiry time, disarming the timer.
     */
    bool checkExpired(suit::util::Tick now);

    /** @{ Lifetime observability counters (plain, always on). */
    /** Count-down restarts: touch() calls that hit an armed timer. */
    std::uint64_t resets() const { return resets_; }
    /** Expirations delivered by checkExpired(). */
    std::uint64_t expirations() const { return expirations_; }
    /** @} */

  private:
    bool armed_ = false;
    suit::util::Tick reload_ = 0;
    suit::util::Tick expiry_ = 0;
    std::uint64_t resets_ = 0;
    std::uint64_t expirations_ = 0;
};

} // namespace suit::core

#endif // SUIT_CORE_DEADLINE_HH

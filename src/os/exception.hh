/**
 * @file
 * The #DO trap frame and the Sec. 5.3 emulation charge.
 *
 * SUIT claims one of the reserved Intel interrupt vectors for the new
 * Disabled Opcode (#DO) exception (paper Sec. 3.3).  Like other CPU
 * exceptions it preserves the register state so the faulting program
 * can continue.  Emulating the trapped instruction in user space
 * (Sec. 3.4) costs the measured two-transition round trip plus the
 * emulation body scaled by the clock (Sec. 5.3).
 */

#ifndef SUIT_OS_EXCEPTION_HH
#define SUIT_OS_EXCEPTION_HH

#include <cstdint>

#include "emu/dispatcher.hh"
#include "isa/faultable.hh"
#include "power/cpu_model.hh"
#include "util/ticks.hh"

namespace suit::os {

/** Information delivered with a #DO exception. */
struct TrapFrame
{
    /** The disabled instruction that was fetched. */
    suit::isa::FaultableKind kind = suit::isa::FaultableKind::VOR;
    /** Core that raised the exception. */
    int coreId = 0;
    /** Simulated time of the trap. */
    suit::util::Tick when = 0;
};

/**
 * Time charged for emulating one trapped @p kind on @p cpu: the
 * user/kernel/user round trip (Sec. 5.3: 0.77 us on the i9, 0.27 us
 * on the AMD) plus the software body at the base frequency.
 */
inline suit::util::Tick
emulationCostTicks(const suit::power::CpuModel &cpu,
                   suit::isa::FaultableKind kind)
{
    return suit::util::microsecondsToTicks(cpu.emulationCallUs()) +
           suit::util::secondsToTicks(
               suit::emu::emulationCostCycles(kind) / cpu.baseFreqHz());
}

} // namespace suit::os

#endif // SUIT_OS_EXCEPTION_HH

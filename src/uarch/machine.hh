/**
 * @file
 * Full-system SUIT machine at cycle level.
 *
 * The paper's gem5 contribution is the wiring: the DISABLE_OPCODE /
 * DVFS_CURVE MSRs, the #DO exception raised precisely at dispatch, a
 * modified kernel handler, and the deadline timer (Sec. 6.1).
 * SuitMachine reproduces that wiring on top of the O3 model: it owns
 * the MSR file and a SuitController, translates the controller's
 * CpuControl calls (tick domain) into pipeline cycles, accounts
 * wall-clock time and power per p-state, and reports end-to-end
 * results against a no-SUIT baseline run.
 *
 * Cycle/tick conversion uses the base frequency; the E/Cf frequency
 * difference (~10 %) is folded into the wall-clock integration, not
 * into the deadline arithmetic — a documented approximation.
 */

#ifndef SUIT_UARCH_MACHINE_HH
#define SUIT_UARCH_MACHINE_HH

#include <vector>

#include "core/controller.hh"
#include "core/params.hh"
#include "os/msr.hh"
#include "power/cpu_model.hh"
#include "uarch/o3_model.hh"
#include "util/rng.hh"

namespace suit::uarch {

/** End-to-end result of one machine run. */
struct MachineResult
{
    /** Pipeline statistics. */
    CoreStats stats;
    /** Wall-clock runtime in seconds (cycles / per-state freq). */
    double seconds = 0.0;
    /** Time-weighted power factor vs the conservative baseline. */
    double powerFactor = 1.0;
    /** Share of wall-clock time on the efficient curve. */
    double efficientShare = 0.0;

    /** Energy relative to (baseline power x this run's seconds). */
    double
    energyFactorVs(const MachineResult &baseline) const
    {
        return powerFactor * seconds /
               (baseline.powerFactor * baseline.seconds);
    }
};

/**
 * Publish @p stats into the obs metrics registry as uarch.* counters
 * (pipeline commits/cycles, branch outcomes, cache misses, #DO
 * traps).  No-op while the registry is disabled.  SuitMachine calls
 * this after every run; exposed for tools that drive O3Model
 * directly.
 */
void publishCoreStats(const CoreStats &stats);

/** The assembled machine: O3 core + MSRs + SUIT controller. */
class SuitMachine
{
  public:
    /** Machine configuration. */
    struct Config
    {
        /** Power/DVFS description (not owned). */
        const suit::power::CpuModel *cpu = nullptr;
        /**
         * Pipeline configuration (IMUL latency is set per run, and
         * runSuit takes the trap penalty from the CPU model).
         */
        CoreConfig core;
        /** Efficient-curve offset (negative mV). */
        double offsetMv = -97.0;
        /** Operating strategy. */
        suit::core::StrategyKind strategy =
            suit::core::StrategyKind::CombinedFv;
        /** Strategy parameters. */
        suit::core::StrategyParams params;
        /** Transition-jitter seed. */
        std::uint64_t seed = 1;
    };

    explicit SuitMachine(const Config &config);

    /**
     * Run @p program on today's CPU: 3-cycle IMUL, conservative
     * curve, nothing disabled.
     */
    MachineResult runBaseline(const Program &program);

    /**
     * Run @p program with SUIT enabled: 4-cycle IMUL, trap set
     * disabled, efficient curve, the configured strategy fielding
     * #DO exceptions and deadline interrupts.
     */
    MachineResult runSuit(const Program &program);

    /** The MSR file (inspect the SUIT registers after a run). */
    const suit::os::MsrFile &msrs() const { return msrs_; }

  private:
    /** CpuControl implementation in the cycle domain. */
    class CycleCpu;

    Config cfg_;
    suit::os::MsrFile msrs_;
};

} // namespace suit::uarch

#endif // SUIT_UARCH_MACHINE_HH

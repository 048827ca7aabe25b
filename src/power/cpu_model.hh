/**
 * @file
 * The evaluated CPU models (paper Sec. 6.2).
 *
 * The paper evaluates SUIT on three machines:
 *   A: Intel Core i9-9900K  — one shared frequency+voltage domain.
 *   B: AMD Ryzen 7 7700X    — per-core frequency, no runtime voltage
 *                             control, very slow (668 us) changes.
 *   C: Intel Xeon Silver 4208 — per-core frequency *and* voltage
 *                             domains (PCPS), fast changes.
 * plus the i5-1035G1 for the undervolting response study (Table 2).
 *
 * CpuModel bundles everything the trace simulator needs: the DVFS
 * curve, the undervolt response, transition delays, exception costs
 * and the base package power, and computes the relative
 * performance/power of the three SUIT p-states E, Cf and CV.
 */

#ifndef SUIT_POWER_CPU_MODEL_HH
#define SUIT_POWER_CPU_MODEL_HH

#include <string>

#include "power/pstate.hh"
#include "power/transition.hh"
#include "power/undervolt.hh"

namespace suit::power {

/** CPU vendor family (selects e.g. the Table 4 no-SIMD row). */
enum class Vendor
{
    Intel,
    Amd,
};

/** DVFS domain granularity of a CPU. */
enum class DomainLayout
{
    /** One frequency + voltage domain shared by all cores (CPU A). */
    SharedAll,
    /** Per-core frequency domains, one voltage domain (CPU B). */
    PerCoreFrequency,
    /** Per-core frequency and voltage domains (CPU C, PCPS). */
    PerCoreAll,
};

/** The three operating points of the fV strategy (paper Fig. 4). */
enum class SuitPState
{
    /** Efficient curve: low voltage, full frequency, opcodes off. */
    Efficient,
    /** Conservative via frequency: low voltage, reduced frequency. */
    ConservativeFreq,
    /** Conservative via voltage: full voltage, full frequency. */
    ConservativeVolt,
};

/** Printable name of a SuitPState ("E", "Cf", "CV"). */
const char *toString(SuitPState p);

/** Dense table index of a p-state (E = 0, Cf = 1, CV = 2). */
constexpr int
pstateIndex(SuitPState p)
{
    switch (p) {
      case SuitPState::Efficient:
        return 0;
      case SuitPState::ConservativeFreq:
        return 1;
      case SuitPState::ConservativeVolt:
        return 2;
    }
    return 2;
}

/** Number of SUIT p-states (table dimension). */
constexpr int kNumSuitPStates = 3;

/**
 * Precomputed perfFactor()/powerFactor() values of every p-state for
 * one (CPU, undervolt offset) pair, indexed by pstateIndex().
 *
 * perfFactor() walks the measured undervolt response and inverts the
 * DVFS curve for the Cf point on every call; loop-resident code (the
 * domain simulator advances these factors once per simulated event)
 * uses this table instead.  The entries are the exact doubles the
 * per-call functions return, so switching to the table cannot change
 * any downstream arithmetic.
 */
struct PStateFactors
{
    double perf[kNumSuitPStates] = {1.0, 1.0, 1.0};
    double power[kNumSuitPStates] = {1.0, 1.0, 1.0};
};

/** Full description of one evaluated CPU. */
class CpuModel
{
  public:
    /** Aggregate configuration (filled by the factory functions). */
    struct Config
    {
        std::string name;       //!< marketing name
        std::string label;      //!< paper label: "A", "B", "C"
        Vendor vendor = Vendor::Intel;
        int coreCount = 1;      //!< physical cores
        DomainLayout domains = DomainLayout::SharedAll;
        DvfsCurve conservativeCurve;
        UndervoltResponse undervolt;
        TransitionModel transitions;
        double baseFreqHz = 0.0;   //!< mean SPEC frequency
        double basePowerW = 0.0;   //!< package power at base point
        double exceptionDelayUs = 0.0;  //!< #DO -> handler entry
        double emulationCallUs = 0.0;   //!< full emulate round trip
    };

    explicit CpuModel(Config cfg);

    /** @{ Plain accessors. */
    const std::string &name() const { return cfg_.name; }
    const std::string &label() const { return cfg_.label; }
    Vendor vendor() const { return cfg_.vendor; }
    bool isAmd() const { return cfg_.vendor == Vendor::Amd; }
    int coreCount() const { return cfg_.coreCount; }
    DomainLayout domains() const { return cfg_.domains; }
    const DvfsCurve &conservativeCurve() const
    {
        return cfg_.conservativeCurve;
    }
    const UndervoltResponse &undervolt() const { return cfg_.undervolt; }
    const TransitionModel &transitions() const
    {
        return cfg_.transitions;
    }
    double baseFreqHz() const { return cfg_.baseFreqHz; }
    double basePowerW() const { return cfg_.basePowerW; }
    double exceptionDelayUs() const { return cfg_.exceptionDelayUs; }
    double emulationCallUs() const { return cfg_.emulationCallUs; }
    /** @} */

    /**
     * The efficient DVFS curve for an undervolt offset (negative mV):
     * the conservative curve shifted down (paper Sec. 3.2).
     */
    DvfsCurve efficientCurve(double offset_mv) const;

    /**
     * Frequency of the Cf point: the highest conservative-curve
     * frequency that is stable at the *efficient* voltage (Fig. 4:
     * moving horizontally from E to the conservative curve).
     */
    double cfFreqHz(double offset_mv) const;

    /**
     * Instruction-throughput factor of a p-state relative to running
     * the same code at the base point of the conservative curve.
     * E is > 1 (TDP headroom turns into clocks, Table 2); CV is 1;
     * Cf is f_Cf / f_base < 1.
     */
    double perfFactor(SuitPState p, double offset_mv) const;

    /**
     * Package-power factor of a p-state relative to the conservative
     * base point.  E comes from the measured response (Table 2); CV
     * is 1; Cf runs at V_E, so it is charged E's measured power.
     */
    double powerFactor(SuitPState p, double offset_mv) const;

    /**
     * All perf/power factors for @p offset_mv in one table: entry
     * [pstateIndex(p)] is bit-identical to calling perfFactor() /
     * powerFactor() with @p p directly.
     */
    PStateFactors factorsAt(double offset_mv) const;

  private:
    Config cfg_;
};

/** @{ The paper's machines. */
CpuModel cpuA_i9_9900k();
CpuModel cpuB_ryzen7700x();
CpuModel cpuC_xeon4208();
CpuModel cpu_i5_1035g1();
/** @} */

/**
 * The paper's machine named @p name: its label (A, B, C, i5) or its
 * part-number alias (i9-9900K, 7700X, 4208, i5-1035G1).  fatal()s on
 * any other name.
 */
CpuModel cpuModelByName(const std::string &name);

} // namespace suit::power

#endif // SUIT_POWER_CPU_MODEL_HH

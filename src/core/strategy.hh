/**
 * @file
 * The SUIT operating strategies (paper Sec. 4.3, Listing 1).
 *
 * An operating strategy is the OS policy that reacts to #DO
 * exceptions and deadline-timer interrupts.  Four are defined:
 *
 *  - Emulation (e):  stay on the efficient curve; every trapped
 *    instruction is computed in software.
 *  - Frequency (f):  E <-> Cf — switch curves by changing only the
 *    frequency; fast and power-frugal, but the program runs slower
 *    while conservative.
 *  - Voltage (V):    E <-> CV — switch by raising the voltage; full
 *    speed while conservative, but the switch itself is ~10x slower.
 *  - Combined (fV):  E -> Cf -> CV -> E — the quick frequency drop
 *    buys safety immediately while a voltage raise proceeds in the
 *    background (Fig. 6); short bursts return from Cf, long ones get
 *    full performance at CV.
 *
 * All switching strategies share the deadline timer and thrashing
 * prevention.
 */

#ifndef SUIT_CORE_STRATEGY_HH
#define SUIT_CORE_STRATEGY_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/cpu_iface.hh"
#include "core/params.hh"
#include "core/thrash.hh"
#include "os/exception.hh"

namespace suit::core {

/** Identifies one of the operating strategies. */
enum class StrategyKind
{
    Emulation,  //!< "e" in Table 6
    Frequency,  //!< "f"
    Voltage,    //!< "V"
    CombinedFv, //!< "fV"
    /**
     * "e+fV": the dynamic policy the paper sketches in Sec. 6.8
     * ("SUIT could dynamically switch between CV and e for highest
     * efficiency"): isolated traps are emulated in place, clustered
     * traps fall back to fV curve switching.
     */
    Hybrid,
};

/** Printable strategy name ("e", "f", "V", "fV"). */
const char *toString(StrategyKind kind);

/**
 * The strategy named @p name on the command line: e, f, V, fV or
 * hybrid, or spelled out (emulation, frequency, voltage, combined,
 * e+fV).  fatal()s on any other name.
 */
StrategyKind strategyKindByName(const std::string &name);

/** What the simulator should do with the trapped instruction. */
struct TrapAction
{
    /**
     * True: the instruction was emulated in software and must not be
     * re-executed.  False: re-execute it after the curve switch.
     */
    bool emulated = false;
};

/** Base class of the OS policies reacting to SUIT events. */
class OperatingStrategy
{
  public:
    virtual ~OperatingStrategy() = default;

    /** Handle a #DO exception on @p cpu's domain. */
    virtual TrapAction onDisabledOpcode(CpuControl &cpu,
                                        const suit::os::TrapFrame &frame)
        = 0;

    /** Handle the deadline-timer interrupt. */
    virtual void onTimerInterrupt(CpuControl &cpu) = 0;

    /** Which strategy this is. */
    virtual StrategyKind kind() const = 0;

    /**
     * Re-arm this object for a new run with @p params: afterwards it
     * is observationally identical to a freshly constructed strategy
     * of the same kind (counters zeroed, thrash windows empty, the
     * new parameters active).  Lets StrategyArena recycle a same-kind
     * occupant without re-running the constructor — the last heap-free
     * step of domain-evaluation reuse.  Overrides must reset every
     * member they add and chain to their base.
     */
    virtual void reuse(const StrategyParams &params)
    {
        (void)params;
        trapCount_ = 0;
    }

    /** Short name for reports. */
    const char *name() const { return toString(kind()); }

    /** Total #DO exceptions handled. */
    std::uint64_t trapCount() const { return trapCount_; }

    /**
     * Count @p n traps handled without an onDisabledOpcode() call:
     * the simulator's trap window resolves strategy e's traps
     * itself.
     */
    void noteTraps(std::uint64_t n) { trapCount_ += n; }

  protected:
    std::uint64_t trapCount_ = 0;
};

/**
 * Common behaviour of the curve-switching strategies (f, V, fV):
 * deadline handling and thrashing prevention per Listing 1.
 */
class SwitchingStrategy : public OperatingStrategy
{
  public:
    explicit SwitchingStrategy(const StrategyParams &params);

    TrapAction onDisabledOpcode(
        CpuControl &cpu, const suit::os::TrapFrame &frame) override;

    void onTimerInterrupt(CpuControl &cpu) override;

    void reuse(const StrategyParams &params) override;

    /** The active parameters. */
    const StrategyParams &params() const { return params_; }

    /** How often thrashing was detected. */
    std::uint64_t thrashDetections() const { return thrashDetections_; }

  protected:
    /**
     * Perform the strategy-specific conservative switch (called with
     * the domain still on the efficient curve).
     */
    virtual void switchToConservative(CpuControl &cpu) = 0;

    /**
     * Called after a trap cancelled a pending return to the
     * efficient curve; lets fV re-arm the background voltage raise.
     */
    virtual void restoreAfterCancel(CpuControl &cpu) { (void)cpu; }

  private:
    StrategyParams params_;
    ThrashDetector thrash_;
    std::uint64_t thrashDetections_ = 0;
};

/** E <-> Cf: frequency-only switching. */
class FrequencyStrategy : public SwitchingStrategy
{
  public:
    using SwitchingStrategy::SwitchingStrategy;
    StrategyKind kind() const override
    {
        return StrategyKind::Frequency;
    }

  protected:
    void switchToConservative(CpuControl &cpu) override;
};

/** E <-> CV: voltage-led switching. */
class VoltageStrategy : public SwitchingStrategy
{
  public:
    using SwitchingStrategy::SwitchingStrategy;
    StrategyKind kind() const override { return StrategyKind::Voltage; }

  protected:
    void switchToConservative(CpuControl &cpu) override;
};

/** E -> Cf -> CV -> E: the paper's Listing 1. */
class CombinedFvStrategy : public SwitchingStrategy
{
  public:
    using SwitchingStrategy::SwitchingStrategy;
    StrategyKind kind() const override
    {
        return StrategyKind::CombinedFv;
    }

  protected:
    void switchToConservative(CpuControl &cpu) override;
    void restoreAfterCancel(CpuControl &cpu) override;
};

/** Stay on E; emulate every trapped instruction in software. */
class EmulationStrategy : public OperatingStrategy
{
  public:
    TrapAction onDisabledOpcode(
        CpuControl &cpu, const suit::os::TrapFrame &frame) override;
    void onTimerInterrupt(CpuControl &cpu) override;
    StrategyKind kind() const override
    {
        return StrategyKind::Emulation;
    }
};

/**
 * The Sec. 6.8 dynamic policy: emulate isolated traps (cheaper than
 * two curve switches for a single instruction, Sec. 6.6), but when
 * traps cluster inside the thrash window — the signature of a burst
 * — switch curves like fV.  While the domain is conservative it
 * behaves exactly like fV.
 */
class HybridStrategy : public CombinedFvStrategy
{
  public:
    explicit HybridStrategy(const StrategyParams &params);

    TrapAction onDisabledOpcode(
        CpuControl &cpu, const suit::os::TrapFrame &frame) override;

    StrategyKind kind() const override { return StrategyKind::Hybrid; }

    void reuse(const StrategyParams &params) override;

    /** Traps resolved by in-place emulation. */
    std::uint64_t emulatedTraps() const { return emulatedTraps_; }

  private:
    ThrashDetector burstDetector_;
    std::uint64_t emulatedTraps_ = 0;
};

/** Instantiate a strategy by kind. */
std::unique_ptr<OperatingStrategy>
makeStrategy(StrategyKind kind, const StrategyParams &params);

/**
 * A fixed-size slot that strategies are placement-constructed into,
 * so a simulator that evaluates many domains back to back re-creates
 * its strategy without touching the heap.  Semantics are identical to
 * makeStrategy(): every emplace() yields an object observationally
 * equal to a freshly constructed one (thrash windows, trap counters
 * all zeroed) — when the requested kind matches the current occupant
 * it is recycled via OperatingStrategy::reuse() instead of being
 * destroyed and re-constructed, which keeps detector buffer capacity
 * warm across domains.
 */
class StrategyArena
{
  public:
    StrategyArena() = default;
    ~StrategyArena() { clear(); }
    StrategyArena(const StrategyArena &) = delete;
    StrategyArena &operator=(const StrategyArena &) = delete;

    /**
     * Make the slot hold a strategy of @p kind in the state a fresh
     * construction with @p params would produce: same-kind occupants
     * are reuse()d in place, otherwise the occupant is destroyed and
     * a new strategy placement-constructed.  The pointer stays valid
     * until the next different-kind emplace(), clear(), or the
     * arena's destruction.
     */
    OperatingStrategy *emplace(StrategyKind kind,
                               const StrategyParams &params);

    /** Destroy the occupant, if any. */
    void clear();

    /** The current occupant (null when empty). */
    OperatingStrategy *get() const { return active_; }

    /**
     * Slot size: large enough for every concrete strategy;
     * strategy.cc static_asserts the bound against the real sizes.
     */
    static constexpr std::size_t kSlotBytes = 320;

  private:
    alignas(alignof(std::max_align_t)) unsigned char slot_[kSlotBytes];
    OperatingStrategy *active_ = nullptr;
};

} // namespace suit::core

#endif // SUIT_CORE_STRATEGY_HH

/**
 * @file
 * Out-of-order CPU timing model (paper Table 5, Sec. 6.1).
 *
 * An instruction-window timestamp model of a gem5-O3-class core:
 * every instruction's fetch, dispatch, issue, completion and commit
 * cycles are derived from dependency timestamps and resource windows
 * (ROB / IQ / LSQ occupancy, fetch/dispatch/issue/commit bandwidth,
 * functional-unit servers, cache latencies, branch redirects).  This
 * style of model processes one instruction in O(1) and reproduces
 * the property the paper's study depends on: out-of-order scheduling
 * hides small latency increases of rare instructions (the 4-cycle
 * IMUL) unless they sit on the dependency critical path.
 *
 * SUIT hooks: a disable-opcode set checked at dispatch.  A disabled
 * instruction never begins execution — the pipeline drains (precise
 * like #UD; no Meltdown-style speculative execution of the disabled
 * opcode, paper Sec. 8) and a trap handler runs, which may emulate
 * the instruction or re-enable the set after a DVFS switch.
 */

#ifndef SUIT_UARCH_O3_MODEL_HH
#define SUIT_UARCH_O3_MODEL_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "isa/faultable.hh"
#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/program.hh"

namespace suit::uarch {

/** Timing of one functional-unit class. */
struct FuConfig
{
    int count = 1;         //!< number of units
    int latency = 1;       //!< result latency in cycles
    bool pipelined = true; //!< can accept a new op every cycle
};

/** Static core configuration (defaults: Table 5 gem5 O3 system). */
struct CoreConfig
{
    int fetchWidth = 8;
    int decodeWidth = 8;
    int issueWidth = 8;
    int commitWidth = 8;
    int robSize = 192;
    int iqSize = 64;
    int lsqSize = 72;
    /** Front-end refill after a branch redirect, cycles. */
    int redirectPenalty = 10;
    /**
     * #DO / exception entry overhead in cycles (~0.34 us @3 GHz);
     * SuitMachine::runSuit sets it from the CPU model.
     */
    int trapPenalty = 1000;
    /** Stride prefetcher hides sequential-stream L1D misses. */
    bool stridePrefetcher = true;
    /** Per-class functional units; see defaultFuTable(). */
    std::array<FuConfig, kNumOpClasses> fus = defaultFuTable();
    /** Memory system (Table 5). */
    MemoryHierarchy::Config mem;

    /** Stock FU table: 3-cycle pipelined IMUL, etc. */
    static std::array<FuConfig, kNumOpClasses> defaultFuTable();

    /** Set the IMUL latency (the Fig. 14 sweep parameter). */
    void setImulLatency(int cycles);
};

/** Aggregate run statistics. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t traps = 0;      //!< #DO exceptions taken
    std::uint64_t emulated = 0;   //!< trapped + emulated in place
    std::uint64_t l1dMisses = 0;
    std::uint64_t llcMisses = 0;
    std::array<std::uint64_t, kNumOpClasses> classCounts{};

    /** Retired instructions per cycle. */
    double ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/** What the trap handler tells the core to do with a #DO. */
struct UarchTrapAction
{
    /** Emulate in place (costing @c extraCycles) vs. re-execute. */
    bool emulate = false;
    /** Additional cycles charged by the handler/emulation. */
    std::uint64_t extraCycles = 0;
    /** New disabled set after the handler returns. */
    suit::isa::FaultableSet newDisabledSet;
    /**
     * Arm the deadline alarm with this reload (cycles); 0 leaves it
     * untouched.
     */
    std::uint64_t armAlarmCycles = 0;
};

/** The core model. */
class O3Model
{
  public:
    /** Handler invoked on a #DO trap (at drain cycle @p when). */
    using TrapHandler =
        std::function<UarchTrapAction(suit::isa::FaultableKind kind,
                                      std::uint64_t seq,
                                      std::uint64_t when)>;

    /**
     * Handler invoked when the deadline alarm expires (the SUIT
     * deadline timer, Sec. 4.1).  Returns the actions to apply,
     * exactly like a trap (typically: disable the set again).
     */
    using AlarmHandler =
        std::function<suit::isa::FaultableSet(std::uint64_t when)>;

    explicit O3Model(const CoreConfig &config = {});

    /** Set the disabled faultable set (the DISABLE_OPCODE MSR). */
    void setDisabledSet(suit::isa::FaultableSet set);
    /** Current disabled set. */
    suit::isa::FaultableSet disabledSet() const { return disabled_; }

    /** Install the #DO handler (required if anything is disabled). */
    void setTrapHandler(TrapHandler handler);

    /**
     * Install the deadline-alarm handler.  The trap handler arms the
     * alarm via UarchTrapAction::armAlarmCycles; the hardware
     * restarts the count-down whenever an instruction of the *touch
     * set* executes (Sec. 4.1: "an instruction that would be
     * disabled on the efficient DVFS curve") and invokes the handler
     * once when it expires.
     */
    void setAlarmHandler(AlarmHandler handler);

    /** Run a program to completion and return the statistics. */
    CoreStats run(const Program &program);

    /** The memory hierarchy (for stats inspection after run()). */
    const MemoryHierarchy &memory() const { return mem_; }
    /** The branch predictor. */
    const GsharePredictor &predictor() const { return bp_; }
    /** The configuration. */
    const CoreConfig &config() const { return cfg_; }

  private:
    CoreConfig cfg_;
    MemoryHierarchy mem_;
    GsharePredictor bp_;
    suit::isa::FaultableSet disabled_;
    TrapHandler handler_;
    AlarmHandler alarmHandler_;
};

/**
 * Convenience: run @p mix for @p count instructions at an IMUL
 * latency and return the stats.
 */
CoreStats runMixAtImulLatency(const ProgramMix &mix, std::size_t count,
                              int imul_latency,
                              std::uint64_t seed = 17);

} // namespace suit::uarch

#endif // SUIT_UARCH_O3_MODEL_HH

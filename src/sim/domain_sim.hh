/**
 * @file
 * Event-based trace simulator (paper Sec. 6.2, Fig. 15).
 *
 * Simulates one DVFS domain: one or more cores executing instruction
 * traces at their measured IPC, a p-state machine with the measured
 * transition delays and stalls, the SUIT deadline timer, and an
 * operating strategy reacting to #DO traps.  Power is integrated as
 * a factor relative to the conservative baseline using the measured
 * undervolt response (Table 2), which also prices the Cf point.
 *
 * CPU A (one shared domain) is simulated as a single domain holding
 * all utilised cores; CPUs B and C (per-core domains) as one domain
 * per core.
 */

#ifndef SUIT_SIM_DOMAIN_SIM_HH
#define SUIT_SIM_DOMAIN_SIM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cpu_iface.hh"
#include "core/deadline.hh"
#include "core/strategy.hh"
#include "isa/faultable.hh"
#include "obs/trace.hh"
#include "power/cpu_model.hh"
#include "runtime/cancel.hh"
#include "trace/profile.hh"
#include "trace/trace.hh"
#include "util/rng.hh"
#include "util/ticks.hh"

namespace suit::sim {

/** How the domain is operated. */
enum class RunMode
{
    /** Today's CPU: conservative curve, nothing disabled. */
    Baseline,
    /** SUIT active with an operating strategy. */
    Suit,
    /**
     * Binary compiled without SIMD (paper Sec. 6.7): no trappable
     * instructions exist, the domain stays on the efficient curve;
     * the no-SIMD performance delta applies.
     */
    NoSimdCompile,
};

/** One core's workload assignment. */
struct CoreWork
{
    /** The instruction trace to execute. */
    const suit::trace::Trace *trace = nullptr;
    /** The profile it came from (IPC, IMUL density, no-SIMD data). */
    const suit::trace::WorkloadProfile *profile = nullptr;
};

/** Per-core outcome. */
struct CoreResult
{
    /** Workload name. */
    std::string workload;
    /** Simulated completion time (s). */
    double durationS = 0.0;
    /** Conservative-baseline completion time (s). */
    double baselineDurationS = 0.0;

    /** Performance change: baseline/duration - 1. */
    double perfDelta() const
    {
        return baselineDurationS / durationS - 1.0;
    }
};

/** One entry of the optional p-state timeline. */
struct PStateChange
{
    /** When the change took effect. */
    suit::util::Tick when = 0;
    /** The new operating point. */
    suit::power::SuitPState to = suit::power::SuitPState::Efficient;
    /** True if this entry marks a #DO trap rather than a switch. */
    bool trap = false;
};

/** Whole-domain outcome. */
struct DomainResult
{
    /** Per-core outcomes. */
    std::vector<CoreResult> cores;
    /** P-state timeline (only if SimConfig::recordStateLog). */
    std::vector<PStateChange> stateLog;
    /** Time-weighted average power factor relative to baseline. */
    double powerFactor = 1.0;
    /** Share of active time spent on the efficient curve. */
    double efficientShare = 0.0;
    /** Share of active time at Cf. */
    double cfShare = 0.0;
    /** Share of active time at CV. */
    double cvShare = 0.0;
    /** #DO exceptions taken. */
    std::uint64_t traps = 0;
    /** Instructions emulated in software. */
    std::uint64_t emulations = 0;
    /** Completed p-state transitions. */
    std::uint64_t pstateSwitches = 0;
    /** Thrash-prevention activations. */
    std::uint64_t thrashDetections = 0;

    /** Mean performance change over the cores. */
    double perfDelta() const;
    /** Power change: powerFactor - 1. */
    double powerDelta() const { return powerFactor - 1.0; }
    /** Efficiency change per the paper's definition (Sec. 5.4). */
    double efficiencyDelta() const;
};

/**
 * Arrival-delta columns of one fleet key-run: for a (trace, rate)
 * pair, entry i is the ticks event i's gap takes at that instruction
 * rate, the same windowSecondsToTicks(gap(i) / rate) the batched
 * windows otherwise compute per event.  A delta depends only on the
 * trace and the rate, so the domains of one key-run (same traces,
 * p-state rates shared by every domain with the same strategy and
 * offset) build a column once and then read it instead of dividing.
 *
 * Lifetime: a column is keyed by the trace's address, so the owner
 * must clear() the store before any trace it was built from can be
 * released.  FleetEngine::simulateBlock clears it at every key change,
 * while the workspace's pins keep the key's traces alive; a store is
 * never shared across keys.  clear() keeps the buffers, so a worker
 * holds at most the high-water mark of one key's columns: events x
 * 8 B x the distinct (stream, rate) pairs of that key.
 */
class ArrivalColumns
{
  public:
    /** Drop every column; the buffers keep their capacity. */
    void clear() { live_ = 0; }

    /** Columns built since the last clear(). */
    std::size_t size() const { return live_; }

    /** @p trace's column at @p rate, or null if none is built. */
    const suit::util::Tick *find(const suit::trace::Trace &trace,
                                 double rate) const;

    /**
     * Build @p trace's column at @p rate (it must not exist yet) from
     * the full 64-bit gaps, so escaped gaps are covered.
     */
    const suit::util::Tick *build(const suit::trace::Trace &trace,
                                  double rate);

  private:
    struct Column
    {
        const suit::trace::Trace *trace = nullptr;
        double rate = 0.0;
        std::vector<suit::util::Tick> deltas;
    };
    /** Slots [0, live_) hold columns; the rest are spare buffers. */
    std::vector<Column> columns_;
    std::size_t live_ = 0;
};

/** Configuration of one simulation run. */
struct SimConfig
{
    /** Machine model (not owned). */
    const suit::power::CpuModel *cpu = nullptr;
    /** Undervolt offset of the efficient curve (negative mV). */
    double offsetMv = -97.0;
    /** Operating mode. */
    RunMode mode = RunMode::Suit;
    /** Strategy for RunMode::Suit. */
    suit::core::StrategyKind strategy =
        suit::core::StrategyKind::CombinedFv;
    /** Strategy parameters. */
    suit::core::StrategyParams params;
    /** RNG seed for transition-delay jitter. */
    std::uint64_t seed = 1;
    /** Record the p-state/trap timeline into the result. */
    bool recordStateLog = false;
    /**
     * Run the pre-optimization reference event loop instead of the
     * fast path (invariant tables, batched windows).  Both
     * paths produce bit-identical DomainResults — the
     * golden-identity test suite serializes and compares them
     * across the full configuration matrix — so this flag exists
     * only for that verification and for benchmarking the speedup.
     */
    bool referencePath = false;
    /**
     * Benchmark-only: skip the obs layer entirely — no trace-session
     * latch, no metric publication — so suit_bench_json can price the
     * disabled instrumentation against a true no-obs run.  Results
     * are bit-identical either way (the always-on plain counters
     * never feed back into the simulation).
     */
    bool obsBypass = false;
    /**
     * Cooperative cancellation: the event loop polls this token
     * every ~4k steps (outer iterations and batched-window events)
     * and throws runtime::Cancelled when it trips.  A cancelled run
     * produces no DomainResult at all — the engines treat the cell
     * as never run, so cancellation can never alter a completed
     * (journaled) result.
     */
    const suit::runtime::CancelToken *cancel = nullptr;
    /**
     * Arrival-delta column store of the caller's key-run (not owned;
     * see ArrivalColumns for its lifetime).  Null: the batched windows
     * compute each event's delta in place, as sweeps, suit_sim and
     * suit_paper do.  Results are bit-identical either way (the
     * golden-identity suite compares all three paths).
     */
    ArrivalColumns *arrivalColumns = nullptr;
};

/**
 * Simulator for one DVFS domain; implements the CpuControl surface
 * the operating strategies drive.
 */
class DomainSimulator final : public suit::core::CpuControl
{
  public:
    /**
     * Empty simulator: every buffer starts unallocated.  Call
     * reset() before run().  This is the reuse path: a long-lived
     * simulator (e.g. inside a SimWorkspace) is reset() once per
     * domain and its buffers, strategy slot and state log retain
     * their capacity across domains, so steady-state evaluation
     * performs no heap allocation.
     */
    DomainSimulator();

    /**
     * One-shot construction: equivalent to default construction
     * followed by reset(config, work).
     *
     * @param config run configuration.
     * @param work one entry per core sharing this domain.
     */
    DomainSimulator(const SimConfig &config, std::vector<CoreWork> work);
    ~DomainSimulator() override;

    DomainSimulator(const DomainSimulator &) = delete;
    DomainSimulator &operator=(const DomainSimulator &) = delete;

    /**
     * Rebind the simulator to a new run, reusing every internal
     * buffer's capacity.  All state a fresh construction would
     * establish is re-established here — same values, same order of
     * computation — so a reset() simulator is bit-identical to a
     * freshly constructed one (the workspace-reuse golden tests
     * compare serialized results byte for byte).
     */
    void reset(const SimConfig &config,
               const std::vector<CoreWork> &work);

    /** Run the domain to completion and collect the results. */
    DomainResult run();

    /**
     * Run the domain to completion, writing the results into @p out
     * and reusing its vectors' and strings' capacity.  @p out may
     * hold a previous run's result; every field is overwritten.
     */
    void runInto(DomainResult &out);

    /** @{ CpuControl interface (driven by the strategy). */
    void changePStateWait(suit::power::SuitPState target) override;
    void changePStateAsync(suit::power::SuitPState target) override;
    void cancelPendingPState() override;
    void setInstructionsDisabled(bool disabled) override;
    void setTimerInterrupt(suit::util::Tick reload) override;
    suit::power::SuitPState currentPState() const override;
    bool instructionsDisabled() const override;
    suit::util::Tick now() const override;
    /** @} */

  private:
    /**
     * Per-core cold state.  The hot per-event state (instructions to
     * the next event, stall resume time, next arrival tick) lives
     * in the structure-of-arrays members below so the per-event scans
     * touch dense homogeneous rows; see DESIGN.md ("Domain-simulator
     * hot path").
     */
    struct Core
    {
        CoreWork work;
        std::size_t nextEvent = 0;  //!< index into trace events
        bool pastLastEvent = false; //!< draining the tail
        bool done = false;
        suit::util::Tick finishTime = 0;
    };

    /** A p-state transition in flight. */
    struct PendingTransition
    {
        suit::power::SuitPState target;
        suit::util::Tick runUntil;   //!< progress at old rate until
        suit::util::Tick completeAt; //!< new p-state from here
    };

    SimConfig cfg_;
    std::vector<Core> cores_;
    /** Strategy storage: placement-constructed per reset(), no heap. */
    suit::core::StrategyArena strategyArena_;
    suit::core::OperatingStrategy *strategy_ = nullptr;
    suit::util::Rng rng_;

    /**
     * @{ Per-core hot state, structure-of-arrays.  One slot per core,
     * indexed like cores_.  A core's remaining work is materialised
     * lazily: remaining_[i] holds its instructions to the next event
     * as of anchor_[i], and is settled forward only at the core's own
     * events and at domain-level steps (settleProgress()).  Its
     * arrival is therefore a pure function of the row entries, fixed
     * between materialisations.  The per-core instruction rate at
     * every p-state is laid out row-major ([p-state][core]) so a
     * whole-domain scan at the current p-state walks one dense row.
     */
    std::size_t nCores_ = 0;
    std::vector<double> remaining_;         //!< instructions to event
    std::vector<suit::util::Tick> anchor_;  //!< remaining_ valid at
    std::vector<suit::util::Tick> resume_;  //!< stalled until
    std::vector<suit::util::Tick> arrival_; //!< next arrival scratch
    std::vector<double> rates_; //!< instrRate per [p-state][core]
    /**
     * Arrival-delta columns per [p-state][core], laid out like rates_,
     * resolved from cfg_.arrivalColumns at a window's first use of the
     * pair (columnAt()); all null when no store is bound.
     */
    std::vector<const suit::util::Tick *> columns_;
    /** @} */

    /**
     * One core's trace cursor inside runWindowMulti(), filled at
     * window entry and written back at exit.  Besides the columns and
     * the event index it holds what consuming event `next` will do,
     * computed one event ahead (when the core last won): the stall of
     * its kind in a trap window, the gap that follows it, and that
     * gap's ticks at the window's rate.  A winner's new arrival is
     * then one add, and the gap load and its divide stay off the
     * window's loop-carried chain.  Scratch sized at reset().
     */
    struct WindowCursor
    {
        const suit::trace::Trace *trace;
        const std::uint32_t *gaps;
        const suit::isa::FaultableKind *kinds;
        std::size_t count;      //!< events in the trace
        std::size_t next;       //!< the core's next event
        double tail;            //!< instructions after the last event
        std::size_t kind;       //!< event next's kind (trap windows)
        suit::util::Tick stall; //!< its #DO stall (trap windows)
        double rem;             //!< instructions after event next
        suit::util::Tick delta; //!< rem's ticks at the window's rate
        /** The trace's arrival-delta column (bound store only). */
        const suit::util::Tick *column;
    };
    std::vector<WindowCursor> cursors_;

    suit::util::Tick now_ = 0;
    suit::power::SuitPState pstate_ =
        suit::power::SuitPState::ConservativeVolt;
    std::optional<PendingTransition> pending_;
    bool disabled_ = false;
    suit::core::DeadlineTimer timer_;
    std::size_t trappingCore_ = 0;

    // Statistics.
    double powerIntegralS_ = 0.0; //!< sum over cores of pf * dt
    double activeTimeS_ = 0.0;    //!< sum over cores of dt
    double stateTimeS_[3] = {};   //!< active time per p-state
    std::uint64_t traps_ = 0;
    std::uint64_t emulations_ = 0;
    std::uint64_t switches_ = 0;
    std::vector<PStateChange> stateLog_;

    /**
     * Observability.  The plain counters below are always on (their
     * cost is what suit_bench_json prices as
     * obs_overhead_disabled_pct); the trace session pointer is
     * latched at construction — null unless a session was active and
     * SimConfig::obsBypass is clear — so a run's tracing is
     * all-or-nothing and off costs one null check at the rare sites.
     */
    suit::obs::TraceSession *trace_ = nullptr;
    int track_ = 0; //!< this domain's timeline row (valid iff trace_)
    std::uint64_t trapsByKind_[suit::isa::kNumFaultableKinds] = {};
    std::uint64_t batchedEvents_ = 0; //!< events consumed in windows
    std::uint64_t columnsBuilt_ = 0;  //!< arrival columns this run built

    /**
     * Fast-path invariant: powerFactorOf() per p-state, indexed by
     * suit::power::pstateIndex().  Defaults cover RunMode::Baseline.
     */
    double powerTbl_[suit::power::kNumSuitPStates] = {1.0, 1.0, 1.0};
    /**
     * Fast-path invariant of strategy-e runs (empty otherwise): the
     * weighted emulation cost handleFaultableInstruction() charges,
     * per [core][FaultableKind].
     */
    std::vector<suit::util::Tick> emuCost_;

    /** Instruction rate of core @p i at a p-state (instr/s). */
    double instrRate(std::size_t i, suit::power::SuitPState p) const;
    /** Power factor of a p-state under this run mode. */
    double powerFactorOf(suit::power::SuitPState p) const;

    /**
     * Domain-level step at now_ (transition completion, timer expiry,
     * a strategy callback that changes the p-state, the pending
     * transition or a stall): settle every running core's progress
     * from its anchor to now_, under the rate, stall and freeze that
     * held since, and re-anchor it at now_.  Shared by both loops;
     * called before the step changes any of those.
     */
    void settleProgress();

    /**
     * @{ Reference event loop: the pre-optimization implementation,
     * kept statement-for-statement as the bit-exactness oracle for
     * the fast path (SimConfig::referencePath).  It reads the hot
     * state through the SoA rows — storage layout does not change
     * floating-point results — but performs the original per-call
     * arithmetic (per-core instrRate()/powerFactorOf() lookups, no
     * caching, no batching).
     */
    void runReference(DomainResult &out);
    void advanceToRef(suit::util::Tick t);
    suit::util::Tick coreArrivalRef(std::size_t i) const;
    /** @} */

    /**
     * @{ Fast event loop: cached rate/power tables, a branch-free
     * arrival min-reduction over the SoA rows, and batched windows
     * (native events and strategy-e traps) for both single- and
     * multi-core domains.  Produces bit-identical results to the
     * reference loop (argued in DESIGN.md, enforced by the
     * golden-identity suite).
     */
    void runFast(DomainResult &out);
    void advanceToFast(suit::util::Tick t);
    suit::util::Tick coreArrivalFast(std::size_t i) const;
    /** What one event of a batched window does, fixed at entry. */
    enum class Window
    {
        None,   //!< no window: the generic step runs the next event
        Native, //!< events execute (Baseline, or SUIT with the set on)
        Trap,   //!< every event is a strategy-e #DO trap, emulated
    };
    /** May a batched window run from now_, and of which kind? */
    Window windowAt() const;
    /**
     * Run one batched window from now_: the single- or multi-core
     * loop, reading arrival deltas from the bound column store if
     * there is one.  The store test is per window, not per event.
     */
    template <bool Trap>
    void runWindow(std::uint64_t &budget, std::uint32_t &cancel_countdown);
    /**
     * Consume consecutive events of a single-core domain, replaying
     * the generic step's state writes per event (Trap: the trap
     * counters and the two resume_ maxima; Native in SUIT mode: the
     * timer touch).  Polls cfg_.cancel with the run loop's shared
     * @p cancel_countdown: one window may cover a whole trace.
     * Columns: each event after the window's first reads its delta
     * from the arrival column instead of dividing its gap by the rate.
     */
    template <bool Trap, bool Columns>
    void runWindowSingle(std::uint64_t &budget,
                         std::uint32_t &cancel_countdown);
    /**
     * The same across all cores of a multi-core domain, up to the
     * exact timer/pending boundary: a k-way merge over the arrival
     * row that computes every arrival once at entry and then only the
     * winner's, replaying the reference accumulator sequence per
     * event so the floating-point grouping is unchanged.
     */
    template <bool Trap, bool Columns>
    void runWindowMulti(std::uint64_t &budget,
                        std::uint32_t &cancel_countdown);
    /**
     * Core @p i's arrival column at p-state row @p sidx, found in or
     * built into cfg_.arrivalColumns on first use.  Null for a trace
     * without events, whose windows read no delta.
     */
    const suit::util::Tick *columnAt(std::size_t sidx, std::size_t i);
    /** @} */

    /**
     * Assemble the DomainResult in place (shared by both loops),
     * overwriting every field of @p out and reusing its capacity.
     */
    void collectResultInto(DomainResult &out);

    /** Push this run's counters into obs::metrics() (off-run path). */
    void publishObs(const DomainResult &result) const;
    /** Trace a p-state entry taking effect at @p when. */
    void tracePState(suit::util::Tick when, suit::power::SuitPState to,
                     const char *how);

    /** Handle core @p i reaching its faultable instruction. */
    void handleFaultableInstruction(std::size_t i);
    /**
     * Load the next gap after core @p i consumed an event, anchored
     * at now_.
     */
    void consumeEvent(std::size_t i);
    /** Apply a completed p-state change. */
    void completePending();
};

} // namespace suit::sim

#endif // SUIT_SIM_DOMAIN_SIM_HH

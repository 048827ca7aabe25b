#include "sim/domain_sim.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <mutex>
#include <string>

#include "obs/registry.hh"
#include "os/exception.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace suit::sim {

using suit::core::StrategyKind;
using suit::isa::FaultableKind;
using suit::isa::kNumFaultableKinds;
using suit::power::kNumSuitPStates;
using suit::power::pstateIndex;
using suit::power::SuitPState;
using suit::util::Tick;

namespace {

constexpr Tick kNever = std::numeric_limits<Tick>::max();

/**
 * Steps between cancellation polls.  The run loop's outer iterations
 * and every batched window's events count down one shared countdown,
 * so a window that covers a whole trace still polls.  A poll is two
 * relaxed atomic loads (plus a clock read only when a deadline is
 * armed); at ~4k steps the amortised cost is unmeasurable while the
 * reaction latency stays far below human-visible.
 */
constexpr std::uint32_t kCancelPollInterval = 4096;

/** Count one step down; poll @p cancel when the countdown runs out. */
inline void
pollCancel(const suit::runtime::CancelToken *cancel,
           std::uint32_t &countdown)
{
    if (cancel != nullptr && --countdown == 0) {
        countdown = kCancelPollInterval;
        cancel->throwIfCancelled();
    }
}

/**
 * Min-reduction over the arrival row: the index of the earliest
 * arrival, ties to the lowest core (a strict < scan), branch-free.
 */
inline std::size_t
scanArrivals(const Tick *arrival, std::size_t n)
{
    std::size_t win = 0;
    Tick best = arrival[0];
    for (std::size_t i = 1; i < n; ++i) {
        const Tick a = arrival[i];
        win = a < best ? i : win;
        best = a < best ? a : best;
    }
    return win;
}

/**
 * @{ secondsToTicks()/ticksToSeconds() for values known to fit in 63
 * bits.  Every simulated time does: 2^63 ps is ~106 days and traces
 * run for seconds.  Converting through int64 yields the identical
 * double/Tick for such values — the cast is what the unsigned
 * conversion computes after its range fixup — but lets the compiler
 * drop the fixup branch from the hot windows.  (A value >= 2^63
 * would be UB here; the sim/exec suites under
 * -DSUIT_SANITIZE=undefined,float-cast-overflow guard the invariant —
 * GCC's plain -fsanitize=undefined does not check float casts.)
 */
inline Tick
windowSecondsToTicks(double s)
{
    return static_cast<Tick>(static_cast<std::int64_t>(
        s * static_cast<double>(suit::util::kTicksPerSec)));
}

inline double
windowTicksToSeconds(Tick t)
{
    return static_cast<double>(static_cast<std::int64_t>(t)) /
           static_cast<double>(suit::util::kTicksPerSec);
}
/** @} */

/**
 * Event @p i's gap as the double the loops accumulate, read from the
 * trace's hoisted gap column: a u32 load plus a well-predicted escape
 * compare, and the same double trace.gap(i) converts to.
 */
inline double
gapAt(const suit::trace::Trace &trace, const std::uint32_t *gaps,
      std::size_t i)
{
    const std::uint32_t g = gaps[i];
    if (g != suit::trace::EventColumns::kGapEscape) [[likely]]
        return static_cast<double>(g);
    return static_cast<double>(trace.gap(i));
}

/** Does moving between two p-states change the clock frequency? */
bool
frequencyEdge(SuitPState from, SuitPState to)
{
    const bool from_low = from == SuitPState::ConservativeFreq;
    const bool to_low = to == SuitPState::ConservativeFreq;
    return from_low != to_low;
}

/** Does it change the supply voltage? */
bool
voltageEdge(SuitPState from, SuitPState to)
{
    const bool from_high = from == SuitPState::ConservativeVolt;
    const bool to_high = to == SuitPState::ConservativeVolt;
    return from_high != to_high;
}

} // namespace

const Tick *
ArrivalColumns::find(const suit::trace::Trace &trace, double rate) const
{
    for (std::size_t c = 0; c < live_; ++c) {
        const Column &col = columns_[c];
        if (col.trace == &trace && col.rate == rate) {
            // A column outliving its trace would show here as a new
            // trace at a recycled address, of another length.
            SUIT_ASSERT(col.deltas.size() == trace.eventCount(),
                        "arrival column outlived its trace");
            return col.deltas.data();
        }
    }
    return nullptr;
}

const Tick *
ArrivalColumns::build(const suit::trace::Trace &trace, double rate)
{
    SUIT_ASSERT(find(trace, rate) == nullptr,
                "arrival column built twice");
    if (live_ == columns_.size())
        columns_.emplace_back();
    Column &col = columns_[live_++];
    col.trace = &trace;
    col.rate = rate;
    const std::size_t n = trace.eventCount();
    const std::uint32_t *const gaps = trace.gapColumn();
    col.deltas.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        col.deltas[i] = windowSecondsToTicks(gapAt(trace, gaps, i) / rate);
    return col.deltas.data();
}

double
DomainResult::perfDelta() const
{
    if (cores.empty())
        return 0.0;
    double sum = 0.0;
    for (const CoreResult &c : cores)
        sum += c.perfDelta();
    return sum / static_cast<double>(cores.size());
}

double
DomainResult::efficiencyDelta() const
{
    return (1.0 + perfDelta()) / (1.0 + powerDelta()) - 1.0;
}

DomainSimulator::DomainSimulator() = default;

DomainSimulator::DomainSimulator(const SimConfig &config,
                                 std::vector<CoreWork> work)
{
    reset(config, work);
}

void
DomainSimulator::reset(const SimConfig &config,
                       const std::vector<CoreWork> &work)
{
    cfg_ = config;
    rng_ = suit::util::Rng(config.seed);

    SUIT_ASSERT(cfg_.cpu != nullptr, "simulation needs a CPU model");
    SUIT_ASSERT(!work.empty(), "simulation needs at least one core");

    // Capacity-reusing re-initialisation: assign()/clear() write the
    // same values a fresh construction would, into buffers that keep
    // their allocation across resets.
    nCores_ = work.size();
    remaining_.assign(nCores_, 0.0);
    anchor_.assign(nCores_, 0);
    resume_.assign(nCores_, 0);
    arrival_.assign(nCores_, 0);
    cursors_.assign(nCores_, WindowCursor{});
    rates_.assign(static_cast<std::size_t>(kNumSuitPStates) * nCores_,
                  0.0);
    columns_.assign(static_cast<std::size_t>(kNumSuitPStates) * nCores_,
                    nullptr);
    cores_.clear();
    cores_.reserve(nCores_);

    now_ = 0;
    pending_.reset();
    timer_ = suit::core::DeadlineTimer();
    trappingCore_ = 0;
    powerIntegralS_ = 0.0;
    activeTimeS_ = 0.0;
    for (double &t : stateTimeS_)
        t = 0.0;
    traps_ = 0;
    emulations_ = 0;
    switches_ = 0;
    stateLog_.clear();
    trace_ = nullptr;
    track_ = 0;
    for (std::uint64_t &n : trapsByKind_)
        n = 0;
    batchedEvents_ = 0;
    columnsBuilt_ = 0;
    for (double &p : powerTbl_)
        p = 1.0;

    for (const CoreWork &w : work) {
        SUIT_ASSERT(w.trace && w.profile,
                    "every core needs a trace and its profile");
        const std::size_t i = cores_.size();
        Core core;
        core.work = w;
        if (cfg_.mode == RunMode::NoSimdCompile) {
            // Compiled without SIMD: the trappable instructions do
            // not exist; drain the whole stream in one piece.
            core.pastLastEvent = true;
            remaining_[i] =
                static_cast<double>(w.trace->totalInstructions());
        } else if (w.trace->eventCount() == 0) {
            core.pastLastEvent = true;
            remaining_[i] =
                static_cast<double>(w.trace->totalInstructions());
        } else {
            remaining_[i] = static_cast<double>(w.trace->gap(0));
        }
        cores_.push_back(core);
    }

    if (cfg_.recordStateLog) {
        // Every trap logs one entry and most switches follow a trap,
        // so twice the event count (plus slack for timer-driven
        // returns) covers the log without growth reallocations.
        std::size_t events = 0;
        for (const CoreWork &w : work)
            events += w.trace->eventCount();
        stateLog_.reserve(2 * events + 64);
    }

    // No arena clear() here: emplace() recycles a same-kind occupant
    // in place (fresh-constructed state, warm detector buffers), which
    // is what keeps the steady-state reuse path allocation-free.
    strategy_ = nullptr;
    if (cfg_.mode == RunMode::Suit) {
        strategy_ = strategyArena_.emplace(cfg_.strategy, cfg_.params);
        pstate_ = SuitPState::Efficient;
        disabled_ = true;
    } else if (cfg_.mode == RunMode::NoSimdCompile) {
        pstate_ = SuitPState::Efficient;
        disabled_ = true;
    } else {
        pstate_ = SuitPState::ConservativeVolt;
        disabled_ = false;
    }

    // Fast-path invariant tables.  Every entry is produced by the
    // same per-call function the reference loop uses, so the fast
    // loop feeds bit-identical doubles into the same arithmetic.
    for (std::size_t i = 0; i < nCores_; ++i) {
        for (const SuitPState p :
             {SuitPState::Efficient, SuitPState::ConservativeFreq,
              SuitPState::ConservativeVolt}) {
            rates_[static_cast<std::size_t>(pstateIndex(p)) * nCores_ +
                   i] = instrRate(i, p);
        }
    }
    if (cfg_.mode != RunMode::Baseline) {
        const suit::power::PStateFactors f =
            cfg_.cpu->factorsAt(cfg_.offsetMv);
        for (int i = 0; i < kNumSuitPStates; ++i)
            powerTbl_[i] = f.power[i];
    }
    emuCost_.clear();
    if (cfg_.mode == RunMode::Suit &&
        cfg_.strategy == StrategyKind::Emulation) {
        // handleFaultableInstruction()'s charge for an emulated event:
        // strategy e weighs it by the full eventWeight.
        emuCost_.resize(nCores_ * kNumFaultableKinds);
        for (std::size_t i = 0; i < nCores_; ++i) {
            const double weight = cores_[i].work.profile->eventWeight;
            for (const FaultableKind kind :
                 suit::isa::allFaultableKinds()) {
                emuCost_[i * kNumFaultableKinds +
                         static_cast<std::size_t>(kind)] =
                    static_cast<Tick>(
                        static_cast<double>(suit::os::emulationCostTicks(
                            *cfg_.cpu, kind)) *
                        weight);
            }
        }
    }

    if (!cfg_.obsBypass)
        trace_ = suit::obs::activeTrace();
    if (trace_) {
        track_ = trace_->newTrack(
            suit::obs::TraceSession::kSimPid,
            suit::util::sformat(
                "domain:%s", cores_[0].work.trace->name().c_str()));
        tracePState(0, pstate_, "init");
    }
}

void
DomainSimulator::tracePState(Tick when, SuitPState to, const char *how)
{
    trace_->instant(suit::obs::TraceSession::kSimPid, track_,
                    suit::obs::TraceSession::simUs(when), "pstate",
                    "sim",
                    {{"to", suit::power::toString(to)}, {"how", how}});
}

DomainSimulator::~DomainSimulator() = default;

double
DomainSimulator::instrRate(std::size_t i, SuitPState p) const
{
    const auto &profile = *cores_[i].work.profile;
    const double base = profile.ipc * cfg_.cpu->baseFreqHz();
    if (cfg_.mode == RunMode::Baseline)
        return base;

    double rate = base * cfg_.cpu->perfFactor(p, cfg_.offsetMv);
    // SUIT hardware ships the 4-cycle IMUL in every mode (Sec. 6.2).
    rate *= 1.0 - suit::trace::imulLatencyOverhead(profile.imulFraction);

    if (cfg_.mode == RunMode::NoSimdCompile ||
        (cfg_.mode == RunMode::Suit &&
         cfg_.strategy == StrategyKind::Emulation)) {
        // No-SIMD compilation, or emulation standing in for the SIMD
        // work (paper Sec. 6.2, "Instruction Emulation").
        rate *= 1.0 + profile.noSimdFor(cfg_.cpu->isAmd());
    }
    return rate;
}

double
DomainSimulator::powerFactorOf(SuitPState p) const
{
    if (cfg_.mode == RunMode::Baseline)
        return 1.0;
    return cfg_.cpu->powerFactor(p, cfg_.offsetMv);
}

Tick
DomainSimulator::now() const
{
    return now_;
}

SuitPState
DomainSimulator::currentPState() const
{
    return pstate_;
}

bool
DomainSimulator::instructionsDisabled() const
{
    return disabled_;
}

void
DomainSimulator::setInstructionsDisabled(bool disabled)
{
    disabled_ = disabled;
}

void
DomainSimulator::setTimerInterrupt(Tick reload)
{
    timer_.arm(now_, reload);
}

void
DomainSimulator::cancelPendingPState()
{
    if (pending_)
        settleProgress();
    pending_.reset();
}

void
DomainSimulator::changePStateWait(SuitPState target)
{
    if (pending_ || pstate_ != target)
        settleProgress();
    pending_.reset();
    if (pstate_ == target)
        return;

    const auto &tm = cfg_.cpu->transitions();
    Tick delay = 0;
    const bool f_edge = frequencyEdge(pstate_, target);
    const bool v_edge = voltageEdge(pstate_, target);
    if (v_edge)
        delay += tm.voltageChange.sample(rng_);
    if (f_edge)
        delay += tm.freqChange.sample(rng_);

    const Tick until = now_ + delay;
    if (f_edge && tm.stallsOnFreqChange) {
        // The shared clock re-locks: every core in the domain stalls.
        for (std::size_t i = 0; i < nCores_; ++i) {
            if (!cores_[i].done)
                resume_[i] = std::max(resume_[i], until);
        }
    } else {
        // Only the core spinning in the handler is blocked.
        resume_[trappingCore_] =
            std::max(resume_[trappingCore_], until);
    }

    pstate_ = target;
    ++switches_;
    if (cfg_.recordStateLog)
        stateLog_.push_back({until, pstate_, false});
    if (trace_)
        tracePState(until, pstate_, "wait");
}

void
DomainSimulator::changePStateAsync(SuitPState target)
{
    if (pending_ || pstate_ != target)
        settleProgress();
    pending_.reset();
    if (pstate_ == target)
        return;

    const auto &tm = cfg_.cpu->transitions();
    Tick delay = 0;
    Tick stall = 0;
    if (voltageEdge(pstate_, target))
        delay += tm.voltageChange.sample(rng_);
    if (frequencyEdge(pstate_, target)) {
        delay += tm.freqChange.sample(rng_);
        if (tm.stallsOnFreqChange)
            stall = tm.freqChangeStall.sample(rng_);
    }
    PendingTransition p;
    p.target = target;
    p.completeAt = now_ + delay;
    p.runUntil = p.completeAt - std::min(stall, delay);
    pending_ = p;
}

void
DomainSimulator::completePending()
{
    SUIT_ASSERT(pending_.has_value(), "no transition to complete");
    settleProgress();
    pstate_ = pending_->target;
    pending_.reset();
    ++switches_;
    if (cfg_.recordStateLog)
        stateLog_.push_back({now_, pstate_, false});
    if (trace_)
        tracePState(now_, pstate_, "async");
}

void
DomainSimulator::settleProgress()
{
    const double *const rate =
        &rates_[static_cast<std::size_t>(pstateIndex(pstate_)) * nCores_];
    for (std::size_t i = 0; i < nCores_; ++i) {
        if (cores_[i].done)
            continue;
        // Instruction progress: clip the stall and the transition's
        // frozen window out of [anchor, now_).  The rate table holds
        // instrRate()'s exact doubles.
        const Tick lo = std::max(anchor_[i], resume_[i]);
        const Tick hi = now_;
        if (lo < hi) {
            double progress_s = suit::util::ticksToSeconds(hi - lo);
            if (pending_) {
                const Tick f_lo = std::max(lo, pending_->runUntil);
                const Tick f_hi = std::min(hi, pending_->completeAt);
                if (f_lo < f_hi)
                    progress_s -= suit::util::ticksToSeconds(f_hi - f_lo);
            }
            remaining_[i] -= progress_s * rate[i];
            remaining_[i] = std::max(remaining_[i], 0.0);
        }
        anchor_[i] = now_;
    }
}

void
DomainSimulator::advanceToRef(Tick t)
{
    SUIT_ASSERT(t >= now_, "time cannot run backwards");
    if (t == now_)
        return;

    // Only the accumulators move with time: a core's progress is
    // settled lazily from its anchor (settleProgress()).
    const Tick from = now_;
    const double pf = powerFactorOf(pstate_);
    for (std::size_t i = 0; i < nCores_; ++i) {
        if (cores_[i].done)
            continue;
        const double dt_s = suit::util::ticksToSeconds(t - from);
        powerIntegralS_ += pf * dt_s;
        activeTimeS_ += dt_s;
        stateTimeS_[pstateIndex(pstate_)] += dt_s;
    }
    now_ = t;
}

Tick
DomainSimulator::coreArrivalRef(std::size_t i) const
{
    if (cores_[i].done)
        return kNever;
    // From the anchor, not now_: the arrival stays fixed until the
    // core is next materialised.
    const Tick start = std::max(anchor_[i], resume_[i]);
    const Tick cap =
        pending_ ? pending_->runUntil : kNever;
    if (pending_ && start >= cap)
        return kNever; // frozen: the completion event goes first
    const double rate = instrRate(i, pstate_);
    const double need_s = remaining_[i] / rate;
    const Tick arrival = start + suit::util::secondsToTicks(need_s);
    if (pending_ && arrival > cap)
        return kNever;
    return arrival;
}

void
DomainSimulator::advanceToFast(Tick t)
{
    SUIT_ASSERT(t >= now_, "time cannot run backwards");
    if (t == now_)
        return;

    const int sidx = pstateIndex(pstate_);
    const double pf = powerTbl_[sidx];
    // As in advanceToRef(): the shared interval is [now_, t), so one
    // dt_s serves the whole domain.
    const double dt_s = suit::util::ticksToSeconds(t - now_);
    for (std::size_t i = 0; i < nCores_; ++i) {
        if (cores_[i].done)
            continue;
        powerIntegralS_ += pf * dt_s;
        activeTimeS_ += dt_s;
        stateTimeS_[sidx] += dt_s;
    }
    now_ = t;
}

Tick
DomainSimulator::coreArrivalFast(std::size_t i) const
{
    if (cores_[i].done)
        return kNever;
    const Tick start = std::max(anchor_[i], resume_[i]);
    const Tick cap =
        pending_ ? pending_->runUntil : kNever;
    if (pending_ && start >= cap)
        return kNever; // frozen: the completion event goes first
    const double rate =
        rates_[static_cast<std::size_t>(pstateIndex(pstate_)) *
                   nCores_ +
               i];
    const double need_s = remaining_[i] / rate;
    const Tick arrival = start + suit::util::secondsToTicks(need_s);
    if (pending_ && arrival > cap)
        return kNever;
    return arrival;
}

void
DomainSimulator::consumeEvent(std::size_t i)
{
    Core &core = cores_[i];
    const suit::trace::Trace &trace = *core.work.trace;
    ++core.nextEvent;
    if (core.nextEvent < trace.eventCount()) {
        remaining_[i] = static_cast<double>(trace.gap(core.nextEvent));
    } else {
        // Drain the instructions after the last faultable one.
        remaining_[i] = static_cast<double>(trace.tailInstructions());
        core.pastLastEvent = true;
    }
    anchor_[i] = now_;
}

void
DomainSimulator::handleFaultableInstruction(std::size_t i)
{
    Core &core = cores_[i];
    const suit::isa::FaultableKind kind =
        core.work.trace->kind(core.nextEvent);

    if (cfg_.mode != RunMode::Suit || !disabled_) {
        // Executes natively.  In SUIT mode the hardware deadline
        // timer restarts on every faultable execution (Sec. 4.1).
        if (cfg_.mode == RunMode::Suit)
            timer_.touch(now_);
        consumeEvent(i);
        return;
    }

    // Disabled instruction fetched: #DO exception.
    ++traps_;
    ++trapsByKind_[static_cast<std::size_t>(kind)];
    if (cfg_.recordStateLog)
        stateLog_.push_back({now_, pstate_, true});
    if (trace_) {
        trace_->instant(suit::obs::TraceSession::kSimPid, track_,
                        suit::obs::TraceSession::simUs(now_),
                        "do-trap", "sim",
                        {{"kind", suit::isa::toString(kind)},
                         {"core", static_cast<int>(i)}});
    }
    trappingCore_ = i;
    resume_[i] = std::max(
        resume_[i],
        now_ + suit::util::microsecondsToTicks(
                   cfg_.cpu->exceptionDelayUs()));

    suit::os::TrapFrame frame;
    frame.kind = kind;
    frame.coreId = static_cast<int>(i);
    frame.when = now_;

    const suit::core::TrapAction action =
        strategy_->onDisabledOpcode(*this, frame);

    if (action.emulated) {
        ++emulations_;
        // Each trace event stands for eventWeight real instructions
        // (trace thinning); every one pays the full round trip.
        double weight = core.work.profile->eventWeight;
        if (cfg_.strategy == StrategyKind::Hybrid) {
            // Thinning correction: the hybrid policy switches curves
            // after p_ec real traps, so at most that many of a
            // thinned event's instructions are ever emulated before
            // the burst is recognised.
            weight = std::min(
                weight,
                static_cast<double>(cfg_.params.maxExceptionCount));
        }
        const Tick cost = static_cast<Tick>(
            static_cast<double>(
                suit::os::emulationCostTicks(*cfg_.cpu, kind)) *
            weight);
        resume_[i] = std::max(resume_[i], now_ + cost);
    } else {
        // Re-executed after the switch; restarts the count-down.
        timer_.touch(now_);
    }
    consumeEvent(i);
}

DomainSimulator::Window
DomainSimulator::windowAt() const
{
    // NoSimdCompile cores drain their whole stream from construction,
    // with no events.
    if (cfg_.mode == RunMode::NoSimdCompile)
        return Window::None;
    // Baseline events always execute natively, and SUIT events while
    // the set is enabled.  A SUIT window needs the deadline timer armed
    // so its expiry bound is meaningful (the strategies always arm it
    // when enabling, but the loop must not rely on that).
    if (cfg_.mode == RunMode::Baseline || !disabled_) {
        if (cfg_.mode == RunMode::Suit && !timer_.armed())
            return Window::None;
        if (pending_ && now_ >= pending_->runUntil)
            return Window::None; // frozen by the transition
        // Native events never stall a core, so the single-core loop
        // starts every event at t: it opens once the stall is over.
        if (nCores_ == 1 && resume_[0] > now_)
            return Window::None;
        return Window::Native;
    }
    // Disabled: every event traps.  Strategy e never enables the set,
    // arms the timer or starts a transition, but the window must not
    // rely on that.  The state log and a trace session take per-trap
    // records, which only the generic step writes.
    if (cfg_.strategy == StrategyKind::Emulation && !timer_.armed() &&
        !pending_ && !cfg_.recordStateLog && trace_ == nullptr)
        return Window::Trap;
    return Window::None;
}

const Tick *
DomainSimulator::columnAt(std::size_t sidx, std::size_t i)
{
    const Tick *&column = columns_[sidx * nCores_ + i];
    const suit::trace::Trace &trace = *cores_[i].work.trace;
    if (column == nullptr && trace.eventCount() != 0) {
        const double rate = rates_[sidx * nCores_ + i];
        column = cfg_.arrivalColumns->find(trace, rate);
        if (column == nullptr) {
            column = cfg_.arrivalColumns->build(trace, rate);
            ++columnsBuilt_;
        }
    }
    return column;
}

template <bool Trap>
void
DomainSimulator::runWindow(std::uint64_t &budget,
                           std::uint32_t &cancel_countdown)
{
    const bool columns = cfg_.arrivalColumns != nullptr;
    if (nCores_ == 1) {
        if (columns)
            runWindowSingle<Trap, true>(budget, cancel_countdown);
        else
            runWindowSingle<Trap, false>(budget, cancel_countdown);
    } else {
        if (columns)
            runWindowMulti<Trap, true>(budget, cancel_countdown);
        else
            runWindowMulti<Trap, false>(budget, cancel_countdown);
    }
}

template <bool Trap, bool Columns>
void
DomainSimulator::runWindowSingle(std::uint64_t &budget,
                                 std::uint32_t &cancel_countdown)
{
    Core &core = cores_[0];
    const int sidx = pstateIndex(pstate_);
    const double rate = rates_[static_cast<std::size_t>(sidx)];
    const double pf = powerTbl_[sidx];
    // Native SUIT events touch the deadline timer; Baseline never arms
    // it and trap windows run with it disarmed.
    const bool timed = !Trap && cfg_.mode == RunMode::Suit;
    // With no transition pending both caps are kNever, which no
    // arrival reaches (63-bit ticks), so the loop needs no flag.
    const Tick run_cap = pending_ ? pending_->runUntil : kNever;
    const Tick complete_at = pending_ ? pending_->completeAt : kNever;
    const Tick exception_delay =
        Trap ? suit::util::microsecondsToTicks(cfg_.cpu->exceptionDelayUs())
             : 0;
    const Tick *const cost = emuCost_.data();
    const suit::runtime::CancelToken *const cancel = cfg_.cancel;
    const suit::trace::Trace &trace = *core.work.trace;
    const std::uint32_t *const gaps = trace.gapColumn();
    const FaultableKind *const kinds = trace.kindColumn();
    const std::size_t event_count = trace.eventCount();
    // Hoisted: a call in the loop body makes GCC keep the
    // accumulators in memory across it.
    const double tail = static_cast<double>(trace.tailInstructions());
    const std::size_t window_first = core.nextEvent;
    const Tick *const column =
        Columns ? columnAt(static_cast<std::size_t>(sidx), 0) : nullptr;

    // Everything the loop updates per event lives in a local and is
    // written back once at window exit, so no event waits on
    // store-to-load forwarding through a member.  The timer takes the
    // window's touches in one touchMany().
    const Tick reload = timed ? timer_.reload() : 0;
    Tick expiry = timed ? timer_.expiry() : kNever;
    std::uint64_t by_kind[kNumFaultableKinds] = {};
    std::size_t next = window_first;
    bool past_last = core.pastLastEvent;
    std::uint64_t left = budget;
    // The run loop's cancel countdown runs down one step per event.
    // Its poll sits on the gap load's slow path, at the event index
    // where it runs out, so an event pays no branch for it: a
    // per-event poll made perfbench's fleet_1m ~10 % slower.
    std::size_t poll_at =
        cancel != nullptr ? next + cancel_countdown : event_count;
    std::size_t fast_end = std::min(event_count, poll_at);
    double remaining = remaining_[0];
    // Columns: the loop carries the next event's delta, not its gap.
    // The window's first delta is computed in place: remaining_ can be
    // a partial gap after settleProgress().  The tail ends the window,
    // so its arrival is the generic step's.
    Tick delta = Columns ? windowSecondsToTicks(remaining / rate) : 0;
    // Event i's gap (or, with columns, its delta) for the next arrival.
    const auto load = [&](std::size_t i) {
        if constexpr (Columns)
            delta = column[i];
        else
            remaining = gapAt(trace, gaps, i);
    };
    Tick resume = resume_[0];
    double power_s = powerIntegralS_;
    double active_s = activeTimeS_;
    double state_s = stateTimeS_[sidx];

    // A lone core is materialised at every step (each is its own event
    // or a domain-level one), so its anchor is now_.
    Tick t = now_;
    while (!past_last) {
        // A trap stalls the core.  A native window opens with the core
        // unstalled (windowAt()), so there every event starts at t; the
        // max there measured ~9 % slower on perfbench's fleet_1m.
        const Tick start = Trap && resume > t ? resume : t;
        if (start >= run_cap)
            break; // frozen from start on: the transition goes first
        const Tick arrival =
            start +
            (Columns ? delta : windowSecondsToTicks(remaining / rate));
        // Stop where another event source outranks the core arrival
        // (the loop's tie order: transitions > timers > cores).
        if (timed && arrival >= expiry)
            break;
        if (arrival > run_cap || arrival >= complete_at)
            break;
        SUIT_ASSERT(left-- > 0, "simulation step budget exhausted");
        if (arrival > t) {
            // Replay the reference accumulator sequence per event —
            // regrouping the sums would change the floating-point
            // results.
            const double dt_s = windowTicksToSeconds(arrival - t);
            power_s += pf * dt_s;
            active_s += dt_s;
            state_s += dt_s;
        }
        t = arrival;
        if constexpr (Trap) {
            // The #DO trap, emulated (handleFaultableInstruction()).
            const auto kind = static_cast<std::size_t>(kinds[next]);
            ++by_kind[kind];
            resume = std::max(resume, t + exception_delay);
            resume = std::max(resume, t + cost[kind]);
        } else {
            expiry = t + reload; // read only when timed
        }
        // consumeEvent() inlined.
        ++next;
        if (next < fast_end) [[likely]] {
            load(next);
        } else if (next < event_count) {
            // The cancel countdown ran out: poll and rearm it.
            cancel->throwIfCancelled();
            poll_at = next + kCancelPollInterval;
            fast_end = std::min(event_count, poll_at);
            load(next);
        } else {
            remaining = tail;
            past_last = true;
        }
    }
    const std::uint64_t consumed = next - window_first;
    // With columns the loop kept only the delta: materialise the gap
    // the core now stands before.
    if (Columns && consumed != 0 && !past_last)
        remaining = gapAt(trace, gaps, next);
    if constexpr (Trap) {
        traps_ += consumed;
        emulations_ += consumed;
        for (std::size_t k = 0; k < kNumFaultableKinds; ++k)
            trapsByKind_[k] += by_kind[k];
        strategy_->noteTraps(consumed);
        resume_[0] = resume;
    } else if (timed) {
        timer_.touchMany(consumed, t);
    }
    core.nextEvent = next;
    core.pastLastEvent = past_last;
    budget = left;
    if (cancel != nullptr) {
        // poll_at >= next: the countdown is rearmed where it runs out.
        cancel_countdown = static_cast<std::uint32_t>(
            std::max<std::size_t>(poll_at - next, 1));
    }
    powerIntegralS_ = power_s;
    activeTimeS_ = active_s;
    stateTimeS_[sidx] = state_s;
    remaining_[0] = remaining;
    anchor_[0] = t;
    now_ = t;
    // One delta per window instead of a per-event increment keeps the
    // always-on counter out of the hot loop body.
    batchedEvents_ += consumed;
}

template <bool Trap, bool Columns>
void
DomainSimulator::runWindowMulti(std::uint64_t &budget,
                                std::uint32_t &cancel_countdown)
{
    const std::size_t n = nCores_;
    const int sidx = pstateIndex(pstate_);
    const double *const rate =
        &rates_[static_cast<std::size_t>(sidx) * n];
    const double pf = powerTbl_[sidx];
    const bool timed = !Trap && cfg_.mode == RunMode::Suit;
    // Trap windows open with no transition pending (windowAt()).
    const bool has_pending = !Trap && pending_.has_value();
    const Tick run_cap = has_pending ? pending_->runUntil : kNever;
    const Tick complete_at = has_pending ? pending_->completeAt : kNever;
    const Tick exception_delay =
        Trap ? suit::util::microsecondsToTicks(cfg_.cpu->exceptionDelayUs())
             : 0;
    const Tick *const cost = emuCost_.data();
    const suit::runtime::CancelToken *const cancel = cfg_.cancel;
    Tick *const arrival = arrival_.data();
    Tick *const anchor = anchor_.data();
    Tick *const resume = resume_.data();
    double *const remaining = remaining_.data();
    WindowCursor *const cursor = cursors_.data();

    // What consuming core i's next event will do (WindowCursor).  The
    // two resume_ maxima of a trap, exception delay then emulation
    // cost, are one max with the larger stall: the same Tick.
    const auto look_ahead = [&](std::size_t i) {
        WindowCursor &c = cursor[i];
        if (c.next >= c.count)
            return; // the core's next arrival is its completion
        if constexpr (Trap) {
            c.kind = static_cast<std::size_t>(c.kinds[c.next]);
            c.stall = std::max(exception_delay,
                               cost[i * kNumFaultableKinds + c.kind]);
        }
        const std::size_t after = c.next + 1;
        c.rem = after < c.count ? gapAt(*c.trace, c.gaps, after) : c.tail;
        if (Columns && after < c.count)
            c.delta = c.column[after];
        else
            c.delta = windowSecondsToTicks(c.rem / rate[i]);
    };
    std::size_t active = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // Every arrival once, at entry: another core's event does not
        // move it (the rate, the stall and the freeze are fixed for
        // the whole window).
        arrival[i] = coreArrivalFast(i);
        const Core &core = cores_[i];
        const suit::trace::Trace &trace = *core.work.trace;
        WindowCursor &c = cursor[i];
        c.trace = &trace;
        c.gaps = trace.gapColumn();
        c.kinds = trace.kindColumn();
        c.count = trace.eventCount();
        c.next = core.nextEvent;
        c.tail = static_cast<double>(trace.tailInstructions());
        c.column = Columns ? columnAt(static_cast<std::size_t>(sidx), i)
                           : nullptr;
        look_ahead(i);
        active += core.done ? 0U : 1U;
    }

    // Per-event state lives in locals and is written back at exit, as
    // in runWindowSingle().
    const Tick reload = timed ? timer_.reload() : 0;
    Tick expiry = timed ? timer_.expiry() : kNever;
    std::uint64_t by_kind[kNumFaultableKinds] = {};
    double power_s = powerIntegralS_;
    double active_s = activeTimeS_;
    double state_s = stateTimeS_[sidx];
    std::size_t last_trap = trappingCore_;
    std::uint64_t left = budget;
    std::uint32_t countdown = cancel_countdown;
    std::uint64_t consumed = 0;
    Tick t = now_;
    for (;;) {
        pollCancel(cancel, countdown);
        // The earliest arrival wins; ties pick the lowest core index,
        // like the generic scan's strict <.
        const std::size_t win = scanArrivals(arrival, n);
        const Tick m = arrival[win];
        // Stop where another event source outranks the winning core
        // (tie order: transitions > timers > cores), or where the
        // winner needs the generic loop (completion).
        if (m == kNever)
            break;
        if (timed && m >= expiry)
            break;
        if (has_pending && m >= complete_at)
            break;
        WindowCursor &c = cursor[win];
        if (c.next >= c.count)
            break; // completion: the generic step marks it done
        SUIT_ASSERT(left-- > 0, "simulation step budget exhausted");
        // Replay the reference accumulator sequence for this one event:
        // same addends, same order, same grouping as advanceToRef(m)
        // over the active cores.
        if (m > t) {
            const double dt_s = windowTicksToSeconds(m - t);
            const double pw_s = pf * dt_s;
            for (std::size_t k = 0; k < active; ++k) {
                power_s += pw_s;
                active_s += dt_s;
                state_s += dt_s;
            }
            t = m;
        }
        // The winner's event, then consumeEvent() inlined.
        if constexpr (Trap) {
            // The #DO trap, emulated (handleFaultableInstruction()).
            ++by_kind[c.kind];
            last_trap = win;
            resume[win] = std::max(resume[win], t + c.stall);
        } else {
            expiry = t + reload; // read only when timed
        }
        ++c.next;
        remaining[win] = c.rem;
        anchor[win] = t;
        // Only the winner's arrival moves: coreArrivalFast() at its new
        // anchor.  A native event finds its core unstalled (it arrived
        // at or after its resume), so there the start is t.
        const Tick start = Trap && resume[win] > t ? resume[win] : t;
        Tick a = start + c.delta;
        if (has_pending && (start >= run_cap || a > run_cap))
            a = kNever; // frozen by the transition
        arrival[win] = a;
        look_ahead(win);
        ++consumed;
    }
    for (std::size_t i = 0; i < n; ++i) {
        Core &core = cores_[i];
        core.nextEvent = cursor[i].next;
        core.pastLastEvent = core.pastLastEvent ||
                             cursor[i].next >= cursor[i].count;
    }
    if constexpr (Trap) {
        traps_ += consumed;
        emulations_ += consumed;
        for (std::size_t k = 0; k < kNumFaultableKinds; ++k)
            trapsByKind_[k] += by_kind[k];
        trappingCore_ = last_trap;
        strategy_->noteTraps(consumed);
    } else if (timed) {
        timer_.touchMany(consumed, t);
    }
    budget = left;
    cancel_countdown = countdown;
    powerIntegralS_ = power_s;
    activeTimeS_ = active_s;
    stateTimeS_[sidx] = state_s;
    now_ = t;
    batchedEvents_ += consumed;
}

DomainResult
DomainSimulator::run()
{
    DomainResult result;
    runInto(result);
    return result;
}

void
DomainSimulator::runInto(DomainResult &out)
{
    if (cfg_.referencePath)
        runReference(out);
    else
        runFast(out);
    publishObs(out);
}

void
DomainSimulator::runReference(DomainResult &out)
{
    std::size_t active = cores_.size();
    // Generous runaway guard: every event can cause only a bounded
    // number of simulator steps.
    std::uint64_t budget = 10000;
    for (const Core &core : cores_)
        budget += 20 * core.work.trace->eventCount() + 1000;

    std::uint32_t cancel_countdown = kCancelPollInterval;
    while (active > 0) {
        pollCancel(cfg_.cancel, cancel_countdown);
        SUIT_ASSERT(budget-- > 0, "simulation step budget exhausted");

        // Earliest event wins; transitions outrank timers outrank
        // core arrivals at equal times so rates are always current.
        Tick best = kNever;
        int kind = -1; // 0 transition, 1 timer, 2 core
        std::size_t core_idx = 0;

        if (pending_ && pending_->completeAt < best) {
            best = pending_->completeAt;
            kind = 0;
        }
        if (timer_.armed() && timer_.expiry() < best) {
            best = timer_.expiry();
            kind = 1;
        }
        for (std::size_t i = 0; i < nCores_; ++i) {
            const Tick a = coreArrivalRef(i);
            if (a < best) {
                best = a;
                kind = 2;
                core_idx = i;
            }
        }
        SUIT_ASSERT(kind >= 0, "deadlock: no runnable event");

        advanceToRef(best);

        switch (kind) {
          case 0:
            completePending();
            break;
          case 1:
            settleProgress();
            if (timer_.checkExpired(now_)) {
                SUIT_ASSERT(strategy_ != nullptr,
                            "timer fired without a strategy");
                if (trace_) {
                    trace_->instant(
                        suit::obs::TraceSession::kSimPid, track_,
                        suit::obs::TraceSession::simUs(now_),
                        "deadline-expiry", "sim");
                }
                strategy_->onTimerInterrupt(*this);
            }
            break;
          case 2: {
            Core &core = cores_[core_idx];
            if (core.pastLastEvent) {
                core.done = true;
                core.finishTime = now_;
                --active;
            } else {
                handleFaultableInstruction(core_idx);
            }
            break;
          }
        }
    }

    collectResultInto(out);
}

void
DomainSimulator::runFast(DomainResult &out)
{
    std::size_t active = cores_.size();
    // Same runaway guard as the reference loop; the batched window
    // charges one step per consumed event, so a batch never spends
    // more budget than the reference loop would for the same events.
    std::uint64_t budget = 10000;
    for (const Core &core : cores_)
        budget += 20 * core.work.trace->eventCount() + 1000;

    // Batched windows, one loop per domain arity: single-core domains
    // need no cross-core replay at all; multi-core domains merge the
    // cores' arrivals and replay the per-core accumulator adds per
    // event (see DESIGN.md).  runWindow() picks the loop.
    // windowAt() fixes at entry what each event does: it executes
    // natively, or it is strategy e's emulated trap.
    std::uint32_t cancel_countdown = kCancelPollInterval;
    while (active > 0) {
        pollCancel(cfg_.cancel, cancel_countdown);
        switch (windowAt()) {
          case Window::Native:
            runWindow<false>(budget, cancel_countdown);
            break;
          case Window::Trap:
            runWindow<true>(budget, cancel_countdown);
            break;
          case Window::None:
            break;
        }
        // A window stops at the first event another source outranks
        // (timer expiry, pending transition) and never finishes the
        // run: the tail drain below marks cores done through the
        // generic step.

        SUIT_ASSERT(budget-- > 0, "simulation step budget exhausted");

        // Earliest event wins; transitions outrank timers outrank
        // core arrivals at equal times so rates are always current.
        Tick best = kNever;
        int kind = -1; // 0 transition, 1 timer, 2 core
        std::size_t core_idx = 0;

        if (pending_ && pending_->completeAt < best) {
            best = pending_->completeAt;
            kind = 0;
        }
        if (timer_.armed() && timer_.expiry() < best) {
            best = timer_.expiry();
            kind = 1;
        }
        for (std::size_t i = 0; i < nCores_; ++i)
            arrival_[i] = coreArrivalFast(i);
        const std::size_t ci = scanArrivals(arrival_.data(), nCores_);
        if (arrival_[ci] < best) {
            best = arrival_[ci];
            kind = 2;
            core_idx = ci;
        }
        SUIT_ASSERT(kind >= 0, "deadlock: no runnable event");

        advanceToFast(best);

        switch (kind) {
          case 0:
            completePending();
            break;
          case 1:
            settleProgress();
            if (timer_.checkExpired(now_)) {
                SUIT_ASSERT(strategy_ != nullptr,
                            "timer fired without a strategy");
                if (trace_) {
                    trace_->instant(
                        suit::obs::TraceSession::kSimPid, track_,
                        suit::obs::TraceSession::simUs(now_),
                        "deadline-expiry", "sim");
                }
                strategy_->onTimerInterrupt(*this);
            }
            break;
          case 2: {
            Core &core = cores_[core_idx];
            if (core.pastLastEvent) {
                core.done = true;
                core.finishTime = now_;
                --active;
            } else {
                handleFaultableInstruction(core_idx);
            }
            break;
          }
        }
    }

    collectResultInto(out);
}

void
DomainSimulator::collectResultInto(DomainResult &result)
{
    // Overwrite every field: @p result may carry a previous run.  The
    // resize() + per-field assignment reuses the cores vector's and
    // each workload string's capacity.
    result.cores.resize(cores_.size());
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const Core &core = cores_[i];
        CoreResult &cr = result.cores[i];
        cr.workload = core.work.trace->name();
        cr.durationS = suit::util::ticksToSeconds(core.finishTime);
        cr.baselineDurationS =
            static_cast<double>(core.work.trace->totalInstructions()) /
            (core.work.profile->ipc * cfg_.cpu->baseFreqHz());
    }
    result.powerFactor =
        activeTimeS_ > 0.0 ? powerIntegralS_ / activeTimeS_ : 1.0;
    if (activeTimeS_ > 0.0) {
        result.efficientShare = stateTimeS_[0] / activeTimeS_;
        result.cfShare = stateTimeS_[1] / activeTimeS_;
        result.cvShare = stateTimeS_[2] / activeTimeS_;
    } else {
        result.efficientShare = 0.0;
        result.cfShare = 0.0;
        result.cvShare = 0.0;
    }
    // Swap instead of move: the run's log lands in the result and the
    // result's previous buffer becomes the next run's log capacity.
    std::swap(result.stateLog, stateLog_);
    stateLog_.clear();
    result.traps = traps_;
    result.emulations = emulations_;
    result.pstateSwitches = switches_;
    result.thrashDetections = 0;
    if (strategy_ != nullptr) {
        if (const auto *sw =
                dynamic_cast<suit::core::SwitchingStrategy *>(
                    strategy_)) {
            result.thrashDetections = sw->thrashDetections();
        }
    }
}

namespace {

/**
 * Registry handles of the metrics publishObs() records, resolved on
 * first use like TraceCache::get()'s: one mutex-guarded name lookup
 * per metric per process instead of one per metric per domain.  A
 * per-kind trap counter registers when its kind first traps, so the
 * registry only lists kinds that trapped.
 */
struct SimMetricIds
{
    using MetricId = suit::obs::MetricId;

    explicit SimMetricIds(suit::obs::Registry &reg)
        : runs(reg.counter("sim.runs")),
          traps(reg.counter("sim.traps")),
          emulations(reg.counter("sim.emulations")),
          switchDecisions(reg.counter("sim.switch_decisions")),
          pstateSwitches(reg.counter("sim.pstate_switches")),
          deadlineResets(reg.counter("sim.deadline.resets")),
          deadlineExpirations(reg.counter("sim.deadline.expirations")),
          thrashActivations(reg.counter("sim.thrash_activations")),
          residencyUs{reg.counter("sim.residency_us.E"),
                      reg.counter("sim.residency_us.Cf"),
                      reg.counter("sim.residency_us.CV")},
          eventsTotal(reg.counter("sim.events.total")),
          eventsBatched(reg.counter("sim.events.batched")),
          // Simulated, not host, milliseconds per core.
          domainSimMs(reg.histogram(
              "sim.domain_sim_ms",
              {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0}))
    {
    }

    MetricId trapsOf(suit::obs::Registry &reg,
                     suit::isa::FaultableKind kind)
    {
        const auto k = static_cast<std::size_t>(kind);
        std::call_once(trapsByKindOnce[k], [&] {
            trapsByKind[k] = reg.counter(std::string("sim.traps.") +
                                         suit::isa::toString(kind));
        });
        return trapsByKind[k];
    }

    MetricId runs, traps, emulations, switchDecisions, pstateSwitches,
        deadlineResets, deadlineExpirations, thrashActivations;
    std::array<MetricId, 3> residencyUs; //!< E, Cf, CV
    MetricId eventsTotal, eventsBatched, domainSimMs;
    std::array<MetricId, suit::isa::kNumFaultableKinds> trapsByKind;
    std::array<std::once_flag, suit::isa::kNumFaultableKinds>
        trapsByKindOnce;
};

} // namespace

void
DomainSimulator::publishObs(const DomainResult &result) const
{
    if (cfg_.obsBypass)
        return;
    suit::obs::Registry &reg = suit::obs::metrics();
    if (!reg.enabled())
        return;
    static SimMetricIds ids(reg);

    reg.add(ids.runs);
    reg.add(ids.traps, traps_);
    for (const auto kind : suit::isa::allFaultableKinds()) {
        const std::uint64_t n =
            trapsByKind_[static_cast<std::size_t>(kind)];
        if (n != 0)
            reg.add(ids.trapsOf(reg, kind), n);
    }
    reg.add(ids.emulations, emulations_);
    // Every trap the strategy did not resolve by emulating was a
    // curve-switch decision.
    reg.add(ids.switchDecisions, traps_ - emulations_);
    reg.add(ids.pstateSwitches, switches_);
    reg.add(ids.deadlineResets, timer_.resets());
    reg.add(ids.deadlineExpirations, timer_.expirations());
    reg.add(ids.thrashActivations, result.thrashDetections);

    // P-state residency as integrated active time per curve.
    for (std::size_t s = 0; s < ids.residencyUs.size(); ++s)
        reg.add(ids.residencyUs[s],
                static_cast<std::uint64_t>(stateTimeS_[s] * 1e6));

    // Batched-window hit rate: share of trace events consumed inside
    // a batched window instead of the generic event loop.
    std::uint64_t consumed = 0;
    for (const Core &core : cores_)
        consumed += core.nextEvent;
    reg.add(ids.eventsTotal, consumed);
    reg.add(ids.eventsBatched, batchedEvents_);
    if (columnsBuilt_ != 0) {
        // Registered on first use: runs without a column store (sweeps,
        // suit_sim, suit_paper) publish no such series.
        static const suit::obs::MetricId columns_built =
            reg.counter("sim.arrival_columns.built");
        reg.add(columns_built, columnsBuilt_);
    }

    for (const CoreResult &core : result.cores)
        reg.observe(ids.domainSimMs, core.durationS * 1e3);
}

} // namespace suit::sim

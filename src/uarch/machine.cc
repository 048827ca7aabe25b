#include "uarch/machine.hh"

#include <optional>

#include "emu/dispatcher.hh"
#include "obs/registry.hh"
#include "util/logging.hh"

namespace suit::uarch {

using suit::power::SuitPState;
using suit::util::Tick;
using Cycle = std::uint64_t;

/**
 * CpuControl in the cycle domain: translates the strategy's p-state
 * requests into charged pipeline cycles and a p-state timeline.
 */
class SuitMachine::CycleCpu final : public suit::core::CpuControl
{
  public:
    CycleCpu(const Config &cfg, SuitPState initial)
        : cfg_(cfg), rng_(cfg.seed * 131 + 7), pstate_(initial)
    {
        log_.push_back({0, pstate_});
    }

    /** Advance to an event (trap/alarm) at @p when. */
    void
    beginEvent(Cycle when)
    {
        now_ = std::max(now_, when);
        commitPendingUpTo(now_);
    }

    /** Cycles charged by the strategy since the last collection. */
    Cycle
    takeChargedCycles()
    {
        const Cycle c = charged_;
        charged_ = 0;
        return c;
    }

    /** Alarm reload requested since the last collection (cycles). */
    Cycle
    takeArmedReload()
    {
        const Cycle r = armReload_;
        armReload_ = 0;
        return r;
    }

    /** Commit any due pending switch and return the timeline. */
    const std::vector<std::pair<Cycle, SuitPState>> &
    finalize(Cycle total_cycles)
    {
        commitPendingUpTo(total_cycles);
        return log_;
    }

    // ---- CpuControl ------------------------------------------------
    void
    changePStateWait(SuitPState target) override
    {
        pending_.reset();
        if (pstate_ == target)
            return;
        const Cycle delay = transitionCycles(pstate_, target);
        charged_ += delay;
        now_ += delay;
        pstate_ = target;
        log_.push_back({now_, pstate_});
    }

    void
    changePStateAsync(SuitPState target) override
    {
        pending_.reset();
        if (pstate_ == target)
            return;
        pending_ = {now_ + transitionCycles(pstate_, target), target};
    }

    void cancelPendingPState() override { pending_.reset(); }

    void setInstructionsDisabled(bool d) override { disabled_ = d; }

    void
    setTimerInterrupt(Tick reload) override
    {
        armReload_ = ticksToCycles(reload);
    }

    SuitPState currentPState() const override { return pstate_; }
    bool instructionsDisabled() const override { return disabled_; }

    Tick
    now() const override
    {
        return cyclesToTicks(now_);
    }

  private:
    const Config &cfg_;
    suit::util::Rng rng_;
    Cycle now_ = 0;
    SuitPState pstate_;
    bool disabled_ = false;
    std::optional<std::pair<Cycle, SuitPState>> pending_;
    std::vector<std::pair<Cycle, SuitPState>> log_;
    Cycle charged_ = 0;
    Cycle armReload_ = 0;

    Cycle
    ticksToCycles(Tick t) const
    {
        return static_cast<Cycle>(suit::util::ticksToSeconds(t) *
                                  cfg_.cpu->baseFreqHz());
    }

    Tick
    cyclesToTicks(Cycle c) const
    {
        return suit::util::secondsToTicks(
            static_cast<double>(c) / cfg_.cpu->baseFreqHz());
    }

    Cycle
    transitionCycles(SuitPState from, SuitPState to)
    {
        const auto &tm = cfg_.cpu->transitions();
        Tick delay = 0;
        const bool from_low = from == SuitPState::ConservativeFreq;
        const bool to_low = to == SuitPState::ConservativeFreq;
        const bool from_hi = from == SuitPState::ConservativeVolt;
        const bool to_hi = to == SuitPState::ConservativeVolt;
        if (from_hi != to_hi)
            delay += tm.voltageChange.sample(rng_);
        if (from_low != to_low)
            delay += tm.freqChange.sample(rng_);
        return ticksToCycles(delay);
    }

    void
    commitPendingUpTo(Cycle when)
    {
        if (pending_ && pending_->first <= when) {
            pstate_ = pending_->second;
            log_.push_back(*pending_);
            pending_.reset();
        }
    }
};

SuitMachine::SuitMachine(const Config &config) : cfg_(config)
{
    SUIT_ASSERT(cfg_.cpu != nullptr, "machine needs a CPU model");
}

void
publishCoreStats(const CoreStats &stats)
{
    suit::obs::Registry &reg = suit::obs::metrics();
    if (!reg.enabled())
        return;

    reg.add(reg.counter("uarch.runs"));
    reg.add(reg.counter("uarch.instructions"), stats.instructions);
    reg.add(reg.counter("uarch.cycles"), stats.cycles);
    reg.add(reg.counter("uarch.branches"), stats.branches);
    reg.add(reg.counter("uarch.mispredicts"), stats.mispredicts);
    reg.add(reg.counter("uarch.loads"), stats.loads);
    reg.add(reg.counter("uarch.stores"), stats.stores);
    reg.add(reg.counter("uarch.l1d_misses"), stats.l1dMisses);
    reg.add(reg.counter("uarch.llc_misses"), stats.llcMisses);
    reg.add(reg.counter("uarch.do_traps"), stats.traps);
    reg.add(reg.counter("uarch.emulations"), stats.emulated);
}

namespace {

/** Integrate wall-clock and power over the p-state timeline. */
void
accountTimeline(
    const SuitMachine::Config &cfg,
    const std::vector<std::pair<Cycle, SuitPState>> &timeline,
    Cycle total_cycles, MachineResult &out)
{
    const double base_hz = cfg.cpu->baseFreqHz();
    double seconds = 0.0;
    double power_int = 0.0;
    double efficient_s = 0.0;
    for (std::size_t i = 0; i < timeline.size(); ++i) {
        const Cycle start = timeline[i].first;
        const Cycle end = i + 1 < timeline.size()
                              ? timeline[i + 1].first
                              : total_cycles;
        if (end <= start)
            continue;
        const SuitPState state = timeline[i].second;
        double hz = base_hz;
        switch (state) {
          case SuitPState::Efficient:
            hz = base_hz *
                 (1.0 + cfg.cpu->undervolt().at(cfg.offsetMv)
                            .freqDelta);
            break;
          case SuitPState::ConservativeFreq:
            hz = cfg.cpu->cfFreqHz(cfg.offsetMv);
            break;
          case SuitPState::ConservativeVolt:
            break;
        }
        const double dt =
            static_cast<double>(end - start) / hz;
        seconds += dt;
        power_int += dt * cfg.cpu->powerFactor(state, cfg.offsetMv);
        if (state == SuitPState::Efficient)
            efficient_s += dt;
    }
    out.seconds = seconds;
    out.powerFactor = seconds > 0.0 ? power_int / seconds : 1.0;
    out.efficientShare = seconds > 0.0 ? efficient_s / seconds : 0.0;
}

} // namespace

MachineResult
SuitMachine::runBaseline(const Program &program)
{
    CoreConfig core_cfg = cfg_.core;
    core_cfg.setImulLatency(3); // stock hardware
    O3Model core(core_cfg);

    MachineResult r;
    r.stats = core.run(program);
    publishCoreStats(r.stats);
    r.seconds =
        static_cast<double>(r.stats.cycles) / cfg_.cpu->baseFreqHz();
    r.powerFactor = 1.0;
    r.efficientShare = 0.0;
    return r;
}

MachineResult
SuitMachine::runSuit(const Program &program)
{
    const double base_hz = cfg_.cpu->baseFreqHz();
    CoreConfig core_cfg = cfg_.core;
    core_cfg.setImulLatency(4); // SUIT hardware (Sec. 4.2)
    // #DO entry: the CPU's measured exception delay (Sec. 5.3).
    core_cfg.trapPenalty = static_cast<int>(
        cfg_.cpu->exceptionDelayUs() * 1e-6 * base_hz);
    O3Model core(core_cfg);

    CycleCpu cpu(cfg_, SuitPState::ConservativeVolt);
    suit::core::SuitController controller(cpu, msrs_, cfg_.strategy,
                                          cfg_.params);
    controller.enable(); // MSRs on, async switch to E at cycle 0

    const suit::isa::FaultableSet trap_set =
        suit::isa::FaultableSet::suitTrapSet();
    core.setDisabledSet(trap_set);

    const Cycle emu_roundtrip = static_cast<Cycle>(
        cfg_.cpu->emulationCallUs() * 1e-6 * base_hz);
    const Cycle trap_penalty =
        static_cast<Cycle>(core_cfg.trapPenalty);

    core.setTrapHandler([&](suit::isa::FaultableKind kind,
                            std::uint64_t, std::uint64_t when) {
        cpu.beginEvent(when);
        suit::os::TrapFrame frame;
        frame.kind = kind;
        frame.when = cpu.now();
        const suit::core::TrapAction action =
            controller.handleDisabledOpcode(frame);

        UarchTrapAction ua;
        ua.emulate = action.emulated;
        ua.extraCycles = cpu.takeChargedCycles();
        if (action.emulated) {
            // The full round trip replaces the plain trap entry.
            const Cycle body = static_cast<Cycle>(
                suit::emu::emulationCostCycles(kind));
            ua.extraCycles +=
                (emu_roundtrip > trap_penalty
                     ? emu_roundtrip - trap_penalty
                     : 0) +
                body;
        }
        ua.newDisabledSet = cpu.instructionsDisabled()
                                ? trap_set
                                : suit::isa::FaultableSet{};
        ua.armAlarmCycles = cpu.takeArmedReload();
        return ua;
    });

    core.setAlarmHandler([&](std::uint64_t when) {
        cpu.beginEvent(when);
        controller.handleTimerInterrupt();
        return cpu.instructionsDisabled()
                   ? trap_set
                   : suit::isa::FaultableSet{};
    });

    MachineResult r;
    r.stats = core.run(program);
    publishCoreStats(r.stats);
    accountTimeline(cfg_, cpu.finalize(r.stats.cycles),
                    r.stats.cycles, r);
    return r;
}

} // namespace suit::uarch

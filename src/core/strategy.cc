#include "core/strategy.hh"

#include <new>

#include "util/logging.hh"

namespace suit::core {

using suit::power::SuitPState;

const char *
toString(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::Emulation:
        return "e";
      case StrategyKind::Frequency:
        return "f";
      case StrategyKind::Voltage:
        return "V";
      case StrategyKind::CombinedFv:
        return "fV";
      case StrategyKind::Hybrid:
        return "e+fV";
    }
    return "?";
}

StrategyKind
strategyKindByName(const std::string &name)
{
    if (name == "e" || name == "emulation")
        return StrategyKind::Emulation;
    if (name == "f" || name == "frequency")
        return StrategyKind::Frequency;
    if (name == "V" || name == "voltage")
        return StrategyKind::Voltage;
    if (name == "fV" || name == "combined")
        return StrategyKind::CombinedFv;
    if (name == "hybrid" || name == "e+fV")
        return StrategyKind::Hybrid;
    suit::util::fatal("unknown strategy '%s' (e, f, V, fV, hybrid)",
                      name.c_str());
}

SwitchingStrategy::SwitchingStrategy(const StrategyParams &params)
    : params_(params), thrash_(params)
{
}

TrapAction
SwitchingStrategy::onDisabledOpcode(CpuControl &cpu,
                                    const suit::os::TrapFrame &frame)
{
    (void)frame;
    ++trapCount_;

    // Listing 1: reach a conservative operating point first, then
    // re-enable the instruction set so the program can continue.
    // If the trap raced the return to the efficient curve, the
    // domain is still conservative: just cancel the pending switch.
    if (cpu.currentPState() == SuitPState::Efficient) {
        switchToConservative(cpu);
    } else {
        cpu.cancelPendingPState();
        restoreAfterCancel(cpu);
    }
    cpu.setInstructionsDisabled(false);

    // Thrashing prevention: stretch the deadline when exceptions
    // cluster just outside it.
    thrash_.recordException(cpu.now());
    if (thrash_.isThrashing(cpu.now())) {
        ++thrashDetections_;
        cpu.setTimerInterrupt(params_.boostedDeadlineTicks());
    } else {
        cpu.setTimerInterrupt(params_.deadlineTicks());
    }
    return TrapAction{false}; // re-execute after the switch
}

void
SwitchingStrategy::reuse(const StrategyParams &params)
{
    OperatingStrategy::reuse(params);
    params_ = params;
    thrash_.rebind(params);
    thrashDetections_ = 0;
}

void
SwitchingStrategy::onTimerInterrupt(CpuControl &cpu)
{
    // No faultable instruction for a whole deadline: disable the set
    // again and drift back to the efficient curve (no need to wait).
    cpu.setInstructionsDisabled(true);
    cpu.changePStateAsync(SuitPState::Efficient);
}

void
FrequencyStrategy::switchToConservative(CpuControl &cpu)
{
    cpu.changePStateWait(SuitPState::ConservativeFreq);
}

void
VoltageStrategy::switchToConservative(CpuControl &cpu)
{
    cpu.changePStateWait(SuitPState::ConservativeVolt);
}

void
CombinedFvStrategy::switchToConservative(CpuControl &cpu)
{
    // Quick safety via the frequency, full performance to follow via
    // the background voltage raise (Fig. 6).
    cpu.changePStateWait(SuitPState::ConservativeFreq);
    cpu.changePStateAsync(SuitPState::ConservativeVolt);
}

void
CombinedFvStrategy::restoreAfterCancel(CpuControl &cpu)
{
    // Still at Cf after the cancelled return: resume the voltage
    // raise so a long burst again ends at full performance.
    if (cpu.currentPState() == SuitPState::ConservativeFreq)
        cpu.changePStateAsync(SuitPState::ConservativeVolt);
}

TrapAction
EmulationStrategy::onDisabledOpcode(CpuControl &cpu,
                                    const suit::os::TrapFrame &frame)
{
    (void)cpu;
    (void)frame;
    ++trapCount_;
    // The instruction set stays disabled and the domain stays on the
    // efficient curve; the handler returns into mapped user-space
    // emulation code (Sec. 3.4).
    return TrapAction{true};
}

void
EmulationStrategy::onTimerInterrupt(CpuControl &cpu)
{
    (void)cpu;
    SUIT_PANIC("emulation strategy never arms the deadline timer");
}

HybridStrategy::HybridStrategy(const StrategyParams &params)
    : CombinedFvStrategy(params), burstDetector_(params)
{
}

void
HybridStrategy::reuse(const StrategyParams &params)
{
    CombinedFvStrategy::reuse(params);
    burstDetector_.rebind(params);
    emulatedTraps_ = 0;
}

TrapAction
HybridStrategy::onDisabledOpcode(CpuControl &cpu,
                                 const suit::os::TrapFrame &frame)
{
    // While already conservative, behave exactly like fV (enable the
    // set, reset the deadline).
    if (cpu.currentPState() != SuitPState::Efficient)
        return CombinedFvStrategy::onDisabledOpcode(cpu, frame);

    burstDetector_.recordException(cpu.now());
    if (!burstDetector_.isThrashing(cpu.now())) {
        // Isolated trap: one emulation round trip beats two curve
        // switches plus a deadline of conservative residency
        // (Sec. 6.6: emulation is faster for single instructions).
        ++trapCount_;
        ++emulatedTraps_;
        return TrapAction{true};
    }
    // Traps are clustering: this is a burst — switch curves.
    return CombinedFvStrategy::onDisabledOpcode(cpu, frame);
}

std::unique_ptr<OperatingStrategy>
makeStrategy(StrategyKind kind, const StrategyParams &params)
{
    switch (kind) {
      case StrategyKind::Emulation:
        return std::make_unique<EmulationStrategy>();
      case StrategyKind::Frequency:
        return std::make_unique<FrequencyStrategy>(params);
      case StrategyKind::Voltage:
        return std::make_unique<VoltageStrategy>(params);
      case StrategyKind::CombinedFv:
        return std::make_unique<CombinedFvStrategy>(params);
      case StrategyKind::Hybrid:
        return std::make_unique<HybridStrategy>(params);
    }
    SUIT_PANIC("bad strategy kind %d", static_cast<int>(kind));
}

namespace {

template <typename T>
constexpr bool fitsArena =
    sizeof(T) <= StrategyArena::kSlotBytes &&
    alignof(T) <= alignof(std::max_align_t);

static_assert(fitsArena<EmulationStrategy> &&
                  fitsArena<FrequencyStrategy> &&
                  fitsArena<VoltageStrategy> &&
                  fitsArena<CombinedFvStrategy> &&
                  fitsArena<HybridStrategy>,
              "StrategyArena::kSlotBytes is too small for a strategy");

} // namespace

OperatingStrategy *
StrategyArena::emplace(StrategyKind kind, const StrategyParams &params)
{
    if (active_ != nullptr && active_->kind() == kind) {
        active_->reuse(params);
        return active_;
    }
    clear();
    void *const slot = static_cast<void *>(slot_);
    switch (kind) {
      case StrategyKind::Emulation:
        active_ = ::new (slot) EmulationStrategy();
        break;
      case StrategyKind::Frequency:
        active_ = ::new (slot) FrequencyStrategy(params);
        break;
      case StrategyKind::Voltage:
        active_ = ::new (slot) VoltageStrategy(params);
        break;
      case StrategyKind::CombinedFv:
        active_ = ::new (slot) CombinedFvStrategy(params);
        break;
      case StrategyKind::Hybrid:
        active_ = ::new (slot) HybridStrategy(params);
        break;
    }
    SUIT_ASSERT(active_ != nullptr, "bad strategy kind %d",
                static_cast<int>(kind));
    return active_;
}

void
StrategyArena::clear()
{
    if (active_ != nullptr) {
        active_->~OperatingStrategy();
        active_ = nullptr;
    }
}

} // namespace suit::core

#include "faults/attack.hh"

#include <algorithm>

#include "util/rng.hh"

namespace suit::faults {

namespace {

/**
 * Run the victim loop.  @p exec_supply_mv is the supply voltage the
 * target instruction actually executes at; @p count_trap is true on
 * the SUIT machine where each disabled execution first traps.
 */
AttackResult
runCampaign(const VminModel &model, const AttackConfig &cfg,
            double exec_supply_mv, bool count_trap)
{
    AttackResult result;
    FaultInjector injector(&model, cfg.seed);
    suit::util::Rng operands(cfg.seed * 31 + 7);

    for (int i = 0; i < cfg.attempts; ++i) {
        suit::emu::EmuRequest req;
        req.kind = cfg.target;
        req.a = suit::emu::Vec256(operands.next(), operands.next(),
                                  operands.next(), operands.next());
        req.b = suit::emu::Vec256(operands.next(), operands.next(),
                                  operands.next(), operands.next());

        ++result.attempts;
        if (count_trap)
            ++result.traps;

        const ExecOutcome out =
            injector.execute(req, cfg.core, cfg.freqHz, exec_supply_mv);
        if (out.crashed)
            continue; // attacker loses this attempt, system resets
        if (out.faulted)
            ++result.faultyResults;
    }
    result.keyRecoveryFeasible =
        result.faultyResults >=
        static_cast<std::uint64_t>(cfg.dfaThreshold);
    return result;
}

} // namespace

AttackResult
attackBaseline(const VminModel &model, const AttackConfig &cfg)
{
    // No SUIT: the instruction executes at the undervolted supply.
    const double nominal =
        model.config().curve->voltageAtMv(cfg.freqHz);
    return runCampaign(model, cfg, nominal - cfg.undervoltMv, false);
}

AttackResult
attackWithSuit(const VminModel &model, const AttackConfig &cfg)
{
    const double nominal =
        model.config().curve->voltageAtMv(cfg.freqHz);
    // A disabled instruction raises #DO; the OS switches to the
    // conservative curve, and the re-execution happens at the full
    // vendor-validated voltage regardless of the attacker's offset
    // (the hardware refuses the efficient curve while the set is
    // enabled, Sec. 3.2).
    if (suit::isa::FaultableSet::suitTrapSet().contains(cfg.target))
        return runCampaign(model, cfg, nominal, true);
    return runCampaign(model, cfg,
                       std::max(nominal - cfg.undervoltMv,
                                nominal - kEfficientOffsetMv),
                       false);
}

} // namespace suit::faults

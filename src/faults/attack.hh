/**
 * @file
 * Software-based undervolting attack simulation (paper Secs. 1, 6.9).
 *
 * Plundervolt/V0LTpwn-style attacks drive the supply voltage just
 * below an instruction's Vmin while a victim computes on secrets;
 * the silently wrong results (e.g. a faulty AES round or a faulty
 * RSA-CRT multiplication) let the attacker recover keys by
 * differential fault analysis.  This module mounts exactly that
 * campaign against the fault model, once on a baseline CPU and once
 * on a SUIT CPU where the faultable set is disabled on the efficient
 * curve — demonstrating the reductionist security argument: with
 * SUIT, the faultable instructions simply never execute at an
 * unstable operating point.
 */

#ifndef SUIT_FAULTS_ATTACK_HH
#define SUIT_FAULTS_ATTACK_HH

#include <cstdint>

#include "faults/injector.hh"
#include "isa/faultable.hh"

namespace suit::faults {

/** Outcome of one attack campaign. */
struct AttackResult
{
    /** Victim computations triggered. */
    std::uint64_t attempts = 0;
    /** Faulty results the attacker collected. */
    std::uint64_t faultyResults = 0;
    /** #DO traps taken (SUIT machine only). */
    std::uint64_t traps = 0;
    /**
     * Whether enough faulty outputs were collected for differential
     * fault analysis (a handful suffices for AES DFA).
     */
    bool keyRecoveryFeasible = false;
};

/** Attack campaign parameters. */
struct AttackConfig
{
    /** Instruction targeted by the attacker. */
    suit::isa::FaultableKind target =
        suit::isa::FaultableKind::AESENC;
    /** Victim core. */
    int core = 0;
    /** Operating frequency. */
    double freqHz = 4.0e9;
    /** Undervolt applied by the attacker, below the target's Vmin. */
    double undervoltMv = 180.0;
    /** Victim invocations. */
    int attempts = 5000;
    /** Faulty outputs needed for DFA. */
    int dfaThreshold = 4;
    /** RNG seed. */
    std::uint64_t seed = 1337;
};

/**
 * Depth of SUIT's efficient curve below the vendor curve (mV): the
 * paper's -97 mV operating point.  SUIT refuses any lower supply.
 */
constexpr double kEfficientOffsetMv = 97.0;

/**
 * Mount the campaign on a CPU *without* SUIT: the undervolt applies
 * while the victim executes the target instruction natively.
 */
AttackResult attackBaseline(const VminModel &model,
                            const AttackConfig &config);

/**
 * Mount the same campaign on a CPU *with* SUIT.  A target in the trap
 * set (isa::FaultableSet::suitTrapSet) is disabled on the efficient
 * curve: every execution traps, and the hardware re-executes it only
 * at the vendor-validated conservative operating point.  Any other
 * target (the hardened IMUL) runs natively without a trap, at the
 * requested undervolt but no deeper than the efficient curve.
 */
AttackResult attackWithSuit(const VminModel &model,
                            const AttackConfig &config);

} // namespace suit::faults

#endif // SUIT_FAULTS_ATTACK_HH

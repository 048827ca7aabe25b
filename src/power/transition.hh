/**
 * @file
 * DVFS transition-delay models (paper Sec. 5.2, Figs. 8-11).
 *
 * Switching DVFS curves is not free: requesting a new frequency or
 * voltage takes tens to hundreds of microseconds to take effect, and
 * on Intel CPUs the core *stalls* while the clock is re-locked.  The
 * paper measures these delays on three machines; this module models
 * them as jittered distributions and can synthesise the measurement
 * waveforms the paper plots.
 */

#ifndef SUIT_POWER_TRANSITION_HH
#define SUIT_POWER_TRANSITION_HH

#include <vector>

#include "util/rng.hh"
#include "util/ticks.hh"

namespace suit::power {

/** A jittered delay: mean and spread in microseconds, hard cap. */
struct DelayDistribution
{
    /** Mean delay (us). */
    double meanUs = 0.0;
    /** Standard deviation (us). */
    double sigmaUs = 0.0;
    /** Hard maximum (us); 0 disables the cap. */
    double maxUs = 0.0;

    /** Draw one delay in ticks (truncated normal, never negative). */
    suit::util::Tick sample(suit::util::Rng &rng) const;
};

/** How a CPU executes p-state change requests. */
struct TransitionModel
{
    /** Delay until a requested core-frequency change takes effect. */
    DelayDistribution freqChange;
    /** Whether the core stalls while the frequency changes. */
    bool stallsOnFreqChange = false;
    /** Stall duration if stallsOnFreqChange. */
    DelayDistribution freqChangeStall;
    /** Delay until a requested core-voltage change has settled. */
    DelayDistribution voltageChange;
    /**
     * Whether voltage can be commanded independently of frequency
     * (Intel MSR 0x150 style).  On CPUs without this (AMD), curve
     * switching can only be done via frequency.
     */
    bool independentVoltageControl = true;
    /**
     * Whether p-state changes sequence voltage-then-frequency in
     * hardware (Intel Xeon PCPS behaviour, Fig. 11).
     */
    bool voltageLeadsFrequency = false;
};

/** One sample of a measured waveform. */
struct WaveformSample
{
    /** Time relative to the change request (us; may be negative). */
    double timeUs = 0.0;
    /** Observed value (mV for voltage, Hz for frequency). */
    double value = 0.0;
    /** True for samples inside a core stall (not observable live). */
    bool duringStall = false;
};

/**
 * Synthesise a voltage-settling waveform like Fig. 8: the regulator
 * ramps from @p start_mv to @p end_mv over a sampled settle delay.
 *
 * @param model transition model supplying the voltage delay.
 * @param start_mv initial core voltage.
 * @param end_mv requested core voltage.
 * @param rng randomness for delay jitter and measurement noise.
 * @param sample_period_us polling period of the virtual MSR reader.
 */
std::vector<WaveformSample>
voltageStepWaveform(const TransitionModel &model, double start_mv,
                    double end_mv, suit::util::Rng &rng,
                    double sample_period_us = 10.0);

/**
 * Synthesise a frequency-change waveform like Figs. 9-11.  On CPUs
 * that stall, no samples exist during the re-lock window and the
 * first sample after the stall still reports the old frequency
 * (the APERF artifact the paper describes).
 */
std::vector<WaveformSample>
frequencyStepWaveform(const TransitionModel &model, double start_hz,
                      double end_hz, suit::util::Rng &rng,
                      double sample_period_us = 2.0);

/** @{ Measured transition models (paper Sec. 5.2). */

/** Intel Core i9-9900K: 22 us freq (core stalls), 350 us voltage. */
TransitionModel i9_9900kTransitionModel();

/** AMD Ryzen 7 7700X: 668 us freq change, no stall, no V control. */
TransitionModel ryzen7700xTransitionModel();

/**
 * Intel Xeon Silver 4208 (per-core PCPS): 335 us voltage followed by
 * 31 us frequency, 27 us stall.
 */
TransitionModel xeon4208TransitionModel();

/** @} */

} // namespace suit::power

#endif // SUIT_POWER_TRANSITION_HH

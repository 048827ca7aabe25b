#include "power/transition.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace suit::power {

using suit::util::Rng;
using suit::util::Tick;

Tick
DelayDistribution::sample(Rng &rng) const
{
    double us = rng.nextGaussian(meanUs, sigmaUs);
    // Truncate the Gaussian: a hardware transition is never faster
    // than a small fraction of its typical latency.
    us = std::max(us, 0.1 * meanUs);
    if (maxUs > 0.0)
        us = std::min(us, maxUs);
    return suit::util::microsecondsToTicks(us);
}

std::vector<WaveformSample>
voltageStepWaveform(const TransitionModel &model, double start_mv,
                    double end_mv, Rng &rng, double sample_period_us)
{
    SUIT_ASSERT(sample_period_us > 0.0, "sample period must be > 0");
    const double settle_us =
        suit::util::ticksToMicroseconds(model.voltageChange.sample(rng));
    std::vector<WaveformSample> out;
    // A little pre-trigger context, then poll until well past settle.
    const double start_t = -3.0 * sample_period_us;
    const double end_t = settle_us + 8.0 * sample_period_us;
    // Voltage regulators step in discrete SVID increments; model the
    // ramp as piecewise steps of ~5 mV with measurement noise.
    const double step_mv = (end_mv > start_mv) ? 5.0 : -5.0;
    for (double t = start_t; t <= end_t; t += sample_period_us) {
        double v;
        if (t <= 0.0) {
            v = start_mv;
        } else if (t >= settle_us) {
            v = end_mv;
        } else {
            const double frac = t / settle_us;
            const double ideal = start_mv + frac * (end_mv - start_mv);
            v = start_mv +
                std::floor((ideal - start_mv) / step_mv) * step_mv;
        }
        v += rng.nextGaussian(0.0, 1.0); // MSR read noise, ~1 mV
        out.push_back({t, v, false});
    }
    return out;
}

std::vector<WaveformSample>
frequencyStepWaveform(const TransitionModel &model, double start_hz,
                      double end_hz, Rng &rng, double sample_period_us)
{
    SUIT_ASSERT(sample_period_us > 0.0, "sample period must be > 0");
    const double change_us =
        suit::util::ticksToMicroseconds(model.freqChange.sample(rng));
    const double stall_us =
        model.stallsOnFreqChange
            ? suit::util::ticksToMicroseconds(
                  model.freqChangeStall.sample(rng))
            : 0.0;
    std::vector<WaveformSample> out;
    const double start_t = -5.0 * sample_period_us;
    const double end_t = change_us + 10.0 * sample_period_us;
    bool aperf_artifact_pending = model.stallsOnFreqChange;
    for (double t = start_t; t <= end_t; t += sample_period_us) {
        const bool in_stall =
            model.stallsOnFreqChange && t > 0.0 && t < stall_us;
        double f;
        if (t <= 0.0) {
            f = start_hz;
        } else if (t < change_us) {
            // AMD-style gradual transition: the core keeps running and
            // the observed frequency drifts toward the target.
            f = model.stallsOnFreqChange
                    ? start_hz
                    : start_hz + (end_hz - start_hz) * (t / change_us);
        } else {
            f = end_hz;
        }
        if (!in_stall && t >= stall_us && aperf_artifact_pending) {
            // First post-stall APERF/MPERF reading still shows the old
            // frequency because the counters were latched late during
            // the stall (paper Sec. 5.2).
            f = start_hz;
            aperf_artifact_pending = false;
        }
        f *= 1.0 + rng.nextGaussian(0.0, 0.002); // counter noise
        out.push_back({t, f, in_stall});
    }
    if (model.stallsOnFreqChange) {
        // Remove samples that fall inside the stall: the measuring
        // core cannot observe itself while stalled (the gray area in
        // Fig. 9).
        out.erase(std::remove_if(out.begin(), out.end(),
                                 [](const WaveformSample &s) {
                                     return s.duringStall;
                                 }),
                  out.end());
    }
    return out;
}

TransitionModel
i9_9900kTransitionModel()
{
    TransitionModel m;
    m.freqChange = {22.0, 0.21, 24.8};
    m.stallsOnFreqChange = true;
    m.freqChangeStall = {22.0, 0.21, 24.8};
    m.voltageChange = {350.0, 22.0, 379.0};
    m.independentVoltageControl = true;
    m.voltageLeadsFrequency = false;
    return m;
}

TransitionModel
ryzen7700xTransitionModel()
{
    TransitionModel m;
    m.freqChange = {668.0, 292.0, 1500.0};
    m.stallsOnFreqChange = false;
    m.voltageChange = {668.0, 292.0, 1500.0};
    // The 7700X exposes no runtime voltage-offset MSR; the Curve
    // Optimizer is a static BIOS setting (paper Sec. 5.4).
    m.independentVoltageControl = false;
    m.voltageLeadsFrequency = false;
    return m;
}

TransitionModel
xeon4208TransitionModel()
{
    TransitionModel m;
    m.freqChange = {31.0, 2.3, 40.0};
    m.stallsOnFreqChange = true;
    m.freqChangeStall = {27.0, 2.5, 35.0};
    m.voltageChange = {335.0, 135.0, 600.0};
    m.independentVoltageControl = true;
    m.voltageLeadsFrequency = true;
    return m;
}

} // namespace suit::power

#include "power/cpu_model.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace suit::power {

const char *
toString(SuitPState p)
{
    switch (p) {
      case SuitPState::Efficient:
        return "E";
      case SuitPState::ConservativeFreq:
        return "Cf";
      case SuitPState::ConservativeVolt:
        return "CV";
    }
    return "?";
}

CpuModel::CpuModel(Config cfg)
    : cfg_(std::move(cfg))
{
    SUIT_ASSERT(cfg_.coreCount >= 1, "CPU '%s' needs cores",
                cfg_.name.c_str());
    SUIT_ASSERT(cfg_.conservativeCurve.valid(),
                "CPU '%s' needs a DVFS curve", cfg_.name.c_str());
}

DvfsCurve
CpuModel::efficientCurve(double offset_mv) const
{
    return cfg_.conservativeCurve.shifted(
        offset_mv, cfg_.name + " efficient");
}

double
CpuModel::cfFreqHz(double offset_mv) const
{
    const double v_base =
        cfg_.conservativeCurve.voltageAtMv(cfg_.baseFreqHz);
    const double v_eff = v_base + offset_mv; // offset is negative
    return cfg_.conservativeCurve.freqAtHz(v_eff);
}

double
CpuModel::perfFactor(SuitPState p, double offset_mv) const
{
    switch (p) {
      case SuitPState::Efficient:
        return 1.0 + cfg_.undervolt.at(offset_mv).scoreDelta;
      case SuitPState::ConservativeVolt:
        return 1.0;
      case SuitPState::ConservativeFreq:
        return cfFreqHz(offset_mv) / cfg_.baseFreqHz;
    }
    return 1.0;
}

double
CpuModel::powerFactor(SuitPState p, double offset_mv) const
{
    switch (p) {
      case SuitPState::Efficient:
        return 1.0 + cfg_.undervolt.at(offset_mv).powerDelta;
      case SuitPState::ConservativeVolt:
        return 1.0;
      case SuitPState::ConservativeFreq:
        // Cf runs at the same reduced voltage as E (Fig. 4); the
        // measured package response (Table 2) already folds in the
        // power-management behaviour, so Cf is charged the measured
        // efficient-curve power.  (A raw C·V²·f model would credit
        // Cf an extra ~f_cf/f_base of dynamic power, which the
        // paper's measured totals do not show.)
        return 1.0 + cfg_.undervolt.at(offset_mv).powerDelta;
    }
    return 1.0;
}

PStateFactors
CpuModel::factorsAt(double offset_mv) const
{
    PStateFactors f;
    for (const SuitPState p : {SuitPState::Efficient,
                               SuitPState::ConservativeFreq,
                               SuitPState::ConservativeVolt}) {
        f.perf[pstateIndex(p)] = perfFactor(p, offset_mv);
        f.power[pstateIndex(p)] = powerFactor(p, offset_mv);
    }
    return f;
}

namespace {

/**
 * Quadratic DVFS curve builder: V(f) rises from v_min toward v_max
 * with the steepest gradient at the top, floored at v_min — the shape
 * every measured curve in the paper exhibits (Fig. 13).
 */
DvfsCurve
quadraticCurve(double f_min_ghz, double f_max_ghz, double v_min_mv,
               double v_max_mv, std::string name, int steps = 9)
{
    std::vector<PState> pts;
    for (int i = 0; i < steps; ++i) {
        const double t = static_cast<double>(i) /
                         static_cast<double>(steps - 1);
        const double ghz = f_min_ghz + t * (f_max_ghz - f_min_ghz);
        const double v = v_min_mv + (v_max_mv - v_min_mv) * t * t;
        pts.push_back({ghz * 1e9, std::max(v, v_min_mv)});
    }
    return DvfsCurve(std::move(pts), std::move(name));
}

} // namespace

CpuModel
cpuA_i9_9900k()
{
    CpuModel::Config c;
    c.name = "Intel Core i9-9900K";
    // Move-assigned: GCC 12 at -O3 reports a false -Wrestrict on the
    // inlined assignment of a short literal.
    c.label = std::string("A");
    c.coreCount = 8;
    c.domains = DomainLayout::SharedAll;
    c.conservativeCurve = i9_9900kCurve();
    c.undervolt = i9_9900kUndervoltResponse();
    c.transitions = i9_9900kTransitionModel();
    c.baseFreqHz = 4.55e9; // mean SPEC frequency (Fig. 12)
    c.basePowerW = 93.0;   // mean SPEC package power (Fig. 12)
    c.exceptionDelayUs = 0.34; // Sec. 5.3
    c.emulationCallUs = 0.77;  // Sec. 5.3
    return CpuModel(std::move(c));
}

CpuModel
cpuB_ryzen7700x()
{
    CpuModel::Config c;
    c.name = "AMD Ryzen 7 7700X";
    c.label = std::string("B");
    c.vendor = Vendor::Amd;
    c.coreCount = 8;
    c.domains = DomainLayout::PerCoreFrequency;
    c.conservativeCurve =
        quadraticCurve(1.0, 5.4, 800.0, 1250.0, "7700X conservative");
    c.undervolt = ryzen7700xUndervoltResponse();
    c.transitions = ryzen7700xTransitionModel();
    c.baseFreqHz = 5.0e9;
    c.basePowerW = 105.0;
    c.exceptionDelayUs = 0.11; // Sec. 5.3
    c.emulationCallUs = 0.27;  // Sec. 5.3
    return CpuModel(std::move(c));
}

CpuModel
cpuC_xeon4208()
{
    CpuModel::Config c;
    c.name = "Intel Xeon Silver 4208";
    c.label = std::string("C");
    c.coreCount = 8;
    c.domains = DomainLayout::PerCoreAll;
    // The Xeon uses the same clock-source behaviour as the i9 (paper
    // Sec. 5.2); its curve is the i9 shape compressed to the 4208's
    // 1.0-3.2 GHz envelope.
    c.conservativeCurve =
        quadraticCurve(1.0, 3.2, 750.0, 1000.0, "Xeon 4208 conservative");
    c.undervolt = xeon4208UndervoltResponse();
    c.transitions = xeon4208TransitionModel();
    c.baseFreqHz = 3.0e9;
    c.basePowerW = 85.0;
    c.exceptionDelayUs = 0.34; // i9 values (paper: "similar to A")
    c.emulationCallUs = 0.77;
    return CpuModel(std::move(c));
}

CpuModel
cpu_i5_1035g1()
{
    CpuModel::Config c;
    c.name = "Intel Core i5-1035G1";
    c.label = std::string("i5");
    c.coreCount = 4;
    c.domains = DomainLayout::SharedAll;
    c.conservativeCurve =
        quadraticCurve(0.8, 3.6, 650.0, 1050.0, "i5-1035G1 conservative");
    c.undervolt = i5_1035g1UndervoltResponse();
    c.transitions = i9_9900kTransitionModel();
    c.baseFreqHz = 3.2e9;
    c.basePowerW = 15.0; // TDP-limited mobile part
    c.exceptionDelayUs = 0.34;
    c.emulationCallUs = 0.77;
    return CpuModel(std::move(c));
}

CpuModel
cpuModelByName(const std::string &name)
{
    if (name == "A" || name == "i9-9900K")
        return cpuA_i9_9900k();
    if (name == "B" || name == "7700X")
        return cpuB_ryzen7700x();
    if (name == "C" || name == "4208")
        return cpuC_xeon4208();
    if (name == "i5" || name == "i5-1035G1")
        return cpu_i5_1035g1();
    suit::util::fatal("unknown CPU '%s' (use A, B, C or i5)",
                      name.c_str());
}

} // namespace suit::power

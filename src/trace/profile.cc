#include "trace/profile.hh"

#include <cmath>
#include <numbers>

#include "util/args.hh"
#include "util/logging.hh"

namespace suit::trace {

using suit::isa::FaultableKind;
using suit::isa::kNumFaultableKinds;

double
BurstModel::meanInterBurstGap() const
{
    return std::exp(interBurstGapLogMean +
                    0.5 * interBurstGapLogSigma * interBurstGapLogSigma);
}

namespace {

/** Standard normal CDF. */
double
normCdf(double z)
{
    return 0.5 * std::erfc(-z / std::numbers::sqrt2);
}

} // namespace

double
BurstModel::expectedEfficientShare(double overhead_instr) const
{
    // Per burst cycle the CPU leaves the efficient curve for the
    // burst span plus the deadline window and curve switches
    // (overhead_instr, "c"); only the part of the inter-burst gap X
    // beyond c is spent on the efficient curve.  For log-normal X:
    //   E[max(0, X - c)] = E[X] Phi(d1) - c Phi(d2),
    //   d1 = (mu + sigma^2 - ln c) / sigma, d2 = (mu - ln c) / sigma.
    const double c = overhead_instr;
    const double mu = interBurstGapLogMean;
    const double sigma = interBurstGapLogSigma;
    const double mean = meanInterBurstGap();
    const double d1 = (mu + sigma * sigma - std::log(c)) / sigma;
    const double d2 = (mu - std::log(c)) / sigma;
    const double e_excess = mean * normCdf(d1) - c * normCdf(d2);
    const double span = meanBurstEvents * meanWithinBurstGap;
    return std::max(0.0, e_excess) / (mean + span + c);
}

void
BurstModel::calibrateToEfficientShare(double efficient_share,
                                      double overhead_instr, double sigma,
                                      double thrash_halfwindow_instr,
                                      double thrash_extra_instr)
{
    SUIT_ASSERT(efficient_share > 0.0 && efficient_share < 1.0,
                "efficient share must be in (0, 1), got %f",
                efficient_share);
    interBurstGapLogSigma = sigma;

    // The share is monotone in mu; bisect.  The heavy log-normal
    // tail matters: gaps below the deadline never reach the
    // efficient curve, so the naive mean-gap solution undershoots.
    auto solve = [&](double c_eff) {
        double lo = std::log(c_eff) - 12.0;
        double hi = std::log(c_eff) + 30.0;
        for (int iter = 0; iter < 120; ++iter) {
            interBurstGapLogMean = 0.5 * (lo + hi);
            if (expectedEfficientShare(c_eff) < efficient_share)
                lo = interBurstGapLogMean;
            else
                hi = interBurstGapLogMean;
        }
        interBurstGapLogMean = 0.5 * (lo + hi);
    };

    // Outer fixed point: when gaps cluster inside the thrash window,
    // thrashing prevention stretches the deadline by p_df and the
    // per-burst off-curve residency grows accordingly.  Approximate
    // the thrash probability as P(a gap fits in half the look-back
    // window) squared (two clustered exceptions) and fold the
    // stretched deadline into the effective overhead.
    double c_eff = overhead_instr;
    for (int outer = 0; outer < 10; ++outer) {
        solve(c_eff);
        if (thrash_halfwindow_instr <= 0.0)
            break;
        const double p = normCdf((std::log(2.0 *
                                           thrash_halfwindow_instr) -
                                  interBurstGapLogMean) /
                                 sigma);
        c_eff = overhead_instr + p * thrash_extra_instr;
    }
    solve(c_eff);
}

namespace {

using KindMix = std::array<double, kNumFaultableKinds>;

KindMix
makeMix(std::initializer_list<std::pair<FaultableKind, double>> entries)
{
    KindMix mix{};
    double sum = 0.0;
    for (const auto &[kind, weight] : entries) {
        mix[static_cast<std::size_t>(kind)] = weight;
        sum += weight;
    }
    SUIT_ASSERT(sum > 0.0, "kind mix must have positive weight");
    for (double &w : mix)
        w /= sum;
    return mix;
}

KindMix
specIntMix()
{
    return makeMix({{FaultableKind::VOR, 0.25},
                    {FaultableKind::VXOR, 0.25},
                    {FaultableKind::VAND, 0.15},
                    {FaultableKind::VANDN, 0.05},
                    {FaultableKind::VPCMP, 0.10},
                    {FaultableKind::VPMAX, 0.05},
                    {FaultableKind::VPADDQ, 0.10},
                    {FaultableKind::VPSRAD, 0.05}});
}

KindMix
specFpMix()
{
    return makeMix({{FaultableKind::VSQRTPD, 0.20},
                    {FaultableKind::VOR, 0.15},
                    {FaultableKind::VXOR, 0.15},
                    {FaultableKind::VAND, 0.10},
                    {FaultableKind::VANDN, 0.05},
                    {FaultableKind::VPADDQ, 0.15},
                    {FaultableKind::VPCMP, 0.10},
                    {FaultableKind::VPMAX, 0.05},
                    {FaultableKind::VPSRAD, 0.05}});
}

KindMix
x264Mix()
{
    // Motion estimation / SAD code: packed max, shifts, adds.
    return makeMix({{FaultableKind::VPMAX, 0.20},
                    {FaultableKind::VPSRAD, 0.20},
                    {FaultableKind::VPADDQ, 0.20},
                    {FaultableKind::VPCMP, 0.15},
                    {FaultableKind::VOR, 0.10},
                    {FaultableKind::VXOR, 0.10},
                    {FaultableKind::VAND, 0.05}});
}

KindMix
cryptoMix()
{
    // AES-GCM on a TLS connection: AES rounds plus GHASH carry-less
    // multiplies and XOR whitening.
    return makeMix({{FaultableKind::AESENC, 0.85},
                    {FaultableKind::VPCLMULQDQ, 0.10},
                    {FaultableKind::VXOR, 0.05}});
}

/**
 * Reference-configuration overhead used for calibration: the 30 us
 * deadline window plus the measured curve-switch delays (~65 us) on
 * CPU C at 3 GHz, converted to instructions via the profile's IPC.
 */
constexpr double kReferenceOverheadSeconds = 95e-6;
constexpr double kReferenceFreqHz = 3e9;

struct SpecRow
{
    const char *name;
    Suite suite;
    double total_ginstr;   //!< stream length in 1e9 instructions
    double ipc;
    double burst_events;
    double within_gap;
    double sigma;
    double imul_fraction;
    double no_simd_delta;      //!< Table 4, i9-9900K row
    double no_simd_delta_amd;  //!< Table 4, 7700X row
    double efficient_share;
    double event_weight = 1.0; //!< trace thinning factor
};

WorkloadProfile
makeProfile(const SpecRow &row, const KindMix &mix)
{
    WorkloadProfile p;
    p.name = row.name;
    p.suite = row.suite;
    p.totalInstructions =
        static_cast<std::uint64_t>(row.total_ginstr * 1e9);
    p.ipc = row.ipc;
    p.bursts.meanBurstEvents = row.burst_events;
    p.bursts.meanWithinBurstGap = row.within_gap;
    const double instr_per_s = row.ipc * kReferenceFreqHz;
    const double overhead_instr =
        kReferenceOverheadSeconds * instr_per_s;
    // Reference thrash parameters (Table 7, fast-switching CPUs):
    // p_ts = 450 us look-back, boosted deadline (p_df - 1) * p_dl =
    // 390 us of extra conservative residency per burst.
    const double thrash_halfwindow = 225e-6 * instr_per_s;
    const double thrash_extra = 390e-6 * instr_per_s;
    p.bursts.calibrateToEfficientShare(row.efficient_share,
                                       overhead_instr, row.sigma,
                                       thrash_halfwindow,
                                       thrash_extra);
    p.imulFraction = row.imul_fraction;
    p.noSimdDelta = row.no_simd_delta;
    p.noSimdDeltaAmd = row.no_simd_delta_amd;
    p.targetEfficientShare = row.efficient_share;
    p.eventWeight = row.event_weight;
    p.kindMix = mix;
    return p;
}

std::vector<WorkloadProfile>
buildProfiles()
{
    // Columns: name, suite, Ginstr, IPC, burst events, within-burst
    // gap, log-normal sigma, IMUL fraction, no-SIMD delta on the i9
    // and on the 7700X (Table 4), target efficient-curve share
    // (Sec. 6.4 anchors: xz 97.1 %, gcc 76.6 %, omnetpp 3.2 %; the
    // rest interpolated to match the Fig. 16 ordering), trace
    // thinning weight.  Workloads Table 4 does not list hold filler
    // no-SIMD deltas (i9 / 7700X): intrate +0.5 % / +1.0 %, fprate
    // -3.5 % / -4.0 %, all under its 5 % reporting threshold.
    const SpecRow rows[] = {
        // High efficient-share tier: rare, ~0.5 ms dense SIMD
        // phases (one trace event = 10 real faultable instructions).
        {"523.xalancbmk", Suite::SpecInt, 20, 1.8, 100, 20000, 0.8,
         0.0005, +0.005, +0.010, 0.960, 2},
        {"557.xz", Suite::SpecInt, 20, 1.2, 100, 20000, 0.8,
         0.0004, +0.005, +0.010, 0.971, 2},
        {"549.fotonik3d", Suite::SpecFp, 20, 1.6, 100, 20000, 0.8,
         0.0002, -0.035, -0.040, 0.950, 2},
        {"505.mcf", Suite::SpecInt, 20, 0.7, 100, 20000, 0.8,
         0.0005, +0.005, +0.010, 0.945, 2},
        {"531.deepsjeng", Suite::SpecInt, 20, 1.7, 100, 15000, 0.8,
         0.0008, +0.005, +0.010, 0.930, 2},
        {"548.exchange2", Suite::SpecInt, 20, 2.2, 75, 20000, 0.8,
         0.0006, +0.077, +0.068, 0.920, 2},
        {"519.lbm", Suite::SpecFp, 20, 1.1, 150, 20000, 0.9,
         0.0002, -0.035, -0.040, 0.910, 2},
        {"541.leela", Suite::SpecInt, 20, 1.5, 100, 15000, 0.8,
         0.0009, +0.005, +0.010, 0.900, 2},
        {"538.imagick", Suite::SpecFp, 20, 2.0, 150, 20000, 0.9,
         0.0006, -0.120, -0.090, 0.885, 2},
        // 525.x264: vector-dense phases and the highest IMUL share.
        // Most of x264's SIMD is outside the Table 1 set: few
        // trappable events per phase, no thinning.
        {"525.x264", Suite::SpecInt, 20, 2.1, 100, 30000, 0.9,
         0.0099, +0.070, +0.220, 0.870, 1},
        {"510.parest", Suite::SpecFp, 20, 1.6, 200, 20000, 0.9,
         0.0004, -0.035, -0.040, 0.840, 5},
        // 502.gcc: short phases spaced just outside the deadline —
        // the paper's worst performance case (-2.89 %).
        {"502.gcc", Suite::SpecInt, 15, 1.3, 100, 15000, 1.0,
         0.0012, +0.005, +0.010, 0.766, 5},
        {"508.namd", Suite::SpecFp, 15, 2.2, 250, 16000, 1.0,
         0.0003, -0.220, -0.350, 0.740, 5},
        {"526.blender", Suite::SpecFp, 15, 1.8, 250, 16000, 1.0,
         0.0007, -0.035, -0.040, 0.710, 5},
        {"511.povray", Suite::SpecFp, 10, 1.9, 300, 15000, 1.0,
         0.0008, -0.035, -0.040, 0.680, 5},
        {"507.cactuBSSN", Suite::SpecFp, 10, 1.4, 300, 16000, 1.0,
         0.0003, -0.035, -0.040, 0.650, 5},
        {"500.perlbench", Suite::SpecInt, 10, 1.7, 250, 12000, 1.0,
         0.0010, +0.005, +0.010, 0.620, 5},
        {"503.bwaves", Suite::SpecFp, 10, 1.5, 400, 15000, 1.0,
         0.0002, -0.035, -0.040, 0.580, 10},
        {"554.roms", Suite::SpecFp, 10, 1.5, 400, 15000, 1.0,
         0.0003, -0.033, -0.190, 0.540, 10},
        {"544.nab", Suite::SpecFp, 10, 1.8, 500, 14000, 1.0,
         0.0004, -0.035, -0.040, 0.480, 10},
        {"527.cam4", Suite::SpecFp, 5, 1.4, 500, 16000, 1.1,
         0.0005, -0.035, -0.040, 0.400, 10},
        // 520.omnetpp uses faultable SIMD near-continuously (3.2 %
        // on the efficient curve); long dense phases, thinned 20:1.
        {"520.omnetpp", Suite::SpecInt, 2, 0.9, 4000, 10000, 1.2,
         0.0006, +0.005, +0.010, 0.032, 20},
        {"521.wrf", Suite::SpecFp, 2, 1.3, 3000, 10000, 1.2,
         0.0004, -0.014, -0.053, 0.120, 20},
    };

    std::vector<WorkloadProfile> profiles;
    for (const SpecRow &row : rows) {
        const KindMix &mix =
            std::string(row.name) == "525.x264"
                ? x264Mix()
                : (row.suite == Suite::SpecInt ? specIntMix()
                                               : specFpMix());
        profiles.push_back(makeProfile(row, mix));
    }

    // Network workloads: long, dense AES streams (a wrk-saturated
    // HTTPS server / a video stream) separated by heavy-tailed
    // protocol/compute gaps (Figs. 5, 7).  One real AES instruction
    // every ~15 instructions inside a burst; thinned 100:1.  Long
    // bursts mean the fV strategy rides them out at CV (Fig. 6).
    const SpecRow nginx_row = {"Nginx", Suite::Network, 2, 1.4,
                               2000, 1500, 2.0, 0.0005, 0.0, 0.0,
                               0.360, 100};
    profiles.push_back(makeProfile(nginx_row, cryptoMix()));

    const SpecRow vlc_row = {"VLC", Suite::Network, 1, 1.3,
                             5000, 1500, 2.0, 0.0004, 0.0, 0.0,
                             0.330, 100};
    profiles.push_back(makeProfile(vlc_row, cryptoMix()));

    return profiles;
}

} // namespace

const std::vector<WorkloadProfile> &
allProfiles()
{
    static const std::vector<WorkloadProfile> profiles = buildProfiles();
    return profiles;
}

std::vector<WorkloadProfile>
specProfiles()
{
    std::vector<WorkloadProfile> out;
    for (const WorkloadProfile &p : allProfiles()) {
        if (p.suite != Suite::Network)
            out.push_back(p);
    }
    return out;
}

const WorkloadProfile &
profileByName(const std::string &name)
{
    for (const WorkloadProfile &p : allProfiles()) {
        if (p.name == name)
            return p;
    }
    suit::util::fatal("unknown workload profile '%s'", name.c_str());
}

std::vector<WorkloadProfile>
profilesByList(const std::string &value)
{
    if (value == "spec")
        return specProfiles();
    if (value == "all")
        return allProfiles();
    std::vector<WorkloadProfile> out;
    for (const std::string &name : suit::util::splitList(value))
        out.push_back(profileByName(name));
    return out;
}

bool
hasProfile(const std::string &name)
{
    for (const WorkloadProfile &p : allProfiles()) {
        if (p.name == name)
            return true;
    }
    return false;
}

const WorkloadProfile &
nginxProfile()
{
    return profileByName("Nginx");
}

const WorkloadProfile &
vlcProfile()
{
    return profileByName("VLC");
}

double
imulLatencyOverhead(double imul_fraction)
{
    SUIT_ASSERT(imul_fraction >= 0.0 && imul_fraction <= 1.0,
                "IMUL fraction out of range: %f", imul_fraction);
    // Super-linear absorption model: out-of-order execution hides the
    // extra IMUL cycle at low densities.  Anchored to the paper's
    // gem5 data (and this project's uarch reproduction, Fig. 14):
    // 0.99 % IMUL -> 1.60 % slowdown, 0.07 % IMUL -> 0.03 %.
    constexpr double kAnchorFraction = 0.0099;
    constexpr double kAnchorSlowdown = 0.016;
    constexpr double kExponent = 1.5;
    return kAnchorSlowdown *
           std::pow(imul_fraction / kAnchorFraction, kExponent);
}

} // namespace suit::trace

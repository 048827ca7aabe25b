/**
 * @file
 * Workload profiles (paper Sec. 5.1 and 6.2).
 *
 * The paper drives its evaluation with QEMU-recorded traces of the
 * 23 SPEC CPU2017 benchmarks plus an Nginx HTTPS server and VLC
 * streaming over HTTPS.  Neither SPEC nor the recorded traces are
 * redistributable, so this module carries *profiles*: per-workload
 * statistical models (instruction count, IPC, burst/gap process of
 * the faultable instructions, IMUL density, no-SIMD overhead) that
 * the TraceGenerator turns into synthetic traces.
 *
 * Each profile is calibrated against the per-workload behaviour the
 * paper reports — primarily the fraction of time the workload lets
 * SUIT stay on the efficient DVFS curve under the reference
 * configuration (CPU C, fV strategy, -97 mV, 30 us deadline): e.g.
 * 97.1 % for 557.xz, 76.6 % for 502.gcc, 3.2 % for 520.omnetpp
 * (paper Sec. 6.4) — plus Table 4's no-SIMD overheads and the IMUL
 * densities of Sec. 6.1.
 */

#ifndef SUIT_TRACE_PROFILE_HH
#define SUIT_TRACE_PROFILE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/faultable.hh"

namespace suit::trace {

/** Which benchmark family a workload belongs to. */
enum class Suite
{
    SpecInt,  //!< SPEC CPU2017 intrate
    SpecFp,   //!< SPEC CPU2017 fprate
    Network,  //!< Nginx / VLC client-server workloads
};

/**
 * Two-level burst/gap renewal process of faultable instructions.
 *
 * Programs use faultable instructions in bursts (e.g. one burst per
 * TLS record, Fig. 5): a burst is a run of events separated by small
 * within-burst gaps; bursts are separated by large, heavy-tailed
 * (log-normal) gaps.
 */
struct BurstModel
{
    /** Mean faultable events per burst (geometric distribution). */
    double meanBurstEvents = 1.0;
    /** Mean instruction gap between events inside a burst. */
    double meanWithinBurstGap = 100.0;
    /** mu of the log-normal inter-burst gap (in ln instructions). */
    double interBurstGapLogMean = 0.0;
    /** sigma of the log-normal inter-burst gap. */
    double interBurstGapLogSigma = 1.0;

    /** Mean inter-burst gap in instructions, exp(mu + sigma^2/2). */
    double meanInterBurstGap() const;

    /**
     * Closed-form estimate of the time share on the efficient curve
     * for this burst process under a reference off-curve overhead of
     * @p overhead_instr instructions per burst (deadline window plus
     * curve switches): only the part of each log-normal inter-burst
     * gap beyond the overhead is spent on the efficient curve.
     */
    double expectedEfficientShare(double overhead_instr) const;

    /**
     * Configure the inter-burst gap so that the workload spends
     * approximately @p efficient_share of its time on the efficient
     * curve under the reference configuration.
     *
     * @param efficient_share target fraction in (0, 1).
     * @param overhead_instr instructions "lost" per burst to the
     *        deadline window and curve switches under the reference
     *        configuration.
     * @param sigma log-normal spread to use.
     * @param thrash_halfwindow_instr half of the thrash-detection
     *        look-back window (p_ts/2) in instructions; gaps shorter
     *        than this cluster exceptions and trigger thrashing
     *        prevention.  0 disables the correction.
     * @param thrash_extra_instr additional off-curve residency per
     *        burst while the deadline is stretched ((p_df-1) * p_dl
     *        in instructions).
     */
    void calibrateToEfficientShare(double efficient_share,
                                   double overhead_instr, double sigma,
                                   double thrash_halfwindow_instr = 0.0,
                                   double thrash_extra_instr = 0.0);
};

/** Statistical description of one workload. */
struct WorkloadProfile
{
    /** Benchmark name (e.g. "557.xz", "Nginx"). */
    std::string name;
    /** Benchmark family. */
    Suite suite = Suite::SpecInt;
    /** Length of the synthesised stream in instructions. */
    std::uint64_t totalInstructions = 0;
    /** Average IPC on the reference machine. */
    double ipc = 1.5;
    /** Faultable-instruction burst process. */
    BurstModel bursts;
    /** Fraction of all instructions that are IMUL (Sec. 6.1). */
    double imulFraction = 0.0007;
    /**
     * Score change when compiled without SSE/AVX (Table 4, i9-9900K
     * row); negative means slower without SIMD.
     */
    double noSimdDelta = 0.0;
    /** Same, measured on the 7700X (Table 4's second row). */
    double noSimdDeltaAmd = 0.0;

    /** No-SIMD delta for the given machine family. */
    double noSimdFor(bool amd) const
    {
        return amd ? noSimdDeltaAmd : noSimdDelta;
    }

    /**
     * Trace-thinning factor: one trace event stands for this many
     * consecutive real faultable instructions.  Dense workloads
     * (AES streams, 520.omnetpp) would otherwise need tens of
     * millions of events; thinning preserves the burst/gap structure
     * (thinned within-burst gaps stay far below the deadline) while
     * the emulation cost is charged per *real* instruction, i.e.
     * multiplied by this weight.
     */
    double eventWeight = 1.0;
    /**
     * Calibration target: share of time on the efficient curve under
     * the reference configuration (documentation of the calibration;
     * the generator reproduces it through the burst model).
     */
    double targetEfficientShare = 0.5;
    /** Distribution over faultable kinds for the trace events. */
    std::array<double, suit::isa::kNumFaultableKinds> kindMix{};
};

/** All 23 SPEC CPU2017 profiles plus Nginx and VLC, in Fig. 16 order. */
const std::vector<WorkloadProfile> &allProfiles();

/** Only the SPEC CPU2017 profiles. */
std::vector<WorkloadProfile> specProfiles();

/** Look up a profile by name; fatal() if absent. */
const WorkloadProfile &profileByName(const std::string &name);

/**
 * Expand a --workload value: "spec" and "all" name the built-in
 * suites, anything else is a comma list of profile names.
 */
std::vector<WorkloadProfile> profilesByList(const std::string &value);

/** Whether a profile with the given name exists. */
bool hasProfile(const std::string &name);

/** The Nginx HTTPS-serving profile (AES bursts per request). */
const WorkloadProfile &nginxProfile();

/** The VLC HTTPS-streaming profile (AES bursts per segment). */
const WorkloadProfile &vlcProfile();

/**
 * Analytic estimate of the slowdown caused by the 4-cycle IMUL
 * (paper Sec. 6.1): out-of-order execution absorbs the extra cycle
 * almost completely at typical densities (0.03 % at the 0.07 %
 * average IMUL density) but not for IMUL-heavy code (1.60 % for
 * 525.x264 at 0.99 %).  Calibrated against the gem5-style study that
 * bench/paper.cc (Fig. 14) reproduces with the uarch model.
 *
 * @param imul_fraction fraction of instructions that are IMUL.
 * @return fractional slowdown (e.g. 0.016 for 1.6 %).
 */
double imulLatencyOverhead(double imul_fraction);

} // namespace suit::trace

#endif // SUIT_TRACE_PROFILE_HH

/**
 * @file
 * Declarative fleet descriptions for fleet-scale simulation.
 *
 * A FleetSpec describes a data-center fleet as racks of independent
 * SUIT DVFS domains: each rack names a CPU model, a per-tenant
 * workload mix, the operating strategies and undervolt offsets in
 * use, and how many domains it holds.  The spec is the *complete*
 * input of a fleet run — every per-domain configuration (workload,
 * strategy, offset, trace variant, jitter seed) expands
 * deterministically from the spec's single root seed via
 * domainAt(), a pure function of (spec, global domain index).  Two
 * runs of the same spec therefore simulate exactly the same million
 * domains regardless of sharding, worker count or interruption.
 *
 * Specs parse from a simple line-oriented text format (see parse()):
 *
 *   # fleet-wide keys:   key = value
 *   name = demo
 *   seed = 42
 *   pue = 1.4
 *   cost_usd_per_kwh = 0.10
 *   trace_scale = 0.002
 *   # one rack per line:  rack <name> key=value ...
 *   rack web   cpu=C domains=40 workloads=Nginx:3,557.xz:1 \
 *              strategy=fV,e offset=-97 variants=4
 *   rack build cpu=A domains=20 cores=4 workloads=502.gcc \
 *              strategy=hybrid offset=-70,-97
 *
 * Strategy/offset lists model per-tenant policy heterogeneity (Dim
 * Silicon's point that one fleet-wide DVFS policy wastes the
 * efficient operating point): every domain draws its strategy and
 * offset independently from the rack's lists.  `variants` bounds the
 * number of distinct traces per (rack, workload) so a million-domain
 * fleet shares a few hundred cached traces instead of generating a
 * million; per-domain *jitter* seeds stay unique.
 */

#ifndef SUIT_FLEET_SPEC_HH
#define SUIT_FLEET_SPEC_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/strategy.hh"
#include "sim/model_version.hh"

namespace suit::fleet {

/** Malformed spec text (parse errors carry line numbers). */
class SpecError : public std::runtime_error
{
  public:
    explicit SpecError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** One workload of a rack's tenant mix. */
struct TenantMix
{
    /** Workload profile name (must exist in trace::allProfiles()). */
    std::string workload;
    /** Relative weight of this tenant (> 0). */
    double weight = 1.0;
};

/** One rack: N domains drawn from one CPU model and tenant mix. */
struct RackSpec
{
    /** Rack label (unique within the fleet). */
    std::string name;
    /** CPU model name: "A", "B", "C" or "i5". */
    std::string cpu = "C";
    /** Independent DVFS domains in this rack. */
    std::uint64_t domains = 0;
    /** Utilised cores per domain (> 1 only affects shared-domain
     *  CPUs, which then run that many streams per domain). */
    int cores = 1;
    /** Tenant mix; every domain draws one workload from it. */
    std::vector<TenantMix> workloads;
    /** Operating strategies in use across the rack's tenants. */
    std::vector<suit::core::StrategyKind> strategies{
        suit::core::StrategyKind::CombinedFv};
    /** Printable names parallel to strategies (report labels). */
    std::vector<std::string> strategyNames{"fV"};
    /** Undervolt offsets in use across the rack's tenants (mV). */
    std::vector<double> offsetsMv{-97.0};
    /** Distinct generated traces per workload of this rack. */
    int traceVariants = 4;
};

/** Expanded configuration of one domain (pure function of index). */
struct DomainConfig
{
    /** Rack index within FleetSpec::racks. */
    std::uint32_t rack = 0;
    /** Workload index within the rack's mix. */
    std::uint16_t workload = 0;
    /** Strategy index within the rack's strategy list. */
    std::uint8_t strategy = 0;
    /** Trace variant in [0, traceVariants). */
    std::uint8_t variant = 0;
    /** Undervolt offset (mV). */
    double offsetMv = -97.0;
    /** Per-domain simulator jitter seed (unique per domain). */
    std::uint64_t simSeed = 1;
    /** Trace-generation seed (shared across the variant's domains). */
    std::uint64_t traceSeed = 1;
};

/** Whole-fleet description; see the file comment for the format. */
struct FleetSpec
{
    /** Fleet label (report header). */
    std::string name = "fleet";
    /** Root seed; every per-domain draw derives from it. */
    std::uint64_t seed = 1;
    /** Power-usage-effectiveness multiplier for the TCO report. */
    double pue = 1.4;
    /** Electricity price for the TCO report (USD per kWh). */
    double costUsdPerKwh = 0.10;
    /**
     * Per-domain trace length multiplier in (0, 1]: scales every
     * profile's totalInstructions so million-domain fleets simulate
     * a statistically representative slice of each workload instead
     * of its full multi-billion-instruction stream.
     */
    double traceScale = 1.0;
    /** The racks, in declaration order. */
    std::vector<RackSpec> racks;

    /** Sum of every rack's domain count. */
    std::uint64_t totalDomains() const;

    /**
     * Expand the configuration of global domain @p index (racks are
     * laid out consecutively in declaration order).  Pure function
     * of (*this, index); asserts index < totalDomains().
     */
    DomainConfig domainAt(std::uint64_t index) const;

    /**
     * Rescale every rack's domain count so the fleet totals
     * @p domains (proportionally, remainder to the first racks;
     * every non-empty rack keeps at least one domain).
     *
     * @throws SpecError if @p domains is below the rack count.
     */
    void scaleDomains(std::uint64_t domains);

    /**
     * Order-sensitive FNV-1a fingerprint over the simulation model
     * version and every field that affects simulation results.  Ties
     * a fleet checkpoint journal to the exact spec and model that
     * produced it (pue/cost are report-only and excluded).
     * @p modelVersion is a parameter only so tests can vary it.
     */
    std::uint64_t fingerprint(
        std::uint64_t modelVersion = suit::sim::kModelVersion) const;

    /**
     * Parse spec text.  @throws SpecError with a line-numbered
     * message on any malformed or unknown construct.
     */
    static FleetSpec parse(const std::string &text);

    /** Parse a spec file.  @throws SpecError (also when unreadable). */
    static FleetSpec parseFile(const std::string &path);

    /**
     * The built-in demonstration fleet: the five-rack data-center
     * scenario of examples/datacenter_fleet scaled to @p domains
     * domains, with heterogeneous per-tenant strategies/offsets and
     * trace_scale 0.002 so 10^5-10^6 domains run in one process.
     *
     * @throws SpecError if @p domains is below the rack count (5).
     */
    static FleetSpec demo(std::uint64_t domains);
};

} // namespace suit::fleet

#endif // SUIT_FLEET_SPEC_HH

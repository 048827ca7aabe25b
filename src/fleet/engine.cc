#include "fleet/engine.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>

#include "core/params.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "power/cpu_model.hh"
#include "runtime/journaled.hh"
#include "sim/domain_sim.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace suit::fleet {

FleetEngine::FleetEngine(suit::runtime::Session &session,
                         FleetSpec spec)
    : session_(session), spec_(std::move(spec))
{
    SUIT_ASSERT(!spec_.racks.empty(), "fleet spec has no racks");
    SUIT_ASSERT(spec_.traceScale > 0.0 && spec_.traceScale <= 1.0,
                "trace_scale %g out of (0, 1]", spec_.traceScale);
    racks_.reserve(spec_.racks.size());
    for (const RackSpec &rack : spec_.racks) {
        cpus_.push_back(std::make_unique<suit::power::CpuModel>(
            suit::power::cpuModelByName(rack.cpu)));
        const suit::power::CpuModel &cpu = *cpus_.back();

        ResolvedRack resolved;
        resolved.cpu = &cpu;
        resolved.params = suit::core::optimalParams(cpu);
        const bool shared = cpu.domains() ==
                            suit::power::DomainLayout::SharedAll;
        resolved.streams = shared ? rack.cores : 1;
        resolved.basePowerW =
            shared ? cpu.basePowerW()
                   : cpu.basePowerW() /
                         static_cast<double>(cpu.coreCount());
        resolved.profiles.reserve(rack.workloads.size());
        for (const TenantMix &mix : rack.workloads) {
            suit::trace::WorkloadProfile profile =
                suit::trace::profileByName(mix.workload);
            // Scale the simulated slice, with a floor so a tiny
            // scale still leaves a meaningful trace.
            profile.totalInstructions = std::max<std::uint64_t>(
                1000000,
                static_cast<std::uint64_t>(
                    static_cast<double>(profile.totalInstructions) *
                    spec_.traceScale));
            resolved.profiles.push_back(std::move(profile));
        }
        racks_.push_back(std::move(resolved));
    }
}

double
FleetEngine::domainBasePowerW(std::size_t rack) const
{
    SUIT_ASSERT(rack < racks_.size(),
                "rack %zu out of range (%zu racks)", rack,
                racks_.size());
    return racks_[rack].basePowerW;
}

std::uint64_t
FleetEngine::journalFingerprint(std::uint64_t shard_size) const
{
    const std::uint64_t spec_fp = spec_.fingerprint();
    unsigned char bytes[16];
    for (int i = 0; i < 8; ++i) {
        bytes[i] = static_cast<unsigned char>(
            (spec_fp >> (8 * i)) & 0xFF);
        bytes[8 + i] = static_cast<unsigned char>(
            (shard_size >> (8 * i)) & 0xFF);
    }
    return suit::util::fnv1a64(bytes, sizeof(bytes));
}

namespace {

/** Key fixing a domain's traces: profile, trace seed and streams. */
std::tuple<std::uint32_t, std::uint16_t, std::uint8_t>
traceKey(const DomainConfig &config)
{
    return {config.rack, config.workload, config.variant};
}

} // namespace

void
FleetEngine::simulateBlock(const std::vector<DomainConfig> &block,
                           FleetAccumulator &acc,
                           const suit::runtime::CancelToken *cancel)
{
    // Run the block in stable trace-key order, so each key's domains
    // form one run: one cache fetch per run instead of per domain,
    // with the trace hot in cache for the whole run.  Every domain
    // is a pure function of (spec, index) and every total an
    // ExactSum, so the order inside a shard changes no result bit.
    thread_local std::vector<std::size_t> order;
    order.resize(block.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const auto ka = traceKey(block[a]);
                  const auto kb = traceKey(block[b]);
                  return ka < kb || (ka == kb && a < b);
              });

    // The worker's session workspace: simulator, trace pins and
    // result scratch all keep their capacity across domains, so the
    // steady-state domain loop allocates nothing.  The pins keep
    // evicted traces alive for the key's run; one cache lock covers
    // every stream.
    suit::sim::SimWorkspace &ws = session_.workspace();
    const DomainConfig *prev = nullptr;
    for (const std::size_t i : order) {
        const DomainConfig &config = block[i];
        const ResolvedRack &rack = racks_[config.rack];
        const suit::trace::WorkloadProfile &profile =
            rack.profiles[config.workload];
        if (prev == nullptr || traceKey(*prev) != traceKey(config)) {
            session_.traceCache().getMany(profile, config.traceSeed,
                                          rack.streams, ws.pinned);
            ws.work.clear();
            for (int s = 0; s < rack.streams; ++s)
                ws.work.push_back(
                    {ws.pinned[static_cast<std::size_t>(s)].get(),
                     &profile});
        }
        prev = &config;

        suit::sim::SimConfig sim_cfg;
        sim_cfg.cpu = rack.cpu;
        sim_cfg.offsetMv = config.offsetMv;
        sim_cfg.mode = suit::sim::RunMode::Suit;
        sim_cfg.strategy =
            spec_.racks[config.rack].strategies[config.strategy];
        sim_cfg.params = rack.params;
        sim_cfg.seed = config.simSeed;
        sim_cfg.cancel = cancel;

        ws.sim.reset(sim_cfg, ws.work);
        ws.sim.runInto(ws.result);
        acc.addDomain(config.rack, rack.basePowerW, ws.result);
    }
}

FleetOutcome
FleetEngine::run(const FleetOptions &options)
{
    suit::runtime::RunContext ctx;
    return run(ctx, options);
}

FleetOutcome
FleetEngine::run(suit::runtime::RunContext &ctx,
                 const FleetOptions &options)
{
    const std::uint64_t shard_size =
        options.shardSize == 0 ? kDefaultShardSize
                               : options.shardSize;
    const std::uint64_t domains = spec_.totalDomains();
    SUIT_ASSERT(domains >= 1, "fleet spec has no domains");
    const std::uint64_t shards =
        (domains + shard_size - 1) / shard_size;

    FleetOutcome out;
    out.shards = shards;

    // Index-addressed shard slots; merged in shard order at the end.
    std::vector<std::optional<FleetAccumulator>> slots(shards);

    std::atomic<std::uint64_t> domains_simulated{0};

    // Read once per run: workers trace into the same session.
    suit::obs::TraceSession *const trace = suit::obs::activeTrace();
    suit::obs::Registry &reg = suit::obs::metrics();

    // One named host-time track per rack carrying cumulative
    // counter series ('C' events): domains completed, package
    // energy, and p-state residency.  Workers fold each finished
    // shard's per-rack totals into the running sums under one mutex
    // and emit the new cumulative point; viewers plot the series
    // over wall-clock time per rack.
    struct RackTrack
    {
        int tid = 0;
        RackTotals cum;
    };
    std::vector<RackTrack> rack_tracks;
    std::mutex rack_tracks_mu;
    if (trace) {
        rack_tracks.resize(spec_.racks.size());
        for (std::size_t r = 0; r < spec_.racks.size(); ++r)
            rack_tracks[r].tid = trace->newTrack(
                suit::obs::TraceSession::kHostPid,
                "rack " + spec_.racks[r].name);
    }
    const auto emitRackCounters = [&](const FleetAccumulator &acc,
                                      double now_us) {
        std::lock_guard lock(rack_tracks_mu);
        for (std::size_t r = 0; r < rack_tracks.size(); ++r) {
            const RackTotals &shard_totals = acc.rack(r);
            if (shard_totals.domains == 0)
                continue;
            RackTrack &rt = rack_tracks[r];
            rt.cum.merge(shard_totals);
            trace->counter(
                suit::obs::TraceSession::kHostPid, rt.tid, now_us,
                "domains", {{"count", rt.cum.domains}});
            trace->counter(
                suit::obs::TraceSession::kHostPid, rt.tid, now_us,
                "energy",
                {{"power_w", rt.cum.wattsAfter.value()}});
            trace->counter(
                suit::obs::TraceSession::kHostPid, rt.tid, now_us,
                "pstate",
                {{"switches", rt.cum.pstateSwitches},
                 {"efficient_share",
                  rt.cum.efficientShareSum.value() /
                      static_cast<double>(rt.cum.domains)}});
        }
    };

    suit::runtime::JournaledUnits units;
    units.restore = [&](const suit::exec::CellRecord &record) {
        if (!record.isBlob)
            return false;
        FleetAccumulator acc;
        std::size_t offset = 0;
        if (!acc.deserialize(record.blob.data(), record.blob.size(),
                             offset) ||
            offset != record.blob.size() ||
            acc.rackCount() != spec_.racks.size()) {
            suit::util::warn("checkpoint '%s': shard %llu record is "
                             "malformed; the shard will re-run",
                             ctx.checkpoint.path.c_str(),
                             static_cast<unsigned long long>(
                                 record.index));
            return false;
        }
        slots[record.index] = std::move(acc);
        return true;
    };
    units.run = [&](std::size_t shard,
                    suit::runtime::JournaledUnit &unit) {
        const std::uint64_t first =
            static_cast<std::uint64_t>(shard) * shard_size;
        const std::uint64_t count =
            std::min(shard_size, domains - first);

        // Contiguous per-shard expansion block, reused across the
        // worker's shards so the expansion allocates only on growth.
        thread_local std::vector<DomainConfig> block;
        block.clear();
        block.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i)
            block.push_back(spec_.domainAt(first + i));

        // A cancellation mid-shard discards the partial accumulator.
        FleetAccumulator acc(spec_.racks.size());
        simulateBlock(block, acc, &ctx.token());

        if (unit.record) {
            std::string bytes;
            acc.serialize(bytes);
            *unit.record = suit::exec::CellRecord::blobRecord(
                shard, std::move(bytes));
        }
        domains_simulated.fetch_add(count,
                                    std::memory_order_relaxed);
        unit.span.arg("domains", count);
        if (trace)
            emitRackCounters(acc, trace->hostNowUs());
        slots[shard] = std::move(acc);
        return true;
    };
    units.done = options.onShardDone;
    if (reg.enabled())
        units.spanMs = reg.histogram(
            "fleet.shard_ms",
            {1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0});

    static constexpr suit::runtime::JournaledNames kNames{
        "fleet.shard", "fleet", "shard", "fleet", "fleet.shards"};
    const suit::runtime::JournaledCounts counts =
        suit::runtime::runJournaled(
            session_, ctx, static_cast<std::size_t>(shards),
            {shards, journalFingerprint(shard_size)}, kNames, units);
    out.shardsRun = counts.executed;
    out.shardsRestored = counts.restored;
    out.shardsSkipped = counts.skipped;
    out.interrupted = counts.interrupted;

    // Merge in shard order.  ExactSum makes the value() bits
    // independent of the grouping anyway; the fixed order makes even
    // the internal expansion deterministic.
    out.totals = FleetAccumulator(spec_.racks.size());
    for (std::optional<FleetAccumulator> &slot : slots) {
        if (slot.has_value())
            out.totals.merge(*slot);
    }

    if (reg.enabled()) {
        static const suit::obs::MetricId simulated =
            reg.counter("fleet.domains.simulated");
        reg.add(simulated, domains_simulated.load());
    }
    return out;
}

} // namespace suit::fleet

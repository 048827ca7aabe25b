/**
 * @file
 * perfbench_probe — the in-process side of the whole-campaign
 * benchmark (see README.md in this directory).
 *
 * It runs the same campaign as suit_fleet or suit_sweep, built from
 * the same arguments, through public library calls only, and either
 *
 *  - times set-up (Session + engine construction + spec/grid
 *    resolution) --setup-reps times without tracing and prints the
 *    samples, or
 *  - runs the campaign once with spans recorded around every call
 *    into a layer and prints the per-layer metrics it measured as one
 *    JSON object (run.py reads an absent layer as 0).
 *
 * The traced run writes the campaign's output (the fleet report JSON
 * or the sweep CSV) to --out, byte-compatible with the CLI, so the
 * benchmark can check that the traced run did the same work.
 *
 *   perfbench_probe fleet --domains 1000000 --seed 3 --jobs 4 \
 *       --out report.json --spans spans.json
 *   perfbench_probe sweep --cpu A --cores 1,2,4 --strategy e,fV \
 *       --offset -70 --workload all --seed 3 --jobs 4 --setup-reps 9
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/params.hh"
#include "core/strategy.hh"
#include "exec/checkpoint.hh"
#include "exec/sweep.hh"
#include "exec/thread_pool.hh"
#include "fleet/engine.hh"
#include "fleet/report.hh"
#include "fleet/spec.hh"
#include "obs/registry.hh"
#include "power/cpu_model.hh"
#include "runtime/run_context.hh"
#include "runtime/session.hh"
#include "sim/evaluation.hh"
#include "trace/profile.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace {

using namespace suit;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

/** Keeps the timed FleetSpec::domainAt pass from being elided. */
volatile std::uint64_t expandSink = 0;

/** One recorded span; times are seconds since the log's origin. */
struct Span
{
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
    /** Pool worker index, or -1 for the thread that owns the run. */
    int worker = -1;
};

/** In-memory span store, appended to from any thread. */
class SpanLog
{
  public:
    double now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    /** Record a finished span; returns its id. */
    int add(std::string name, int parent, double start, double end)
    {
        const int worker = exec::ThreadPool::currentWorkerIndex();
        std::lock_guard lock(mu_);
        spans_.push_back({std::move(name), parent, start, end, worker});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Open a span on the calling thread; close() stamps its end. */
    int open(std::string name, int parent)
    {
        return add(std::move(name), parent, now(), -1.0);
    }

    void close(int id)
    {
        const double t = now();
        std::lock_guard lock(mu_);
        spans_[static_cast<std::size_t>(id)].end = t;
    }

    double duration(int id) const
    {
        std::lock_guard lock(mu_);
        const Span &s = spans_[static_cast<std::size_t>(id)];
        return s.end - s.start;
    }

    /** Summed duration of every span named @p name. */
    double total(const std::string &name) const
    {
        std::lock_guard lock(mu_);
        double sum = 0.0;
        for (const Span &s : spans_)
            if (s.name == name)
                sum += s.end - s.start;
        return sum;
    }

    /** Durations of every span named @p name. */
    std::vector<double> durations(const std::string &name) const
    {
        std::lock_guard lock(mu_);
        std::vector<double> out;
        for (const Span &s : spans_)
            if (s.name == name)
                out.push_back(s.end - s.start);
        return out;
    }

    /**
     * Share of span @p id's interval that none of its children
     * covers (its self time over its duration).
     */
    double selfShare(int id) const
    {
        std::lock_guard lock(mu_);
        const Span &root = spans_[static_cast<std::size_t>(id)];
        std::vector<std::pair<double, double>> covered;
        for (const Span &s : spans_)
            if (s.parent == id)
                covered.emplace_back(std::max(s.start, root.start),
                                     std::min(s.end, root.end));
        std::sort(covered.begin(), covered.end());
        double union_s = 0.0;
        double reach = root.start;
        for (const auto &[lo, hi] : covered) {
            const double from = std::max(lo, reach);
            if (hi > from) {
                union_s += hi - from;
                reach = hi;
            }
        }
        const double dur = root.end - root.start;
        return dur > 0.0 ? (dur - union_s) / dur : 0.0;
    }

    void writeJson(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            util::fatal("cannot write '%s'", path.c_str());
        std::lock_guard lock(mu_);
        std::fprintf(f, "[\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                         "\"start_s\": %.9f, \"end_s\": %.9f, "
                         "\"worker\": %d}%s\n",
                         i, s.name.c_str(), s.parent, s.start, s.end,
                         s.worker, i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        std::fclose(f);
    }

  private:
    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span on the calling thread. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name, int parent)
        : log_(log), id_(log.open(std::move(name), parent))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

/** Flat metric map printed as the probe's JSON result. */
using Metrics = std::map<std::string, double>;

double
ms(double seconds)
{
    return seconds * 1e3;
}

double
pct(std::vector<double> values, double p)
{
    return values.empty() ? 0.0 : util::percentile(std::move(values), p);
}

/** Worker counters of @p session folded into the exec.* metrics. */
void
addPoolMetrics(const runtime::Session &session, Metrics &m)
{
    double busy = 0.0, wait = 0.0, busiest = 0.0;
    const std::vector<exec::WorkerStats> stats = session.workerStats();
    for (const exec::WorkerStats &w : stats) {
        busy += w.busyS;
        wait += w.queueWaitS;
        busiest = std::max(busiest, w.busyS);
    }
    m["exec.busy_s"] += busy;
    m["exec.queue_wait_s"] += wait;
    const double mean = stats.empty() ? 0.0 : busy / stats.size();
    m["exec.imbalance"] =
        std::max(m["exec.imbalance"], mean > 0.0 ? busiest / mean : 1.0);
}

/** Registry counter by name (0 when never recorded). */
double
counter(const obs::Snapshot &snap, const std::string &name)
{
    const obs::MetricValue *v = snap.find(name);
    return v != nullptr ? static_cast<double>(v->count) : 0.0;
}

/**
 * The journal's registry counters.  The registry is enabled only for
 * journaled runs: with it on, every simulated domain looks its
 * counters up under the registry mutex, which more than doubles the
 * wall time of a million-domain fleet.
 */
void
addJournalMetrics(Metrics &m)
{
    const obs::Snapshot snap = obs::metrics().snapshot();
    m["exec.journal.writes"] = counter(snap, "exec.journal.writes");
    m["exec.journal.bytes_written"] =
        counter(snap, "exec.journal.bytes_written");
}

runtime::SessionConfig
sessionConfig(const util::ArgParser &args)
{
    runtime::SessionConfig cfg;
    cfg.jobs = static_cast<int>(args.getIntInRange("jobs", 1, 1024));
    return cfg;
}

// ---------------------------------------------------------------- fleet

/** The fleet as suit_fleet resolves --spec, --domains and --seed. */
fleet::FleetSpec
fleetSpec(const util::ArgParser &args)
{
    const auto domains = static_cast<std::uint64_t>(
        args.getIntInRange("domains", 1, LONG_MAX));
    fleet::FleetSpec spec;
    if (args.get("spec").empty()) {
        spec = fleet::FleetSpec::demo(domains);
    } else {
        spec = fleet::FleetSpec::parseFile(args.get("spec"));
        spec.scaleDomains(domains);
    }
    spec.seed = static_cast<std::uint64_t>(
        args.getIntInRange("seed", 0, LONG_MAX));
    return spec;
}

double
fleetSetupOnce(const util::ArgParser &args)
{
    const Clock::time_point t0 = Clock::now();
    runtime::Session session(sessionConfig(args));
    fleet::FleetEngine engine(session, fleetSpec(args));
    const Clock::time_point t1 = Clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

Metrics
fleetTraced(const util::ArgParser &args, SpanLog &log)
{
    Metrics m;
    const int jobs = static_cast<int>(args.getIntInRange("jobs", 1, 1024));
    std::vector<double> last_stamp(static_cast<std::size_t>(jobs) + 1);

    const int root = log.open("campaign", -1);
    std::unique_ptr<runtime::Session> session;
    {
        ScopedSpan s(log, "runtime.session", root);
        session = std::make_unique<runtime::Session>(sessionConfig(args));
    }
    fleet::FleetSpec spec;
    {
        ScopedSpan s(log, "fleet.spec", root);
        spec = fleetSpec(args);
    }
    std::unique_ptr<fleet::FleetEngine> engine;
    int resolve = 0;
    {
        ScopedSpan s(log, "fleet.resolve", root);
        resolve = s.id();
        engine = std::make_unique<fleet::FleetEngine>(*session, spec);
    }
    fleet::FleetOutcome outcome;
    {
        ScopedSpan run(log, "fleet.run", root);
        std::fill(last_stamp.begin(), last_stamp.end(), log.now());
        // A worker runs its shards back to back, so the gap between
        // two completion stamps on one worker is one shard.
        fleet::FleetOptions options;
        options.onShardDone = [&](std::uint64_t) {
            const double now = log.now();
            const std::size_t slot = static_cast<std::size_t>(
                exec::ThreadPool::currentWorkerIndex() + 1);
            log.add("fleet.shard", run.id(), last_stamp[slot], now);
            last_stamp[slot] = now;
        };
        runtime::RunContext ctx;
        outcome = engine->run(ctx, options);
    }
    std::string doc;
    int report = 0;
    {
        ScopedSpan s(log, "fleet.report", root);
        report = s.id();
        // suit_fleet renders the table to stdout as well.
        const std::string table =
            fleet::renderReportTable(engine->spec(), outcome.totals);
        doc = fleet::renderReportJson(engine->spec(), outcome.totals);
        if (table.empty())
            util::fatal("empty fleet report table");
    }
    {
        ScopedSpan s(log, "io.write", root);
        std::FILE *f = std::fopen(args.get("out").c_str(), "w");
        if (f == nullptr ||
            std::fwrite(doc.data(), 1, doc.size(), f) != doc.size())
            util::fatal("cannot write '%s'", args.get("out").c_str());
        std::fclose(f);
    }
    log.close(root);

    const std::vector<double> shards = log.durations("fleet.shard");
    const double shard_s = log.total("fleet.shard");
    const double domains = static_cast<double>(spec.totalDomains());
    m["wall_s"] = log.duration(root);
    m["units"] = domains;
    m["runtime.session_ms"] = ms(log.total("runtime.session"));
    m["fleet.resolve_ms"] = ms(log.duration(resolve));
    m["fleet.report_ms"] = ms(log.duration(report));
    for (const char *name : {"fleet.shard_ms", "exec.unit_ms"}) {
        m[std::string(name) + ".p50"] = ms(pct(shards, 50.0));
        m[std::string(name) + ".p95"] = ms(pct(shards, 95.0));
    }
    // Shards cover expansion, the event loop and accumulation; the
    // expansion share is fleet.expand_ns_per_domain below.
    m["sim.run_us_per_unit"] = domains > 0.0 ? shard_s * 1e6 / domains : 0.0;
    const sim::TraceCache &cache = engine->traceCache();
    const double lookups =
        static_cast<double>(cache.hits() + cache.misses());
    m["trace.generated"] = static_cast<double>(cache.misses());
    m["sim.trace_cache.evictions"] =
        static_cast<double>(cache.evictions());
    m["sim.trace_cache.resident_mb"] = cache.residentBytes() / kMiB;
    if (cache.evictions() == 0)
        m["trace.mb_generated"] = cache.residentBytes() / kMiB;
    m["sim.trace_cache.hit_rate"] =
        lookups > 0.0 ? cache.hits() / lookups : 0.0;
    m["sim.busy_s"] = shard_s;
    addPoolMetrics(*session, m);
    m["unaccounted_pct"] = 100.0 * log.selfShare(root);

    // Spec expansion alone: one FleetSpec::domainAt pass, untimed by
    // the campaign above.
    const Clock::time_point t0 = Clock::now();
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < spec.totalDomains(); ++i)
        sink ^= spec.domainAt(i).simSeed;
    const double expand_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    expandSink = sink;
    m["fleet.expand_ns_per_domain"] =
        domains > 0.0 ? expand_s * 1e9 / domains : 0.0;
    return m;
}

// ---------------------------------------------------------------- sweep

std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= value.size()) {
        const std::size_t comma = value.find(',', start);
        const std::string item = value.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

power::CpuModel
cpuByName(const std::string &name)
{
    if (name == "A")
        return power::cpuA_i9_9900k();
    if (name == "B")
        return power::cpuB_ryzen7700x();
    if (name == "C")
        return power::cpuC_xeon4208();
    util::fatal("unknown CPU '%s' (use A, B or C)", name.c_str());
}

core::StrategyKind
strategyByName(const std::string &name)
{
    if (name == "e")
        return core::StrategyKind::Emulation;
    if (name == "f")
        return core::StrategyKind::Frequency;
    if (name == "V")
        return core::StrategyKind::Voltage;
    if (name == "fV")
        return core::StrategyKind::CombinedFv;
    if (name == "hybrid")
        return core::StrategyKind::Hybrid;
    util::fatal("unknown strategy '%s'", name.c_str());
}

/** One CSV row's identifying columns, parallel to the job list. */
struct CellMeta
{
    std::string cpu;
    int cores;
    std::string strategy;
    double offsetMv;
    std::string workload;
    std::uint64_t seed;
};

/**
 * The suit_sweep grid (one repetition per cell), enumerated in the
 * CLI's nested order so the fingerprint and CSV match it.
 */
struct Grid
{
    std::vector<power::CpuModel> cpus;
    std::vector<trace::WorkloadProfile> profiles;
    std::vector<exec::SweepJob> jobs;
    std::vector<CellMeta> meta;

    explicit Grid(const util::ArgParser &args)
    {
        for (const std::string &name : splitList(args.get("cpu")))
            cpus.push_back(cpuByName(name));
        if (args.get("workload") == "all") {
            profiles = trace::allProfiles();
        } else {
            for (const std::string &name :
                 splitList(args.get("workload")))
                profiles.push_back(trace::profileByName(name));
        }
        const std::uint64_t seed = static_cast<std::uint64_t>(
            args.getIntInRange("seed", 0, LONG_MAX));
        for (const power::CpuModel &cpu : cpus)
            for (const std::string &cores_s :
                 splitList(args.get("cores")))
                for (const std::string &strat_s :
                     splitList(args.get("strategy")))
                    for (const std::string &offset_s :
                         splitList(args.get("offset")))
                        for (const trace::WorkloadProfile &p : profiles) {
                            sim::EvalConfig cfg;
                            cfg.cpu = &cpu;
                            cfg.cores = std::stoi(cores_s);
                            cfg.offsetMv = std::stod(offset_s);
                            cfg.strategy = strategyByName(strat_s);
                            cfg.params = core::optimalParams(cpu);
                            cfg.mode = sim::RunMode::Suit;
                            cfg.seed = seed;
                            jobs.push_back({p.name, cfg, &p});
                            meta.push_back({cpu.label(), cfg.cores,
                                            strat_s, cfg.offsetMv,
                                            p.name, seed});
                        }
    }
    Grid(const Grid &) = delete;
    Grid &operator=(const Grid &) = delete;
};

double
sweepSetupOnce(const util::ArgParser &args)
{
    const Clock::time_point t0 = Clock::now();
    runtime::Session session(sessionConfig(args));
    const Grid grid(args);
    exec::SweepEngine engine(session);
    const Clock::time_point t1 = Clock::now();
    if (grid.jobs.empty())
        util::fatal("empty sweep grid");
    return std::chrono::duration<double>(t1 - t0).count();
}

void
writeCsv(const std::string &path, const Grid &grid,
         const exec::SweepOutcome &outcome)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        util::fatal("cannot write '%s'", path.c_str());
    std::fprintf(out,
                 "cpu,cores,strategy,offset_mv,workload,seed,rep,"
                 "perf_delta,power_delta,eff_delta,on_efficient,"
                 "cf_share,cv_share,traps,emulations,pstate_switches,"
                 "thrash_detections\n");
    for (std::size_t i = 0; i < outcome.results.size(); ++i) {
        if (!outcome.done[i])
            continue;
        const CellMeta &m = grid.meta[i];
        const sim::DomainResult &r = outcome.results[i];
        std::fprintf(
            out,
            "%s,%d,%s,%g,%s,%llu,%ld,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,"
            "%llu,%llu,%llu,%llu\n",
            m.cpu.c_str(), m.cores, m.strategy.c_str(), m.offsetMv,
            m.workload.c_str(), static_cast<unsigned long long>(m.seed),
            0L, r.perfDelta(), r.powerDelta(), r.efficiencyDelta(),
            r.efficientShare, r.cfShare, r.cvShare,
            static_cast<unsigned long long>(r.traps),
            static_cast<unsigned long long>(r.emulations),
            static_cast<unsigned long long>(r.pstateSwitches),
            static_cast<unsigned long long>(r.thrashDetections));
    }
    std::fclose(out);
}

/**
 * Observes which fetched traces are new objects, i.e. were generated
 * (by this fetch or one it waited on) rather than found resident.  A
 * weak_ptr per key keeps only the control block alive, so evicted
 * traces are still freed.
 */
class GenerationTracker
{
  public:
    /** Bytes of the traces in @p pins not seen before (0 if none). */
    std::size_t
    newBytes(const std::string &workload, std::uint64_t seed,
             const std::vector<std::shared_ptr<const trace::Trace>> &pins)
    {
        std::size_t bytes = 0;
        std::lock_guard lock(mu_);
        for (std::size_t s = 0; s < pins.size(); ++s) {
            std::weak_ptr<const trace::Trace> &seen =
                seen_[{workload, seed, s}];
            const bool same = !seen.owner_before(pins[s]) &&
                              !pins[s].owner_before(seen) &&
                              !seen.expired();
            if (!same) {
                bytes += pins[s]->memoryBytes();
                seen = pins[s];
            }
        }
        return bytes;
    }

  private:
    std::mutex mu_;
    std::map<std::tuple<std::string, std::uint64_t, std::size_t>,
             std::weak_ptr<const trace::Trace>>
        seen_;
};

/** Per-run accumulators the cell wrapper and hooks update. */
struct SweepTally
{
    std::mutex mu;
    double generateS = 0.0;
    double generatedBytes = 0.0;
    double extraLookups = 0.0;
    std::vector<double> appendS;
};

/**
 * One suit_sweep process: Session, grid, engine, runCells with a
 * span-recording cell wrapper, CSV.  @p stop_after > 0 cancels after
 * that many settled cells like --stop-after.
 */
void
sweepLeg(const util::ArgParser &args, SpanLog &log, int root,
         bool resume, long stop_after, Metrics &m, SweepTally &tally,
         GenerationTracker &gen)
{
    std::unique_ptr<runtime::Session> session;
    {
        ScopedSpan s(log, "runtime.session", root);
        session = std::make_unique<runtime::Session>(sessionConfig(args));
    }
    std::unique_ptr<Grid> grid;
    {
        ScopedSpan s(log, "sweep.grid", root);
        grid = std::make_unique<Grid>(args);
    }
    exec::SweepEngine engine(*session);
    sim::TraceCache &cache = engine.traceCache();

    runtime::RunContext ctx;
    ctx.checkpoint.path = args.get("checkpoint");
    ctx.checkpoint.resume = resume;
    const bool journaled = !ctx.checkpoint.path.empty();
    std::atomic<long> settled{0};
    // Cell end per worker: the journal append runs between a cell's
    // return and onCellDone on the same worker.
    std::vector<double> cell_end(
        static_cast<std::size_t>(engine.jobs()) + 1);
    const auto slot = [] {
        return static_cast<std::size_t>(
            exec::ThreadPool::currentWorkerIndex() + 1);
    };

    exec::SweepOutcome outcome;
    {
        ScopedSpan run(log, "exec.run", root);
        exec::RunPolicy policy;
        policy.onCellDone = [&](std::size_t) {
            const double now = log.now();
            if (journaled) {
                log.add("exec.journal.append", run.id(),
                        cell_end[slot()], now);
                std::lock_guard lock(tally.mu);
                tally.appendS.push_back(now - cell_end[slot()]);
            }
            if (stop_after > 0 && settled.fetch_add(1) + 1 >= stop_after)
                ctx.token().cancel();
        };
        const auto cell = [&](std::size_t i) {
            thread_local std::vector<std::shared_ptr<const trace::Trace>>
                pins;
            const exec::SweepJob &job = grid->jobs[i];
            sim::EvalConfig config = job.config;
            config.cancel = &ctx.token();
            const int streams =
                config.cpu->domains() == power::DomainLayout::SharedAll
                    ? config.cores
                    : 1;
            const double t0 = log.now();
            pins.clear();
            for (int s = 0; s < streams; ++s)
                pins.push_back(cache.get(*job.profile, config.seed, s));
            const double t1 = log.now();
            const std::size_t new_bytes =
                gen.newBytes(job.profile->name, config.seed, pins);
            // runWorkload fetches the pinned traces again: every such
            // lookup is a hit the CLI does not make.
            const sim::DomainResult result(sim::runWorkload(
                config, *job.profile, cache, session->workspace()));
            const double t2 = log.now();
            pins.clear();
            cell_end[slot()] = t2;
            const int cell_span = log.add("sweep.cell", run.id(), t0, t2);
            log.add("trace.fetch", cell_span, t0, t1);
            log.add("sim.run", cell_span, t1, t2);
            std::lock_guard lock(tally.mu);
            tally.extraLookups += streams;
            if (new_bytes != 0) {
                tally.generateS += t1 - t0;
                tally.generatedBytes += static_cast<double>(new_bytes);
            }
            return result;
        };
        outcome = engine.runCells(grid->jobs.size(), cell, ctx, policy,
                                  exec::fingerprintJobs(grid->jobs));
    }
    if (!outcome.failures.empty())
        util::fatal("sweep cell %zu failed: %s",
                    outcome.failures.front().index,
                    outcome.failures.front().error.c_str());
    const bool want_complete = stop_after == 0;
    if (outcome.complete() != want_complete)
        util::fatal("sweep leg %s unexpectedly",
                    want_complete ? "stopped" : "completed");
    {
        // Like suit_sweep, a stopped leg writes its partial CSV too.
        ScopedSpan s(log, "io.write", root);
        writeCsv(args.get("out") + (want_complete ? "" : ".leg1"), *grid,
                 outcome);
    }

    const double lookups = static_cast<double>(cache.hits() + cache.misses());
    m["trace.generated"] += static_cast<double>(cache.misses());
    m["sim.trace_cache.evictions"] += static_cast<double>(cache.evictions());
    m["sim.trace_cache.resident_mb"] =
        std::max(m["sim.trace_cache.resident_mb"],
                 cache.residentBytes() / kMiB);
    m["cache.hits"] += static_cast<double>(cache.hits());
    m["cache.lookups"] += lookups;
    m["units"] = static_cast<double>(grid->jobs.size());
    addPoolMetrics(*session, m);
}

Metrics
sweepTraced(const util::ArgParser &args, SpanLog &log)
{
    Metrics m;
    SweepTally tally;
    GenerationTracker gen;
    const long stop_after = args.getIntInRange("stop-after", 0, LONG_MAX);
    const std::string journal = args.get("checkpoint");
    if (!journal.empty())
        std::remove(journal.c_str());

    const int root = log.open("campaign", -1);
    if (stop_after > 0)
        sweepLeg(args, log, root, false, stop_after, m, tally, gen);
    sweepLeg(args, log, root, stop_after > 0, 0, m, tally, gen);
    log.close(root);

    const std::vector<double> cells = log.durations("sweep.cell");
    const double sim_s = log.total("sim.run");
    m["wall_s"] = log.duration(root);
    m["runtime.session_ms"] = ms(log.total("runtime.session"));
    m["exec.unit_ms.p50"] = ms(pct(cells, 50.0));
    m["exec.unit_ms.p95"] = ms(pct(cells, 95.0));
    m["sim.run_us_per_unit"] =
        cells.empty() ? 0.0 : sim_s * 1e6 / cells.size();
    m["trace.generate_ms"] = ms(tally.generateS);
    m["trace.mb_generated"] = tally.generatedBytes / kMiB;
    const double hits = m["cache.hits"] - tally.extraLookups;
    const double lookups = m["cache.lookups"] - tally.extraLookups;
    m["sim.trace_cache.hit_rate"] = lookups > 0.0 ? hits / lookups : 0.0;
    m.erase("cache.hits");
    m.erase("cache.lookups");
    m["sim.busy_s"] = sim_s;
    m["exec.journal.append_ms.p95"] = ms(pct(tally.appendS, 95.0));
    m["unaccounted_pct"] = 100.0 * log.selfShare(root);

    if (!journal.empty()) {
        addJournalMetrics(m);
        std::FILE *f = std::fopen(journal.c_str(), "rb");
        if (f == nullptr)
            util::fatal("no journal at '%s'", journal.c_str());
        std::fseek(f, 0, SEEK_END);
        const double size = static_cast<double>(std::ftell(f));
        std::fclose(f);
        m["exec.journal.write_amp"] =
            size > 0.0 ? m["exec.journal.bytes_written"] / size : 0.0;
        // Journal read-back alone, outside the campaign span.
        const Clock::time_point t0 = Clock::now();
        const exec::JournalContents loaded =
            exec::CheckpointJournal::load(journal);
        m["exec.journal.load_ms"] = ms(
            std::chrono::duration<double>(Clock::now() - t0).count());
        if (loaded.records.size() != m["units"])
            util::fatal("journal holds %zu of %.0f cells",
                        loaded.records.size(), m["units"]);
    }
    return m;
}

void
printMetrics(const Metrics &m)
{
    std::printf("{");
    const char *sep = "";
    for (const auto &[name, value] : m) {
        std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
        sep = ", ";
    }
    std::printf("}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("perfbench_probe",
                         "traced in-process run of a benchmark campaign "
                         "(first argument: fleet or sweep)");
    args.addOption("spec", "",
                   "fleet: spec file (omit for the built-in demo fleet)");
    args.addOption("domains", "1000000", "fleet: domains (>= racks)");
    args.addOption("cpu", "A", "sweep: CPU models (A, B, C)");
    args.addOption("cores", "1", "sweep: utilised-core counts");
    args.addOption("strategy", "fV", "sweep: strategies");
    args.addOption("offset", "-97", "sweep: undervolt offsets in mV");
    args.addOption("workload", "all", "sweep: workloads or 'all'");
    args.addOption("checkpoint", "",
                   "sweep: journal path (journaled two-leg run)");
    args.addOption("stop-after", "0",
                   "sweep: first leg stops after N cells, the second "
                   "resumes");
    args.addOption("seed", "1", "root seed");
    args.addOption("jobs", "4", "workers");
    args.addOption("setup-reps", "0",
                   "time set-up this many times instead of tracing");
    args.addOption("out", "probe.out", "campaign output file");
    args.addOption("spans", "", "write the recorded spans here");
    if (!args.parse(argc, argv))
        return 0;
    if (args.positional().size() != 1 ||
        (args.positional()[0] != "fleet" && args.positional()[0] != "sweep"))
        util::fatal("usage: perfbench_probe fleet|sweep [options]");
    const bool fleet_run = args.positional()[0] == "fleet";

    const long setup_reps =
        args.getIntInRange("setup-reps", 0, 100000);
    if (setup_reps > 0) {
        std::printf("{\"setup_s\": [");
        for (long i = 0; i < setup_reps; ++i)
            std::printf("%s%.9g", i == 0 ? "" : ", ",
                        fleet_run ? fleetSetupOnce(args)
                                  : sweepSetupOnce(args));
        std::printf("]}\n");
        return 0;
    }

    obs::metrics().reset();
    obs::metrics().setEnabled(!args.get("checkpoint").empty());
    SpanLog log;
    const Metrics m =
        fleet_run ? fleetTraced(args, log) : sweepTraced(args, log);
    if (!args.get("spans").empty())
        log.writeJson(args.get("spans"));
    printMetrics(m);
    return 0;
}

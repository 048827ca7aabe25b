/**
 * @file
 * google-benchmark microbenchmarks of the library's hot paths: the
 * software emulation payloads (what the OS runs on every trapped
 * instruction), trace generation, the two simulators and the
 * suit::exec parallel experiment engine.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <vector>

#include "core/params.hh"
#include "emu/aes.hh"
#include "emu/dispatcher.hh"
#include "emu/simd_ops.hh"
#include "exec/sweep.hh"
#include "runtime/session.hh"
#include "exec/thread_pool.hh"
#include "sim/domain_sim.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"
#include "uarch/o3_model.hh"
#include "util/rng.hh"

namespace {

using namespace suit;

void
BM_EmulateVor(benchmark::State &state)
{
    util::Rng rng(1);
    const emu::Vec256 a(rng.next(), rng.next(), rng.next(), rng.next());
    const emu::Vec256 b(rng.next(), rng.next(), rng.next(), rng.next());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            emu::emulate({isa::FaultableKind::VOR, a, b, 0}));
    }
}
BENCHMARK(BM_EmulateVor);

void
BM_EmulateClmul(benchmark::State &state)
{
    util::Rng rng(2);
    const emu::Vec256 a(rng.next(), rng.next(), rng.next(), rng.next());
    const emu::Vec256 b(rng.next(), rng.next(), rng.next(), rng.next());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            emu::emulate({isa::FaultableKind::VPCLMULQDQ, a, b, 0x11}));
    }
}
BENCHMARK(BM_EmulateClmul);

void
BM_AesencReference(benchmark::State &state)
{
    emu::AesBlock s{}, k{};
    for (int i = 0; i < 16; ++i) {
        s[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i * 17);
        k[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i * 31 + 5);
    }
    for (auto _ : state) {
        s = emu::aesencRound(s, k);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_AesencReference);

void
BM_AesencBitsliced(benchmark::State &state)
{
    emu::AesBlock s{}, k{};
    for (int i = 0; i < 16; ++i) {
        s[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i * 17);
        k[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i * 31 + 5);
    }
    for (auto _ : state) {
        s = emu::aesencRoundBitsliced(s, k);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_AesencBitsliced);

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto &profile = trace::profileByName("502.gcc");
    std::uint64_t seed = 1;
    for (auto _ : state) {
        const trace::Trace t =
            trace::TraceGenerator(seed++).generate(profile);
        benchmark::DoNotOptimize(t.eventCount());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(profile.totalInstructions));
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

void
BM_DomainSimulation(benchmark::State &state)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const auto &profile = trace::profileByName("502.gcc");
    const trace::Trace t = trace::TraceGenerator(3).generate(profile);

    sim::SimConfig cfg;
    cfg.cpu = &cpu;
    cfg.params = core::optimalParams(cpu);
    for (auto _ : state) {
        sim::DomainSimulator sim(cfg, {{&t, &profile}});
        benchmark::DoNotOptimize(sim.run().traps);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(t.eventCount()));
}
BENCHMARK(BM_DomainSimulation)->Unit(benchmark::kMillisecond);

/**
 * Same single-core SUIT simulation on the pre-optimization reference
 * event loop; BM_DomainSimulation / BM_DomainSimulationReference is
 * the fast path's speedup (tracked in BENCH_simcore.json).
 */
void
BM_DomainSimulationReference(benchmark::State &state)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const auto &profile = trace::profileByName("502.gcc");
    const trace::Trace t = trace::TraceGenerator(3).generate(profile);

    sim::SimConfig cfg;
    cfg.cpu = &cpu;
    cfg.params = core::optimalParams(cpu);
    cfg.referencePath = true;
    for (auto _ : state) {
        sim::DomainSimulator sim(cfg, {{&t, &profile}});
        benchmark::DoNotOptimize(sim.run().traps);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(t.eventCount()));
}
BENCHMARK(BM_DomainSimulationReference)->Unit(benchmark::kMillisecond);

/**
 * Event-dense workload (525.x264: the highest IMUL density in the
 * suite and a heavy faultable stream): long runs of consecutive
 * native events, i.e. the batched-window sweet spot.
 */
void
BM_DomainSimulationDense(benchmark::State &state)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const auto &profile = trace::profileByName("525.x264");
    const trace::Trace t = trace::TraceGenerator(5).generate(profile);

    sim::SimConfig cfg;
    cfg.cpu = &cpu;
    cfg.params = core::optimalParams(cpu);
    for (auto _ : state) {
        sim::DomainSimulator sim(cfg, {{&t, &profile}});
        benchmark::DoNotOptimize(sim.run().traps);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(t.eventCount()));
}
BENCHMARK(BM_DomainSimulationDense)->Unit(benchmark::kMillisecond);

/**
 * CPU A's shared four-core domain: the multi-core batched window
 * (SoA hot state, per-event accumulator replay, vectorizable
 * arrival scan).  Chain-bound rather than throughput-bound — each
 * event's time feeds the next through the reference FP sequence —
 * so expect a lower rate than the single-core scenarios.
 */
void
BM_DomainSimulationShared(benchmark::State &state)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const auto &profile = trace::profileByName("502.gcc");
    constexpr int kStreams = 4;
    std::vector<trace::Trace> traces;
    std::uint64_t events = 0;
    for (int s = 0; s < kStreams; ++s) {
        traces.push_back(trace::TraceGenerator(3).generate(profile, s));
        events += traces.back().eventCount();
    }
    std::vector<sim::CoreWork> work;
    for (const trace::Trace &t : traces)
        work.push_back({&t, &profile});

    sim::SimConfig cfg;
    cfg.cpu = &cpu;
    cfg.params = core::optimalParams(cpu);
    for (auto _ : state) {
        sim::DomainSimulator sim(cfg, work);
        benchmark::DoNotOptimize(sim.run().traps);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(events));
}
BENCHMARK(BM_DomainSimulationShared)->Unit(benchmark::kMillisecond);

void
BM_O3ModelRate(benchmark::State &state)
{
    const uarch::Program prog = uarch::ProgramGenerator(5).generate(
        uarch::specIntLikeMix(), 100'000);
    for (auto _ : state) {
        uarch::O3Model core;
        benchmark::DoNotOptimize(core.run(prog).cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(prog.insts.size()));
}
BENCHMARK(BM_O3ModelRate)->Unit(benchmark::kMillisecond);

/**
 * Per-job dispatch overhead of the thread pool: parallelFor over
 * trivial bodies, so wall time / items is the cost of waking the
 * workers, claiming indices from the shared cursor and joining.
 * Timed in wall time: the calling thread sleeps while the workers
 * run, so its CPU time would show next to nothing.
 */
void
BM_ThreadPoolDispatch(benchmark::State &state)
{
    exec::ThreadPool pool(static_cast<int>(state.range(0)));
    constexpr std::size_t kJobs = 1024;
    std::atomic<std::uint64_t> sink{0};
    for (auto _ : state) {
        pool.parallelFor(kJobs, [&](std::size_t i) {
            sink.fetch_add(i, std::memory_order_relaxed);
        });
    }
    benchmark::DoNotOptimize(sink.load());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kJobs));
}
BENCHMARK(BM_ThreadPoolDispatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

/**
 * SweepEngine scaling on a small real grid (3 workloads x 2 offsets
 * on CPU C).  The engine is rebuilt per worker count, but one warm-up
 * run outside the timed loop fills its trace cache, so the timed
 * region measures simulation + scheduling only — the speedup over
 * Arg(1) is the parallel efficiency on this machine.  Timed in wall
 * time, since the calling thread sleeps while the workers run.
 */
void
BM_SweepEngineScaling(benchmark::State &state)
{
    using exec::SweepJob;
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const char *kWorkloads[] = {"557.xz", "538.imagick", "520.omnetpp"};

    std::vector<SweepJob> jobs;
    for (const char *name : kWorkloads) {
        for (double offset : {-70.0, -97.0}) {
            sim::EvalConfig cfg;
            cfg.cpu = &cpu;
            cfg.offsetMv = offset;
            cfg.params = core::optimalParams(cpu);
            jobs.push_back({name, cfg, &trace::profileByName(name)});
        }
    }

    runtime::Session session({.jobs = static_cast<int>(state.range(0))});
    exec::SweepEngine engine(session);
    benchmark::DoNotOptimize(engine.run(jobs).size()); // warm cache
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(jobs).size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_SweepEngineScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

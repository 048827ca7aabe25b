/**
 * @file
 * google-benchmark microbenchmarks of the library's hot paths: the
 * software emulation payloads (what the OS runs on every trapped
 * instruction), trace generation, the O3 model and the suit::exec
 * parallel experiment engine.  The domain simulator's scenarios are
 * timed by tools/suit_bench_json, whose record is BENCH_simcore.json.
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

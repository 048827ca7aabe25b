/**
 * @file
 * suit_paper: regenerates the paper's results — Tables 1-8, Figs. 2,
 * 5-14 and 16, Secs. 4, 5.3 and 6.9, the design ablation and the
 * scheduling ablation — and checks each claim the paper makes about
 * them against an explicit bound.
 *
 *   suit_paper [--jobs N] [--json claims.jsonl]
 *
 * Every trace-simulator cell of Tables 6-8, Fig. 16 and the design
 * ablation is one job list run by one SweepEngine::run: 576 Table 6
 * cells, 96 Table 7 cells and 32 ablation cells.  Table 8 and Fig. 16
 * read their cells from the Table 6 slice, which holds the same
 * configurations.  The O3 runs of Fig. 14 and Sec. 4 and the
 * scheduling ablation's sockets run on the same session pool.
 * Results are in job order, so stdout is identical for any --jobs;
 * the worker footer goes to stderr.
 *
 * The claims table (makeClaims) is the reproduction's contract.  A
 * bound comes from the paper value and from the paper's own
 * precision or wording, never from the model's output:
 *  - a value the paper prints and the model encodes as an input: the
 *    paper value +- half a unit of its last printed digit (printed());
 *    such a claim guards the encoding, not the model, and its reason
 *    says "encoded input";
 *  - an approximate magnitude ("about", "~", a rounded percentage):
 *    the paper value +-25 % of itself (about());
 *  - a time share: the paper value +-5 pp (share());
 *  - an exact count: the count itself;
 *  - a sign, an ordering or "fewer": the side of the line the
 *    wording names.
 * A claim the model misses is listed as an expected deviation with
 * its reason and does not fail the run; a listed deviation that
 * starts to hold does, so the list cannot go stale.  The exit status
 * is 1 when any claim fails.  --json writes the suit-claims-v1
 * record: a header line, then one claim object per line.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/params.hh"
#include "core/scheduler.hh"
#include "core/strategy.hh"
#include "emu/dispatcher.hh"
#include "exec/sweep.hh"
#include "faults/attack.hh"
#include "faults/characterizer.hh"
#include "obs/json.hh"
#include "os/exception.hh"
#include "power/cpu_model.hh"
#include "power/guardband.hh"
#include "power/pstate.hh"
#include "power/transition.hh"
#include "power/undervolt.hh"
#include "runtime/session.hh"
#include "sim/domain_sim.hh"
#include "sim/evaluation.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"
#include "uarch/machine.hh"
#include "uarch/o3_model.hh"
#include "uarch/program.hh"
#include "util/args.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace {

using namespace suit;
using exec::SweepJob;
using sim::DomainResult;
using sim::EvalConfig;
using sim::SuiteSummary;
using sim::WorkloadRow;
using trace::WorkloadProfile;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string
pct(double x)
{
    return util::sformat("%+.1f%%", 100.0 * x);
}

/** Runs body(0) .. body(n - 1) on the session's pool, or in order. */
template <typename Body>
void
parallel(runtime::Session &session, std::size_t n, const Body &body)
{
    if (exec::ThreadPool *pool = session.pool())
        pool->parallelFor(n, body);
    else
        for (std::size_t i = 0; i < n; ++i)
            body(i);
}

/** The evaluation's undervolt offsets (mV). */
const double kOffsets[] = {-70.0, -97.0};

// ------------------------------------------------------------------
// Table 1: Minefield-style fault characterization.

faults::CharacterizationResult
table1()
{
    std::printf("SUIT reproduction — Table 1: undervolting-induced "
                "instruction faults\n");
    std::printf("(methodology of Kogler et al., run against the Vmin "
                "fault model)\n\n");

    const power::DvfsCurve curve = power::i9_9900kCurve();
    faults::VminConfig vcfg;
    vcfg.curve = &curve;
    vcfg.cores = 8;
    const faults::VminModel model(vcfg);

    const faults::CharacterizerConfig ccfg;
    faults::Characterizer characterizer(&model, ccfg);
    const faults::CharacterizationResult r = characterizer.run();

    util::TablePrinter t({"Instruction", "Faults (model)",
                          "Faults (paper)", "First fault (mV)"});
    for (auto kind : isa::allFaultableKinds()) {
        const auto k = static_cast<std::size_t>(kind);
        t.addRow({isa::toString(kind),
                  util::sformat("%d", r.faultCounts[k]),
                  util::sformat("%d", isa::publishedFaultCount(kind)),
                  r.firstFaultMv[k] > 0
                      ? util::sformat("-%.0f", r.firstFaultMv[k])
                      : "never"});
    }
    t.print();

    std::printf("\n%llu test executions over %d cores x %zu "
                "frequencies; %d sweeps ended in a core crash.\n",
                static_cast<unsigned long long>(r.totalExecutions),
                vcfg.cores, ccfg.freqsHz.size(), r.crashedPoints);
    return r;
}

// ------------------------------------------------------------------
// Measured inputs: Tables 2-4, Fig. 2, Figs. 8-13 and Sec. 5.3.  The
// models encode these, so most of their claims guard the encoding.

/** Table 2 at -97 mV (%). */
struct Table2
{
    double i9Score, i9Power, i9Eff, i5Freq;
};

Table2
table2()
{
    std::printf("\nSUIT reproduction — Table 2: undervolting response "
                "(score / power / frequency / efficiency)\n\n");
    const power::UndervoltResponse i5 = power::i5_1035g1UndervoltResponse();
    const power::UndervoltResponse i9 = power::i9_9900kUndervoltResponse();
    util::TablePrinter t({"CPU", "V_off", "Score", "Power", "Freq", "Eff"});
    for (const auto &cpu : {i5, i9, power::ryzen7700xUndervoltResponse()}) {
        for (const double off : kOffsets) {
            const power::UndervoltEffect e = cpu.at(off);
            t.addRow({cpu.cpuName(), util::sformat("%.0f mV", off),
                      pct(e.scoreDelta), pct(e.powerDelta),
                      pct(e.freqDelta),
                      util::sformat("%+.0f%%", 100 * e.efficiencyDelta())});
        }
        t.addSeparator();
    }
    t.print();

    const power::UndervoltEffect mid = i9.at(-83.0);
    std::printf("\nInterpolated response between the anchors (e.g. -83 "
                "mV on the i9-9900K):\n  score %s, power %s, eff %s\n",
                pct(mid.scoreDelta).c_str(), pct(mid.powerDelta).c_str(),
                pct(mid.efficiencyDelta()).c_str());
    const power::UndervoltEffect at97 = i9.at(-97.0);
    return {100 * at97.scoreDelta, 100 * at97.powerDelta,
            100 * at97.efficiencyDelta(), 100 * i5.at(-97.0).freqDelta};
}

/** Table 3: offsets at 50/88 degC, band (mV), 4 GHz share (%). */
struct Table3
{
    double cool, hot, band, share;
};

Table3
table3()
{
    std::printf("\nSUIT reproduction — Table 3: temperature guardband "
                "(i9-9900K at 4 GHz)\n\n");
    const power::GuardbandModel gb;
    util::TablePrinter t(
        {"f_CLK", "Fan RPM", "t_core", "max V_off", "temp band"});
    const auto row = [&](const char *rpm, double temp_c) {
        t.addRow({"4 GHz", rpm, util::sformat("%.0f degC", temp_c),
                  util::sformat("%.0f mV", gb.maxUndervoltAtTempMv(temp_c)),
                  util::sformat("%.1f mV", gb.temperatureBandAtMv(temp_c))});
    };
    row("1800 (max)", 50.0);
    row("300", 88.0);
    t.print();

    const double supply = power::i9_9900kCurve().voltageAtMv(4e9);
    const double share = 100.0 * gb.temperatureBandMv / supply;
    std::printf("\nTemperature guardband: %.0f mV between %.0f and %.0f "
                "degC = %.1f%% of the %.0f mV supply at 4 GHz\n\n",
                gb.temperatureBandMv, gb.coolTempC, gb.hotTempC, share,
                supply);

    std::printf("Intermediate temperatures (linear model):\n");
    util::TablePrinter t2({"t_core", "max V_off"});
    for (double temp = 50.0; temp <= 88.01; temp += 9.5)
        t2.addRow({util::sformat("%.1f degC", temp),
                   util::sformat("%.1f mV", gb.maxUndervoltAtTempMv(temp))});
    t2.print();
    return {gb.maxUndervoltAtTempMv(50.0), gb.maxUndervoltAtTempMv(88.0),
            gb.temperatureBandAtMv(88.0), share};
}

/** Table 4 on the i9-9900K (%): suite geomeans, listed benchmarks. */
struct Table4
{
    double fprate, intrate, namd, imagick, x264, exchange2;
};

Table4
table4()
{
    std::printf("\nSUIT reproduction — Table 4: SPEC CPU2017 without "
                "SIMD instructions\n\n");
    const std::vector<WorkloadProfile> spec = trace::specProfiles();
    const auto suite = [&](trace::Suite s, bool amd) {
        std::vector<double> deltas;
        for (const WorkloadProfile &p : spec)
            if (p.suite == s)
                deltas.push_back(p.noSimdFor(amd));
        return sim::gmeanDelta(deltas);
    };
    const auto delta = [](const char *name, bool amd) {
        return trace::profileByName(name).noSimdFor(amd);
    };
    util::TablePrinter t({"CPU", "fprate", "intrate", "508", "521", "538",
                          "554", "525", "548"});
    for (const bool amd : {false, true}) {
        std::vector<std::string> row = {
            amd ? "7700X" : "i9-9900K", pct(suite(trace::Suite::SpecFp, amd)),
            pct(suite(trace::Suite::SpecInt, amd))};
        for (const char *name : {"508.namd", "521.wrf", "538.imagick",
                                 "554.roms", "525.x264", "548.exchange2"})
            row.push_back(pct(delta(name, amd)));
        t.addRow(row);
    }
    t.print();
    return {100 * suite(trace::Suite::SpecFp, false),
            100 * suite(trace::Suite::SpecInt, false),
            100 * delta("508.namd", false), 100 * delta("538.imagick", false),
            100 * delta("525.x264", false),
            100 * delta("548.exchange2", false)};
}

/** Fig. 2 at 5 GHz: bands (mV, aging also %), derived offsets (mV). */
struct Fig2
{
    double aging, agingShare, temperature, offset0, offset20;
};

Fig2
fig2()
{
    std::printf("\nSUIT reproduction — Fig. 2: guardband decomposition "
                "(i9-9900K at 5 GHz)\n\n");
    const power::DvfsCurve curve = power::i9_9900kCurve();
    const power::GuardbandModel gb;
    const power::GuardbandBreakdown b = gb.decompose(curve, 5e9);

    util::TablePrinter t({"Component", "Size", "Share of supply"});
    const auto row = [&](const char *what, double mv, double fraction) {
        t.addRow({what, util::sformat("%.0f mV", mv),
                  util::sformat("%.1f%%", 100 * fraction)});
    };
    t.addRow({"CPU supply voltage", util::sformat("%.0f mV", b.supplyMv),
              "100%"});
    row("Instruction variation (SUIT's budget)", b.instructionVariationMv,
        b.instructionVariationMv / b.supplyMv);
    row("Aging guardband (preserved)", b.agingMv, b.agingFraction());
    row("Temperature guardband (preserved)", b.temperatureMv,
        b.temperatureFraction());
    t.print();

    std::printf("\nSUIT undervolt offsets derived from the bands "
                "(Sec. 3.1):\n");
    util::TablePrinter t2({"Aging fraction used", "Offset"});
    const double fractions[] = {0.0, 0.2};
    double offsets[std::size(fractions)];
    for (std::size_t i = 0; i < std::size(fractions); ++i) {
        offsets[i] =
            power::suitUndervoltOffsetMv(gb, curve, 5e9, fractions[i]);
        t2.addRow({util::sformat("%.0f%%", 100 * fractions[i]),
                   util::sformat("%.0f mV", offsets[i])});
    }
    t2.print();
    return {b.agingMv, 100 * b.agingFraction(), b.temperatureMv, offsets[0],
            offsets[1]};
}

/** Sampled mean of @p d over 5000 draws (us); prints its statistics. */
double
delayStats(const char *label, const power::DelayDistribution &d,
           util::Rng &rng)
{
    util::RunningStats s;
    for (int i = 0; i < 5000; ++i)
        s.add(util::ticksToMicroseconds(d.sample(rng)));
    std::printf("%-34s mean %7.1f us  sigma %6.1f us  max %7.1f us\n",
                label, s.mean(), s.stddev(), s.max());
    return s.mean();
}

void
printWave(const char *label, const std::vector<power::WaveformSample> &wave,
          bool freq)
{
    std::printf("%s\n%-12s %s\n", label, "t (us)",
                freq ? "freq (GHz)" : "voltage (mV)");
    for (std::size_t i = 0; i < wave.size(); i += freq ? 1 : 4)
        std::printf("%-12s %.3f\n",
                    util::sformat("%+8.1f", wave[i].timeUs).c_str(),
                    freq ? wave[i].value * 1e-9 : wave[i].value);
    std::printf("\n");
}

/** Figs. 8-11: sampled mean transition delays (us). */
struct Fig8to11
{
    double i9Volt, i9Freq, amdFreq, xeonVolt, xeonFreq, xeonStall;
};

Fig8to11
fig8to11()
{
    std::printf("\nSUIT reproduction — Figs. 8-11: DVFS transition "
                "delays\n\n");
    util::Rng rng(2024);
    const auto i9 = power::i9_9900kTransitionModel();
    const auto amd = power::ryzen7700xTransitionModel();
    const auto xeon = power::xeon4208TransitionModel();

    std::printf("Sampled delay statistics (paper Sec. 5.2):\n");
    Fig8to11 f;
    f.i9Volt = delayStats("i9-9900K voltage change", i9.voltageChange, rng);
    f.i9Freq = delayStats("i9-9900K frequency change", i9.freqChange, rng);
    f.amdFreq = delayStats("7700X frequency change", amd.freqChange, rng);
    f.xeonVolt =
        delayStats("Xeon 4208 voltage change", xeon.voltageChange, rng);
    f.xeonFreq =
        delayStats("Xeon 4208 frequency change", xeon.freqChange, rng);
    f.xeonStall =
        delayStats("Xeon 4208 frequency stall", xeon.freqChangeStall, rng);
    std::printf("\n");

    printWave("Fig. 8 — i9-9900K voltage after resetting a -100 mV "
              "offset at t=0:",
              power::voltageStepWaveform(i9, 800.0, 900.0, rng, 25.0),
              false);
    printWave("Fig. 9 — i9-9900K frequency change 3.0 -> 2.6 GHz "
              "(note the sample gap: the core stalls):",
              power::frequencyStepWaveform(i9, 3.0e9, 2.6e9, rng, 3.0),
              true);
    printWave("Fig. 10 — 7700X frequency change 4.5 -> 2.0 GHz "
              "(gradual, no stall):",
              power::frequencyStepWaveform(amd, 4.5e9, 2.0e9, rng, 60.0),
              true);
    printWave("Fig. 11 — Xeon 4208 p-state change (voltage leads "
              "frequency; stall at the end):",
              power::frequencyStepWaveform(xeon, 3.0e9, 2.6e9, rng, 4.0),
              true);
    return f;
}

/** Fig. 12: package power at -97 mV (W). */
double
fig12()
{
    std::printf("\nSUIT reproduction — Fig. 12: undervolting sweep on the "
                "i9-9900K (SPEC CPU2017)\n\n");
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const auto power_w = [&](double off) {
        return cpu.basePowerW() * (1.0 + cpu.undervolt().at(off).powerDelta);
    };
    util::TablePrinter t({"V_off (mV)", "Score", "Power (W)",
                          "Mean freq (GHz)", "Eff"});
    const auto row = [&](const std::string &label, double off) {
        const power::UndervoltEffect e = cpu.undervolt().at(off);
        t.addRow({label, util::sformat("%+.2f%%", 100 * e.scoreDelta),
                  util::sformat("%.1f", power_w(off)),
                  util::sformat("%.2f",
                                cpu.baseFreqHz() * 1e-9 * (1.0 + e.freqDelta)),
                  pct(e.efficiencyDelta())});
    };
    for (double off = 0.0; off >= -97.01; off -= 10.0)
        row(util::sformat("%.0f", off), off);
    t.addSeparator(); // the evaluation's offsets
    for (const double off : kOffsets)
        row(util::sformat("%.0f (eval)", off), off);
    t.print();
    return power_w(-97.0);
}

/** Fig. 13: V at 4/5 GHz, gradient (mV/GHz), 5 GHz IMUL slack. */
struct Fig13
{
    double v4, v5, gradient, imulSlack;
};

Fig13
fig13()
{
    std::printf("\nSUIT reproduction — Fig. 13: i9-9900K DVFS curves\n\n");
    const power::DvfsCurve cons = power::i9_9900kCurve();
    const power::DvfsCurve eff70 = cons.shifted(-70.0, "efficient -70");
    const power::DvfsCurve eff97 = cons.shifted(-97.0, "efficient -97");
    const power::DvfsCurve imul = power::i9_9900kModifiedImulCurve();
    const auto mv = [](const power::DvfsCurve &c, double f) {
        return util::sformat("%.0f", c.voltageAtMv(f));
    };
    util::TablePrinter t({"f (GHz)", "conservative (mV)", "-70 mV",
                          "-97 mV", "modified IMUL", "IMUL slack"});
    for (double ghz = 1.0; ghz <= 5.01; ghz += 0.5) {
        const double f = ghz * 1e9;
        t.addRow({util::sformat("%.1f", ghz), mv(cons, f), mv(eff70, f),
                  mv(eff97, f), mv(imul, f),
                  util::sformat("%.0f",
                                cons.voltageAtMv(f) - imul.voltageAtMv(f))});
    }
    t.print();

    const Fig13 r{cons.voltageAtMv(4e9), cons.voltageAtMv(5e9),
                  cons.gradientMvPerGhz(4.5e9),
                  cons.voltageAtMv(5e9) - imul.voltageAtMv(5e9)};
    const power::GuardbandModel gb;
    const double aging = gb.agingBandMv(cons, 5e9);
    std::printf("\nDerived quantities (paper Secs. 5.5/5.6/6.9):\n");
    std::printf("  V(4 GHz) = %.0f mV, V(5 GHz) = %.0f mV, gradient "
                "4->5 GHz = %.0f mV/GHz\n",
                r.v4, r.v5, r.gradient);
    std::printf("  aging guardband at 5 GHz: %.0f mV (%.0f%%)\n", aging,
                100.0 * aging / r.v5);
    std::printf("  4-cycle IMUL slack at 5 GHz: %.0f mV (the +33%% "
                "latency buys up to 220 mV)\n",
                r.imulSlack);
    return r;
}

/** Sec. 5.3: exception delay and emulation call (us) per vendor. */
struct Sec53
{
    double i9Exception, i9Call, amdException, amdCall;
};

Sec53
sec53()
{
    std::printf("\nSUIT reproduction — Sec. 5.3: exception and "
                "emulation-call delays\n\n");
    const power::CpuModel cpus[] = {power::cpuA_i9_9900k(),
                                    power::cpuB_ryzen7700x(),
                                    power::cpuC_xeon4208()};
    const power::CpuModel &i9 = cpus[0], &amd = cpus[1];
    util::TablePrinter t({"CPU", "Exception delay", "Emulation call"});
    for (const power::CpuModel &cpu : cpus)
        t.addRow({cpu.name(), util::sformat("%.2f us", cpu.exceptionDelayUs()),
                  util::sformat("%.2f us", cpu.emulationCallUs())});
    t.print();

    std::printf("\nTotal per-instruction emulation cost (round trip + "
                "software body) at the base frequency:\n");
    util::TablePrinter t2({"Instruction", "Body (cycles)", "Total (us)"});
    for (const auto kind : isa::allFaultableKinds())
        t2.addRow({isa::toString(kind),
                   util::sformat("%.0f", emu::emulationCostCycles(kind)),
                   util::sformat("%.2f",
                                 util::ticksToMicroseconds(
                                     os::emulationCostTicks(i9, kind)))});
    t2.print();
    return {i9.exceptionDelayUs(), i9.emulationCallUs(),
            amd.exceptionDelayUs(), amd.emulationCallUs()};
}

// ------------------------------------------------------------------
// Figs. 5-7: burst behaviour on the trace simulator.

/** CPU C at -97 mV under fV, every trap and switch logged. */
DomainResult
loggedRun(const power::CpuModel &cpu, const trace::Trace &t,
          const WorkloadProfile &profile)
{
    sim::SimConfig cfg;
    cfg.cpu = &cpu;
    cfg.offsetMv = -97.0;
    cfg.strategy = core::StrategyKind::CombinedFv;
    cfg.params = core::optimalParams(cpu);
    cfg.recordStateLog = true;
    return sim::DomainSimulator(cfg, {{&t, &profile}}).run();
}

/** Fig. 5: the run's switches back to the efficient curve. */
double
fig5()
{
    std::printf("\nSUIT reproduction — Fig. 5: AES burst and DVFS curve "
                "switching (Nginx-like trace, CPU C, fV)\n\n");
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const WorkloadProfile &profile = trace::nginxProfile();
    const trace::Trace t = trace::TraceGenerator(1).generate(profile);
    const DomainResult r = loggedRun(cpu, t, profile);

    // The timeline around the second burst (the first one includes
    // cold-start effects).
    std::size_t start = 0, traps = 0;
    for (std::size_t i = 0; i < r.stateLog.size(); ++i) {
        if (r.stateLog[i].trap && ++traps == 2) {
            start = i > 3 ? i - 3 : 0;
            break;
        }
    }
    std::printf("%-14s %-10s %s\n", "time (us)", "event", "curve");
    const double t0 = util::ticksToMicroseconds(r.stateLog[start].when);
    for (std::size_t i = start; i < r.stateLog.size() && i < start + 14;
         ++i) {
        const sim::PStateChange &e = r.stateLog[i];
        std::printf("%-14s %-10s %s\n",
                    util::sformat("%+10.1f",
                                  util::ticksToMicroseconds(e.when) - t0)
                        .c_str(),
                    e.trap ? "#DO trap" : "switch",
                    e.trap ? "(efficient, trap raised)"
                           : power::toString(e.to));
    }
    std::printf("\nWhole run: %llu traps, %llu switches, %.1f%% of time "
                "on the efficient curve\n",
                static_cast<unsigned long long>(r.traps),
                static_cast<unsigned long long>(r.pstateSwitches),
                100.0 * r.efficientShare);
    std::printf("\nGap-size profile of the trace (the Fig. 5 y-axis; one "
                "row per decade of gap size):\n");
    std::fputs(trace::TraceStats::compute(t).gapHistogram.render(48).c_str(),
               stdout);
    return static_cast<double>(std::count_if(
        r.stateLog.begin(), r.stateLog.end(), [](const auto &e) {
            return !e.trap && e.to == power::SuitPState::Efficient;
        }));
}

/** Fig. 6: trap to Cf and CV (us); logged steps in figure order. */
struct Fig6
{
    double toCf = kInf, toCv = kInf, steps = 0;
};

Fig6
fig6()
{
    std::printf("\nSUIT reproduction — Fig. 6: fV strategy across one "
                "long burst (CPU C, -97 mV)\n\n");
    const power::CpuModel cpu = power::cpuC_xeon4208();

    // One synthetic long burst: 2 ms of back-to-back faultable
    // instructions inside an otherwise quiet stream.
    WorkloadProfile profile;
    profile.name = "one-burst";
    profile.ipc = 1.5;
    profile.totalInstructions = 100'000'000;
    profile.kindMix[static_cast<std::size_t>(isa::FaultableKind::AESENC)] =
        1.0;
    std::vector<trace::FaultableEvent> events;
    events.push_back({30'000'000, isa::FaultableKind::AESENC});
    for (int i = 0; i < 9000; ++i)
        events.push_back({1000, isa::FaultableKind::AESENC});
    const trace::Trace t("one-burst", profile.totalInstructions, profile.ipc,
                         events);
    const DomainResult r = loggedRun(cpu, t, profile);

    const double f_e = cpu.baseFreqHz() * 1e-9;
    const double f_cf = cpu.cfFreqHz(-97.0) * 1e-9;
    const double v_hi = cpu.conservativeCurve().voltageAtMv(cpu.baseFreqHz());
    const double v_lo = v_hi - 97.0;

    std::printf("%-14s %-10s %-8s %-12s %s\n", "time (us)", "event",
                "curve", "freq (GHz)", "voltage (mV)");
    const std::string expected[] = {"trap", "Cf", "CV", "E"};
    Fig6 out;
    bool in_order = true;
    double t0 = -1.0;
    for (const sim::PStateChange &e : r.stateLog) {
        if (t0 < 0 && e.trap)
            t0 = util::ticksToMicroseconds(e.when);
        if (t0 < 0)
            continue;
        const double at = util::ticksToMicroseconds(e.when) - t0;
        double f = f_e, v = v_lo;
        const char *curve = "E";
        if (!e.trap && e.to == power::SuitPState::ConservativeFreq) {
            f = f_cf;
            curve = "Cf";
            out.toCf = std::min(out.toCf, at);
        } else if (!e.trap && e.to == power::SuitPState::ConservativeVolt) {
            v = v_hi;
            curve = "CV";
            out.toCv = std::min(out.toCv, at);
        }
        const std::size_t k = static_cast<std::size_t>(out.steps);
        in_order = in_order && k < std::size(expected) &&
                   expected[k] == (e.trap ? "trap" : curve);
        out.steps += in_order;
        std::printf("%-14s %-10s %-8s %-12s %s\n",
                    util::sformat("%+10.1f", at).c_str(),
                    e.trap ? "#DO trap" : "switch", curve,
                    e.trap ? "-" : util::sformat("%.2f", f).c_str(),
                    e.trap ? "-" : util::sformat("%.0f", v).c_str());
    }
    return out;
}

/** Fig. 7: the largest gap between faultable instructions. */
double
fig7()
{
    std::printf("\nSUIT reproduction — Fig. 7: AES gap-size timeline "
                "while VLC streams a 1080p video\n\n");
    const WorkloadProfile &profile = trace::vlcProfile();
    const trace::Trace t = trace::TraceGenerator(1).generate(profile);
    const trace::TraceStats stats = trace::TraceStats::compute(t);
    std::printf("Trace: %llu instructions, %zu faultable events (x%g "
                "thinning), mean gap %.0f, max gap %.2e\n\n",
                static_cast<unsigned long long>(t.totalInstructions()),
                t.eventCount(), profile.eventWeight, stats.meanGap,
                static_cast<double>(stats.maxGap));

    // The figure's series: big gaps (burst boundaries) along the
    // instruction index axis, the first 18 of them.
    std::printf("%-18s %-14s %s\n", "instruction index", "gap size",
                "log10(gap)");
    int shown = 0;
    for (std::size_t i = 0; i < t.eventCount() && shown < 18; ++i) {
        const auto &e = t.events()[i];
        if (e.gap < 100 * profile.eventWeight)
            continue; // inside a burst
        int log10 = 0;
        for (std::uint64_t g = e.gap; g >= 10; g /= 10)
            ++log10;
        std::printf("%-18s %-14s %d\n",
                    util::sformat("%.3e", static_cast<double>(t.eventIndex(i)))
                        .c_str(),
                    util::sformat("%.2e", static_cast<double>(e.gap)).c_str(),
                    log10);
        ++shown;
    }
    std::printf("\nGap-size histogram over the whole trace (decades of "
                "instructions):\n");
    std::fputs(stats.gapHistogram.render(48).c_str(), stdout);
    return static_cast<double>(stats.maxGap);
}

// ------------------------------------------------------------------
// The O3-model experiments: Table 5 and Fig. 14 (slowdown vs. IMUL
// latency), and Sec. 4 (the Fig. 3 hardware-software wiring end to end
// on the cycle-level SuitMachine: MSRs, the precise #DO at dispatch,
// the strategy switching curves, the deadline timer) against a stock
// machine.  Generating Sec. 4's program takes longer than all of
// Fig. 14, so the two share a batch.

const int kImulLatencies[] = {3, 4, 5, 6, 15, 30};
constexpr std::size_t kImulInstructions = 400'000;

/** Fig. 14 series, one entry per kImulLatencies entry. */
struct Fig14
{
    std::vector<double> geomean;
    std::vector<double> x264;
    std::size_t runs = 0; //!< O3 model runs
};

/** Sec. 4: the SUIT run's #DO traps and its energy vs the stock run. */
struct Sec4
{
    double traps, energy;
};

void
printTable5()
{
    const uarch::CoreConfig cfg;
    std::printf("Table 5 — simulated system configuration\n");
    util::TablePrinter t({"Component", "Configuration"});
    t.addRow({"CPU", "x86-64-like O3 model, 3 GHz, 8-wide"});
    t.addRow({"Pipeline",
              util::sformat("ROB %d, IQ %d, LSQ %d, redirect %d cy",
                            cfg.robSize, cfg.iqSize, cfg.lsqSize,
                            cfg.redirectPenalty)});
    t.addRow({"Cache",
              "64 kB L1I, 32 kB L1D, 2 MB LLC (LRU, 64 B lines)"});
    t.addRow({"DRAM", util::sformat("DDR4-2400-like, %d cycles",
                                    cfg.mem.dramLatency)});
    t.addRow({"IMUL", "3 cycles stock, fully pipelined"});
    t.print();
    std::printf("\n");
}

/** @p cycles: [latency][mix], the stock latency's row first. */
Fig14
printFig14(const std::vector<uarch::ProgramMix> &mixes,
           const std::vector<double> &cycles)
{
    std::printf("\nSUIT reproduction — Fig. 14: slowdown vs. IMUL "
                "latency\n");
    std::printf("(paper Sec. 6.1: gem5 O3 + SPECcast slices; here: "
                "the in-tree O3 timestamp model on synthetic SPEC-like "
                "mixes)\n\n");
    printTable5();
    const std::size_t n_mix = mixes.size();
    Fig14 out;
    out.runs = cycles.size();
    util::TablePrinter t({"IMUL latency", "geomean slowdown",
                          "x264-like slowdown", "worst mix"});
    for (std::size_t l = 0; l < std::size(kImulLatencies); ++l) {
        const int lat = kImulLatencies[l];
        std::vector<double> deltas;
        double x264 = 0.0;
        double worst = 0.0;
        for (std::size_t m = 0; m < n_mix; ++m) {
            const double delta = cycles[l * n_mix + m] / cycles[m] - 1.0;
            deltas.push_back(delta);
            worst = std::max(worst, delta);
            if (mixes[m].name == "x264-like")
                x264 = delta;
        }
        const double gm = sim::gmeanDelta(deltas);
        out.geomean.push_back(gm);
        out.x264.push_back(x264);
        t.addRow({util::sformat("%d cycles%s", lat,
                                lat == 3   ? " (stock)"
                                : lat == 4 ? " (SUIT)"
                                           : ""),
                  util::sformat("%+.3f%%", 100.0 * gm),
                  util::sformat("%+.3f%%", 100.0 * x264),
                  util::sformat("%+.3f%%", 100.0 * worst)});
    }
    t.print();
    return out;
}

/** An integer program with four 60-instruction SIMD bursts. */
uarch::Program
burstyProgram(std::size_t count)
{
    uarch::ProgramMix mix = uarch::specIntLikeMix();
    mix.weights[static_cast<std::size_t>(uarch::OpClass::SimdAlu)] = 0.0;
    uarch::Program p = uarch::ProgramGenerator(21).generate(mix, count);
    for (std::size_t at = count / 5; at < count; at += count / 5) {
        for (std::size_t i = at; i < at + 60 && i < count; ++i) {
            p.insts[i].op = uarch::OpClass::SimdAlu;
            p.insts[i].faultable = isa::FaultableKind::VXOR;
        }
    }
    return p;
}

/** @p msrs: the SUIT machine's MSRs after its run. */
Sec4
printSec4(const os::MsrFile &msrs, const uarch::MachineResult &base,
          const uarch::MachineResult &suit_run)
{
    std::printf("\nSUIT reproduction — Sec. 4: hardware-software "
                "interaction on the cycle-level machine\n\n");
    std::printf("MSR state after enabling SUIT:\n");
    std::printf("  DVFS_CURVE      = %llu (efficient)\n",
                static_cast<unsigned long long>(
                    msrs.read(os::MSR_SUIT_DVFS_CURVE)));
    std::printf("  DISABLE_OPCODE  = 0x%03llx (= trap set: all of Table 1 "
                "except the hardened IMUL)\n\n",
                static_cast<unsigned long long>(
                    msrs.read(os::MSR_SUIT_DISABLE_OPCODE)));

    util::TablePrinter t({"Run", "IMUL", "cycles", "wall time", "power",
                          "energy", "traps", "onE"});
    const auto row = [&](const char *name, const char *imul,
                         const uarch::MachineResult &r) {
        t.addRow({name, imul, util::sformat("%.2fM", r.stats.cycles / 1e6),
                  util::sformat("%.2f ms", 1e3 * r.seconds),
                  util::sformat("%.3fx", r.powerFactor),
                  util::sformat("%.3fx", r.energyFactorVs(base)),
                  util::sformat("%llu", static_cast<unsigned long long>(
                                            r.stats.traps)),
                  util::sformat("%.1f%%", 100 * r.efficientShare)});
    };
    row("stock CPU", "3 cy", base);
    row("SUIT", "4 cy", suit_run);
    t.print();
    return {static_cast<double>(suit_run.stats.traps),
            suit_run.energyFactorVs(base)};
}

std::pair<Fig14, Sec4>
o3Experiments(runtime::Session &session)
{
    // One batch: Sec. 4's program, and each Fig. 14 mix generated (with
    // the seed runMixAtImulLatency uses) and timed at every latency.
    const std::vector<uarch::ProgramMix> mixes = uarch::figure14Mixes();
    const std::size_t n_mix = mixes.size();
    uarch::Program program;
    std::vector<double> cycles(std::size(kImulLatencies) * n_mix);
    parallel(session, 1 + n_mix, [&](std::size_t i) {
        if (i == 0) {
            program = burstyProgram(20'000'000);
            return;
        }
        const std::size_t m = i - 1;
        const uarch::Program mix =
            uarch::ProgramGenerator(17).generate(mixes[m], kImulInstructions);
        for (std::size_t l = 0; l < std::size(kImulLatencies); ++l) {
            uarch::CoreConfig core;
            core.setImulLatency(kImulLatencies[l]);
            cycles[l * n_mix + m] =
                static_cast<double>(uarch::O3Model(core).run(mix).cycles);
        }
    });

    // Sec. 4's stock and SUIT runs, one machine each.
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    uarch::SuitMachine::Config cfg;
    cfg.cpu = &cpu;
    cfg.offsetMv = -97.0;
    cfg.strategy = core::StrategyKind::CombinedFv;
    cfg.params = core::optimalParams(cpu);
    uarch::SuitMachine machines[] = {uarch::SuitMachine(cfg),
                                     uarch::SuitMachine(cfg)};
    uarch::MachineResult runs[2];
    parallel(session, 2, [&](std::size_t i) {
        runs[i] = i == 0 ? machines[i].runBaseline(program)
                         : machines[i].runSuit(program);
    });

    const Fig14 f14 = printFig14(mixes, cycles);
    return {f14, printSec4(machines[1].msrs(), runs[0], runs[1])};
}

// ------------------------------------------------------------------
// The trace-simulator grid: Tables 6 and 7 and the ablation enqueue
// their cells into one job list; Table 8 and Fig. 16 read Table 6's.

/** The paper's CPU models (the jobs point into this). */
struct Cpus
{
    power::CpuModel a = power::cpuA_i9_9900k();
    power::CpuModel b = power::cpuB_ryzen7700x();
    power::CpuModel c = power::cpuC_xeon4208();
};

EvalConfig
evalConfig(const power::CpuModel &cpu, double offset_mv,
           core::StrategyKind strategy = core::StrategyKind::CombinedFv)
{
    EvalConfig cfg;
    cfg.cpu = &cpu;
    cfg.offsetMv = offset_mv;
    cfg.strategy = strategy;
    cfg.params = core::optimalParams(cpu);
    return cfg;
}

/** One Table 6 CPU/OS configuration. */
struct Table6Config
{
    const char *label; //!< the paper's row label, e.g. "Ainf e"
    const power::CpuModel *cpu;
    int cores;
    core::StrategyKind strategy;
};

constexpr std::size_t kAt97 = 1; // kOffsets[1]

/** Job-list slice of one (offset, configuration) group. */
struct Table6Group
{
    std::size_t all = 0;    //!< all profiles under SUIT, allProfiles() order
    std::size_t nosimd = 0; //!< SPEC compiled without SIMD, SPEC order
};

/** Representative workload subset of the Table 7 sweeps. */
const char *const kTable7Subset[] = {"557.xz",      "538.imagick",
                                     "502.gcc",     "503.bwaves",
                                     "520.omnetpp", "Nginx"};
const double kDeadlines[] = {10.0, 20.0, 30.0, 40.0, 60.0, 120.0};
const double kFactors[] = {1.0, 4.0, 9.0, 14.0, 20.0};
const double kDeadlinesB[] = {30.0, 200.0, 700.0, 1500.0};

const char *const kStrategyWorkloads[] = {"557.xz",      "538.imagick",
                                          "502.gcc",     "527.cam4",
                                          "520.omnetpp", "Nginx"};
const core::StrategyKind kStrategies[] = {
    core::StrategyKind::Emulation, core::StrategyKind::Frequency,
    core::StrategyKind::CombinedFv, core::StrategyKind::Hybrid};
const char *const kThrashWorkloads[] = {"502.gcc", "527.cam4",
                                        "520.omnetpp"};
const double kThrashFactors[] = {1.0, 14.0};

/** Where each experiment's cells sit in the job list. */
struct Grid
{
    std::vector<SweepJob> jobs;
    std::vector<Table6Config> table6;
    /** [offset][configuration] */
    std::vector<std::vector<Table6Group>> groups;
    std::size_t table7 = 0; //!< 16 points x 6 subset workloads
    std::size_t strategies = 0;
    std::size_t thrash = 0;
    std::size_t imul = 0; //!< hardened, then trapped
};

/** Append one job per Table 7 subset workload. */
void
addSubset(std::vector<SweepJob> &jobs, const power::CpuModel &cpu,
          core::StrategyKind strategy, const core::StrategyParams &params)
{
    EvalConfig cfg = evalConfig(cpu, -97.0, strategy);
    cfg.params = params;
    for (const char *name : kTable7Subset)
        jobs.push_back({name, cfg, &trace::profileByName(name)});
}

/**
 * The counterfactual IMUL design of the ablation: a 3-cycle IMUL
 * stays faultable and joins the trap set.  In x264 IMUL recurs about
 * every 560 instructions; model it as a continuous event stream.
 */
WorkloadProfile
trappedImulProfile()
{
    WorkloadProfile p = trace::profileByName("525.x264");
    p.name = "525.x264 (IMUL trapped)";
    p.imulFraction = 0.0; // no hardening, no latency overhead
    p.bursts.meanBurstEvents = 1e9; // one endless burst
    p.bursts.meanWithinBurstGap = 560.0 * 10.0; // thinned 10:1
    p.eventWeight = 10.0;
    p.kindMix = {};
    p.kindMix[static_cast<std::size_t>(isa::FaultableKind::IMUL)] = 1.0;
    return p;
}

Grid
buildGrid(const Cpus &cpus, const WorkloadProfile &trapped)
{
    Grid g;
    g.table6 = {
        {"A1 fV", &cpus.a, 1, core::StrategyKind::CombinedFv},
        {"A4 fV", &cpus.a, 4, core::StrategyKind::CombinedFv},
        {"Ainf e", &cpus.a, 1, core::StrategyKind::Emulation},
        {"Binf f", &cpus.b, 1, core::StrategyKind::Frequency},
        {"Binf e", &cpus.b, 1, core::StrategyKind::Emulation},
        {"Cinf fV", &cpus.c, 1, core::StrategyKind::CombinedFv},
    };
    const auto &profiles = trace::allProfiles();
    for (const double offset : kOffsets) {
        auto &row = g.groups.emplace_back();
        for (const Table6Config &spec : g.table6) {
            EvalConfig cfg = evalConfig(*spec.cpu, offset, spec.strategy);
            cfg.cores = spec.cores;
            // SPECnoSIMD: every benchmark compiled without SIMD, no
            // trappable instructions left (paper Sec. 6.7).
            EvalConfig nosimd = cfg;
            nosimd.mode = sim::RunMode::NoSimdCompile;

            Table6Group group;
            group.all = g.jobs.size();
            for (const WorkloadProfile &p : profiles)
                g.jobs.push_back({spec.label, cfg, &p});
            group.nosimd = g.jobs.size();
            for (const WorkloadProfile &p : profiles)
                if (p.suite != trace::Suite::Network)
                    g.jobs.push_back({spec.label, nosimd, &p});
            row.push_back(group);
        }
    }

    // Table 7: the optimum, then the three parameter sweeps.
    const auto fv = core::StrategyKind::CombinedFv;
    const auto sweep = [&](const power::CpuModel &cpu,
                           core::StrategyKind strategy,
                           core::StrategyParams params,
                           double core::StrategyParams::*field,
                           const auto &values) {
        for (const double v : values) {
            params.*field = v;
            addSubset(g.jobs, cpu, strategy, params);
        }
    };
    g.table7 = g.jobs.size();
    addSubset(g.jobs, cpus.c, fv, core::fastSwitchParams());
    sweep(cpus.c, fv, core::fastSwitchParams(),
          &core::StrategyParams::deadlineUs, kDeadlines);
    sweep(cpus.c, fv, core::fastSwitchParams(),
          &core::StrategyParams::deadlineFactor, kFactors);
    sweep(cpus.b, core::StrategyKind::Frequency, core::slowSwitchParams(),
          &core::StrategyParams::deadlineUs, kDeadlinesB);

    // Ablation: strategies side by side, thrash prevention on/off,
    // IMUL hardened vs trapped (all on CPU C at -97 mV).
    g.strategies = g.jobs.size();
    for (const char *name : kStrategyWorkloads)
        for (const core::StrategyKind strategy : kStrategies)
            g.jobs.push_back({name, evalConfig(cpus.c, -97.0, strategy),
                              &trace::profileByName(name)});
    g.thrash = g.jobs.size();
    for (const char *name : kThrashWorkloads) {
        for (const double df : kThrashFactors) {
            EvalConfig cfg = evalConfig(cpus.c, -97.0);
            cfg.params.deadlineFactor = df;
            g.jobs.push_back({name, cfg, &trace::profileByName(name)});
        }
    }
    g.imul = g.jobs.size();
    g.jobs.push_back({"hardened", evalConfig(cpus.c, -97.0),
                      &trace::profileByName("525.x264")});
    g.jobs.push_back({"trapped", evalConfig(cpus.c, -97.0), &trapped});
    return g;
}

/** The SPEC rows of a group (SUIT or no-SIMD), in SPEC order. */
std::vector<WorkloadRow>
specRows(const std::vector<DomainResult> &results, const Table6Group &g,
         bool nosimd)
{
    std::vector<WorkloadRow> rows;
    std::size_t k = 0;
    const auto &profiles = trace::allProfiles();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        if (profiles[i].suite == trace::Suite::Network)
            continue;
        rows.push_back({profiles[i].name,
                        results[nosimd ? g.nosimd + k : g.all + i]});
        ++k;
    }
    return rows;
}

/** @p g's SUIT cell of @p workload. */
const DomainResult &
cell(const std::vector<DomainResult> &results, const Table6Group &g,
     const std::string &workload)
{
    // profileByName() returns an element of allProfiles().
    return results[g.all + static_cast<std::size_t>(
                               &trace::profileByName(workload) -
                               trace::allProfiles().data())];
}

void
printTable6(const Grid &g, const std::vector<DomainResult> &results)
{
    std::printf("\nSUIT reproduction — Table 6: efficiency and "
                "performance of SUIT\n");
    std::printf("(paper: ASPLOS'24, Juffinger et al., Sec. 6.3)\n");
    for (std::size_t o = 0; o < std::size(kOffsets); ++o) {
        std::printf("\n=== Table 6 — %g mV undervolt ===\n", kOffsets[o]);
        util::TablePrinter table({"CPU/OS", "Metric", "SPECgmean",
                                  "SPECmedian", "525.x264",
                                  "SPECnoSIMD", "Nginx", "VLC"});
        for (std::size_t s = 0; s < g.table6.size(); ++s) {
            const Table6Group &grp = g.groups[o][s];
            const SuiteSummary sum =
                SuiteSummary::of(specRows(results, grp, false));
            const SuiteSummary nosimd =
                SuiteSummary::of(specRows(results, grp, true));
            const DomainResult &x264 = cell(results, grp, "525.x264");
            const DomainResult &nginx = cell(results, grp, "Nginx");
            const DomainResult &vlc = cell(results, grp, "VLC");

            const auto row = [&](const char *who, const char *metric,
                                 double gmean, double median,
                                 double (DomainResult::*delta)() const,
                                 double nosimd_gmean) {
                table.addRow({who, metric, pct(gmean), pct(median),
                              pct((x264.*delta)()), pct(nosimd_gmean),
                              pct((nginx.*delta)()), pct((vlc.*delta)())});
            };
            row(g.table6[s].label, "Pwr", sum.gmeanPower, sum.medianPower,
                &DomainResult::powerDelta, nosimd.gmeanPower);
            row("", "Perf", sum.gmeanPerf, sum.medianPerf,
                &DomainResult::perfDelta, nosimd.gmeanPerf);
            row("", "Eff", sum.gmeanEff, sum.medianEff,
                &DomainResult::efficiencyDelta, nosimd.gmeanEff);
            table.addRow({"", "onE",
                          util::sformat("%.1f%%",
                                        100.0 * sum.meanEfficientShare),
                          "", "", "", "", ""});
            table.addSeparator();
        }
        table.print();
    }
}

/** Mean efficiency of Table 7 point @p point over its subset. */
double
meanEff(const Grid &g, const std::vector<DomainResult> &results,
        std::size_t point)
{
    const std::size_t n = std::size(kTable7Subset);
    double sum = 0.0;
    for (std::size_t w = 0; w < n; ++w)
        sum += results[g.table7 + point * n + w].efficiencyDelta();
    return sum / static_cast<double>(n);
}

// Table 7 point indices: the optimum, then each sweep in order.
constexpr std::size_t kDeadlinePoint = 1;
constexpr std::size_t kFactorPoint = kDeadlinePoint + std::size(kDeadlines);
constexpr std::size_t kDeadlineBPoint = kFactorPoint + std::size(kFactors);

void
printTable7(const Grid &g, const std::vector<DomainResult> &results)
{
    std::printf("\nSUIT reproduction — Table 7: optimal fV-strategy "
                "parameters\n\n");
    util::TablePrinter t({"CPU", "p_dl", "p_ts", "p_ec", "p_df"});
    const core::StrategyParams fast = core::fastSwitchParams();
    const core::StrategyParams slow = core::slowSwitchParams();
    t.addRow({"A & C", util::sformat("%.0f us", fast.deadlineUs),
              util::sformat("%.0f us", fast.timeSpanUs),
              util::sformat("%d", fast.maxExceptionCount),
              util::sformat("%.0f", fast.deadlineFactor)});
    t.addRow({"B", util::sformat("%.0f us", slow.deadlineUs),
              util::sformat("%.0f ms", slow.timeSpanUs / 1000.0),
              util::sformat("%d", slow.maxExceptionCount),
              util::sformat("%.0f", slow.deadlineFactor)});
    t.print();

    std::printf("\nDeadline sweep on CPU C (fV, -97 mV, mean "
                "efficiency over a 6-workload subset):\n");
    util::TablePrinter sweep({"p_dl", "mean eff", "vs optimum"});
    const double base = meanEff(g, results, 0);
    for (std::size_t i = 0; i < std::size(kDeadlines); ++i) {
        const double dl = kDeadlines[i];
        const double eff = meanEff(g, results, kDeadlinePoint + i);
        sweep.addRow({util::sformat("%.0f us%s", dl,
                                    dl == 30.0 ? " (Table 7)" : ""),
                      util::sformat("%+.2f%%", 100 * eff),
                      util::sformat("%+.2f pp", 100 * (eff - base))});
    }
    sweep.print();

    const auto mean_sweep = [&](const char *param, const char *unit,
                                const auto &values, double table7,
                                std::size_t first) {
        util::TablePrinter means({param, "mean eff"});
        for (std::size_t i = 0; i < std::size(values); ++i)
            means.addRow(
                {util::sformat("%.0f%s%s", values[i], unit,
                               values[i] == table7 ? " (Table 7)" : ""),
                 util::sformat("%+.2f%%",
                               100 * meanEff(g, results, first + i))});
        means.print();
    };
    std::printf("\nDeadline-factor sweep on CPU C:\n");
    mean_sweep("p_df", "", kFactors, 14.0, kFactorPoint);
    std::printf("\nDeadline sweep on CPU B (f strategy, 668 us "
                "switches need a much longer deadline):\n");
    mean_sweep("p_dl", " us", kDeadlinesB, 700.0, kDeadlineBPoint);
}

/** Table 8: benchmarks where no-SIMD compilation beats SUIT. */
int
nosimdWins(const std::vector<DomainResult> &results, const Table6Group &g)
{
    const std::vector<WorkloadRow> suit = specRows(results, g, false);
    const std::vector<WorkloadRow> nosimd = specRows(results, g, true);
    int wins = 0;
    for (std::size_t p = 0; p < suit.size(); ++p)
        if (nosimd[p].result.perfDelta() > suit[p].result.perfDelta())
            ++wins;
    return wins;
}

/** 508.namd on C at -97 mV: {SUIT, no-SIMD} efficiency. */
std::pair<double, double>
namdEff(const Grid &g, const std::vector<DomainResult> &results)
{
    const Table6Group &c97 = g.groups[kAt97].back();
    const std::vector<WorkloadRow> nosimd = specRows(results, c97, true);
    const auto it = std::find_if(
        nosimd.begin(), nosimd.end(),
        [](const WorkloadRow &r) { return r.workload == "508.namd"; });
    SUIT_ASSERT(it != nosimd.end(), "508.namd missing from SPEC");
    return {cell(results, c97, "508.namd").efficiencyDelta(),
            it->result.efficiencyDelta()};
}

void
printTable8(const Grid &g, const std::vector<DomainResult> &results)
{
    std::printf("\nSUIT reproduction — Table 8: no-SIMD compilation vs "
                "SUIT traps (-97 mV, 23 SPEC benchmarks)\n\n");
    util::TablePrinter t({"Config", "No SIMD wins", "SUIT wins"});
    for (std::size_t s = 0; s < g.table6.size(); ++s) {
        const Table6Group &grp = g.groups[kAt97][s];
        const int wins = nosimdWins(results, grp);
        const int total =
            static_cast<int>(specRows(results, grp, false).size());
        t.addRow({g.table6[s].label, util::sformat("%d", wins),
                  util::sformat("%d", total - wins)});
    }
    t.print();

    const auto [suit_eff, nosimd_eff] = namdEff(g, results);
    std::printf("\nWorst case for recompilation (paper: 508.namd "
                "loses ~20 pp when compiled without SIMD):\n");
    std::printf("  508.namd on C: SUIT eff %+.1f%%, no-SIMD eff "
                "%+.1f%%\n",
                100 * suit_eff, 100 * nosimd_eff);
}

void
printFig16(const Grid &g, const std::vector<DomainResult> &results)
{
    std::printf("\nSUIT reproduction — Fig. 16: per-benchmark impact "
                "on CPU C (fV strategy)\n\n");
    util::TablePrinter t({"Benchmark", "Perf -70", "Eff -70",
                          "Perf -97", "Eff -97", "onE -97"});
    const auto &profiles = trace::allProfiles();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const DomainResult &r70 = results[g.groups[0].back().all + i];
        const DomainResult &r97 = results[g.groups[kAt97].back().all + i];
        t.addRow({profiles[i].name,
                  util::sformat("%+.2f%%", 100 * r70.perfDelta()),
                  util::sformat("%+.1f%%", 100 * r70.efficiencyDelta()),
                  util::sformat("%+.2f%%", 100 * r97.perfDelta()),
                  util::sformat("%+.1f%%", 100 * r97.efficiencyDelta()),
                  util::sformat("%.1f%%", 100 * r97.efficientShare)});
    }
    t.print();

    const SuiteSummary sum =
        SuiteSummary::of(specRows(results, g.groups[kAt97].back(), false));
    std::printf("\nSPEC aggregate at -97 mV: perf gmean %+.2f%%, eff "
                "gmean %+.1f%%, eff median %+.1f%%\n",
                100 * sum.gmeanPerf, 100 * sum.gmeanEff,
                100 * sum.medianEff);
}

void
printAblation(const Grid &g, const std::vector<DomainResult> &results)
{
    std::printf("\nSUIT reproduction — ablation of design choices\n\n");
    std::printf("A. Operating strategies (CPU C, -97 mV, efficiency "
                "delta)\n\n");
    util::TablePrinter a({"Workload", "e", "f", "fV", "e+fV (hybrid)"});
    for (std::size_t w = 0; w < std::size(kStrategyWorkloads); ++w) {
        std::vector<std::string> row = {kStrategyWorkloads[w]};
        for (std::size_t s = 0; s < std::size(kStrategies); ++s)
            row.push_back(util::sformat(
                "%+.1f%%",
                100 * results[g.strategies + w * std::size(kStrategies) +
                              s]
                          .efficiencyDelta()));
        a.addRow(row);
    }
    a.print();

    std::printf("\nB. Thrashing prevention (fV on CPU C, -97 mV)\n\n");
    util::TablePrinter b({"Workload", "Metric", "p_df = 1 (off)",
                          "p_df = 14 (Table 7)"});
    for (std::size_t w = 0; w < std::size(kThrashWorkloads); ++w) {
        const DomainResult *r =
            &results[g.thrash + w * std::size(kThrashFactors)];
        b.addRow({kThrashWorkloads[w], "eff",
                  util::sformat("%+.2f%%", 100 * r[0].efficiencyDelta()),
                  util::sformat("%+.2f%%", 100 * r[1].efficiencyDelta())});
        b.addRow({"", "perf",
                  util::sformat("%+.2f%%", 100 * r[0].perfDelta()),
                  util::sformat("%+.2f%%", 100 * r[1].perfDelta())});
        b.addRow({"", "switches",
                  util::sformat("%llu", static_cast<unsigned long long>(
                                            r[0].pstateSwitches)),
                  util::sformat("%llu", static_cast<unsigned long long>(
                                            r[1].pstateSwitches))});
        b.addSeparator();
    }
    b.print();

    std::printf("\nC. IMUL: static hardening vs trapping (x264-like "
                "workload, CPU C, -97 mV)\n\n");
    util::TablePrinter c({"Design", "Perf", "Power", "Eff", "onE",
                          "traps"});
    const auto row = [&](const char *label, const DomainResult &r) {
        c.addRow({label, util::sformat("%+.2f%%", 100 * r.perfDelta()),
                  util::sformat("%+.2f%%", 100 * r.powerDelta()),
                  util::sformat("%+.2f%%", 100 * r.efficiencyDelta()),
                  util::sformat("%.1f%%", 100 * r.efficientShare),
                  util::sformat("%llu", static_cast<unsigned long long>(
                                            r.traps))});
    };
    row("4-cycle IMUL (SUIT)", results[g.imul]);
    row("3-cycle IMUL, trapped", results[g.imul + 1]);
    c.print();
    std::printf("\nThe one-cycle IMUL latency increase costs ~%.1f%% "
                "on x264 instead.\n",
                100 * trace::imulLatencyOverhead(0.0099));
}

// ------------------------------------------------------------------
// Scheduling ablation (Sec. 7 outlook): two sockets of CPU A, one
// shared DVFS domain of 4 cores each, and eight tasks, four quiet and
// four bursty.  Round-robin placement mixes them, so bursty tenants
// drag every socket off the efficient curve; SUIT-aware placement
// segregates them.

/** SUIT-aware minus round-robin placement efficiency (pp). */
double
scheduling(runtime::Session &session)
{
    std::printf("\nSUIT reproduction — ablation: SUIT-aware scheduling on "
                "shared-domain sockets (2 x CPU A, 4 cores)\n\n");
    const power::CpuModel cpu = power::cpuA_i9_9900k();

    // Server tenants run continuously, so every task is normalised to
    // the same stream length; otherwise short bursty tasks finish
    // early and hand their socket back.
    std::vector<WorkloadProfile> owned;
    for (const char *name : {"557.xz", "523.xalancbmk", "505.mcf",
                             "549.fotonik3d", "527.cam4", "520.omnetpp",
                             "Nginx", "544.nab"}) {
        WorkloadProfile p = trace::profileByName(name);
        p.totalInstructions = 8'000'000'000ULL;
        owned.push_back(std::move(p));
    }
    std::vector<const WorkloadProfile *> tasks;
    for (const WorkloadProfile &p : owned)
        tasks.push_back(&p);

    std::printf("Task disturbance metrics:\n");
    for (const WorkloadProfile *t : tasks)
        std::printf("  %-15s off-curve share %5.1f%%  (%6.0f bursts/s)\n",
                    t->name.c_str(), 100 * core::offCurveShare(*t),
                    core::burstRatePerSecond(*t));
    std::printf("\n");

    // Every non-empty socket of both placements is an independent
    // domain: one job each.
    const core::Placement placements[] = {
        core::placeRoundRobin(tasks.size(), 2, 4),
        core::placeSuitAware(tasks, 2, 4)};
    std::vector<std::pair<std::size_t, const std::vector<std::size_t> *>>
        sockets;
    for (std::size_t p = 0; p < std::size(placements); ++p)
        for (const std::vector<std::size_t> &socket : placements[p])
            if (!socket.empty())
                sockets.push_back({p, &socket});
    std::vector<DomainResult> results(sockets.size());
    const trace::TraceGenerator gen(17);
    parallel(session, sockets.size(), [&](std::size_t s) {
        const std::vector<std::size_t> &socket = *sockets[s].second;
        std::vector<trace::Trace> traces;
        traces.reserve(socket.size());
        for (const std::size_t task : socket)
            traces.push_back(
                gen.generate(*tasks[task], static_cast<int>(task)));
        std::vector<sim::CoreWork> work;
        for (std::size_t i = 0; i < socket.size(); ++i)
            work.push_back({&traces[i], tasks[socket[i]]});
        sim::SimConfig cfg;
        cfg.cpu = &cpu;
        cfg.offsetMv = -97.0;
        cfg.strategy = core::StrategyKind::CombinedFv;
        cfg.params = core::optimalParams(cpu);
        results[s] = sim::DomainSimulator(cfg, std::move(work)).run();
    });

    util::TablePrinter t({"Placement", "Perf", "Power", "Eff", "socket onE"});
    const char *const names[] = {"round-robin (naive)",
                                 "SUIT-aware (segregated)"};
    double eff[std::size(placements)];
    for (std::size_t p = 0; p < std::size(placements); ++p) {
        double perf = 0.0, power = 0.0;
        std::size_t n_tasks = 0, n_sockets = 0;
        std::string shares;
        for (std::size_t s = 0; s < sockets.size(); ++s) {
            if (sockets[s].first != p)
                continue;
            for (const auto &c : results[s].cores)
                perf += c.perfDelta();
            n_tasks += results[s].cores.size();
            power += results[s].powerFactor;
            ++n_sockets;
            shares +=
                util::sformat("%.0f%% ", 100 * results[s].efficientShare);
        }
        perf /= static_cast<double>(n_tasks);
        power = power / static_cast<double>(n_sockets) - 1.0;
        eff[p] = (1.0 + perf) / (1.0 + power) - 1.0;
        t.addRow({names[p], util::sformat("%+.2f%%", 100 * perf),
                  util::sformat("%+.2f%%", 100 * power),
                  util::sformat("%+.2f%%", 100 * eff[p]), shares});
    }
    t.print();
    return 100 * (eff[1] - eff[0]);
}

// ------------------------------------------------------------------
// Sec. 6.9: a Plundervolt-style attack on AESENC and IMUL, on a
// baseline i9 and on a SUIT i9 with the 4-cycle IMUL, plus the margin
// bookkeeping behind the reductionist argument.

/** The Sec. 6.9 attack targets, and the undervolt used against each. */
constexpr std::pair<isa::FaultableKind, double> kAttacks[] = {
    {isa::FaultableKind::AESENC, 180.0}, {isa::FaultableKind::IMUL, 115.0}};

/** The one operating point of the campaigns and the margin table. */
constexpr double kSec69FreqHz = 4.5e9;

struct Sec69
{
    /** Campaigns against kAttacks, without and with SUIT. */
    faults::AttackResult base[std::size(kAttacks)], suit[std::size(kAttacks)];
    /** Crash voltage minus the hardened IMUL's Vmin (mV). */
    double hardenedBelowCrash;
    /** The -97 mV point minus the stock IMUL's Vmin (mV). */
    double stockImulMargin;
};

Sec69
sec69()
{
    std::printf("\nSUIT reproduction — Sec. 6.9: security analysis\n\n");
    const power::DvfsCurve curve = power::i9_9900kCurve();
    faults::VminConfig chip;
    chip.curve = &curve;
    chip.cores = 4;
    const faults::VminModel baseline(chip);
    chip.hardenedImul = true; // the 4-cycle IMUL (Sec. 4.2)
    const faults::VminModel suit_chip(chip);

    std::printf("Attack campaigns (5000 victim invocations, DFA "
                "needs 4 faulty outputs):\n\n");
    util::TablePrinter t({"Target", "System", "Undervolt", "Faulty",
                          "Traps", "Key recovery"});
    Sec69 s{};
    for (std::size_t i = 0; i < std::size(kAttacks); ++i) {
        faults::AttackConfig cfg;
        std::tie(cfg.target, cfg.undervoltMv) = kAttacks[i];
        cfg.freqHz = kSec69FreqHz;
        s.base[i] = faults::attackBaseline(baseline, cfg);
        s.suit[i] = faults::attackWithSuit(suit_chip, cfg);
        for (const auto &[sys, r] : {std::pair{"baseline", &s.base[i]},
                                     std::pair{"SUIT", &s.suit[i]}})
            t.addRow({isa::toString(cfg.target), sys,
                      util::sformat("-%.0f mV", cfg.undervoltMv),
                      std::to_string(r->faultyResults),
                      std::to_string(r->traps),
                      r->keyRecoveryFeasible ? "FEASIBLE" : "no"});
        t.addSeparator();
    }
    t.print();

    std::printf("\nMargin bookkeeping (the reductionist argument):\n");
    const double nominal = curve.voltageAtMv(kSec69FreqHz);
    const double efficient = nominal - faults::kEfficientOffsetMv;
    const auto vmin = [](const faults::VminModel &m, isa::FaultableKind k) {
        return m.vminMv(0, k, kSec69FreqHz);
    };
    const double stock = vmin(baseline, isa::FaultableKind::IMUL);
    const double hardened = vmin(suit_chip, isa::FaultableKind::IMUL);
    util::TablePrinter m({"Quantity", "Voltage / margin"});
    const auto row = [&](const std::string &label, double mv) {
        m.addRow({label, util::sformat("%.0f mV", mv)});
    };
    row(util::sformat("Vendor operating point (%.1f GHz)",
                      kSec69FreqHz / 1e9),
        nominal);
    row("SUIT efficient point (-97 mV)", efficient);
    row("Shallowest SIMD Vmin (VOR, core 0)",
        vmin(baseline, isa::FaultableKind::VOR));
    row("Stock IMUL Vmin (why it must be hardened)", stock);
    row("Hardened (4-cycle) IMUL Vmin", hardened);
    m.print();

    std::printf(
        "\nConclusion: on the efficient curve every member of the "
        "trap set is disabled (executing one\ntraps and re-executes "
        "at the vendor-validated conservative point), the hardened "
        "IMUL's Vmin\nsits below the crash voltage, and the remaining "
        "instructions keep the exact margins the\nvendor validates "
        "today — SUIT's security reduces to the security of current "
        "CPUs.\n");
    s.hardenedBelowCrash =
        suit_chip.crashVoltageMv(0, kSec69FreqHz) - hardened;
    s.stockImulMargin = efficient - stock;
    return s;
}

// ------------------------------------------------------------------
// The claims.

/** Paper value +-25 %: the bound of an approximate magnitude. */
std::pair<double, double>
about(double paper)
{
    return std::minmax({0.75 * paper, 1.25 * paper});
}

/** Paper value +-5 pp: the bound of a time share (in %). */
std::pair<double, double>
share(double paper_pct)
{
    return {paper_pct - 5.0, paper_pct + 5.0};
}

/**
 * Paper value +- half a unit of its last printed digit @p digit: the
 * bound of a value the model encodes as an input.
 */
std::pair<double, double>
printed(double paper, double digit)
{
    return {paper - digit / 2, paper + digit / 2};
}

enum class Expect
{
    Holds,
    Deviation, //!< a known gap: the model misses the bound
};

/** One row of the claims table. */
struct Claim
{
    const char *id;
    const char *section;
    /** The paper's value or wording. */
    const char *paper;
    /** Inclusive bound on the model value. */
    std::pair<double, double> bound;
    const char *unit;
    double model;
    Expect expect;
    /** Basis of the bound; for a deviation, why the model misses. */
    const char *reason;

    bool holds() const
    {
        return bound.first <= model && model <= bound.second;
    }

    const char *verdict() const
    {
        if (expect == Expect::Deviation)
            return holds() ? "stale_deviation" : "expected_deviation";
        return holds() ? "pass" : "fail";
    }

    bool failsRun() const { return holds() == (expect == Expect::Deviation); }
};

// Table 6 configuration indices (Grid::table6 order).
constexpr std::size_t kA1 = 0, kA4 = 1, kAe = 2, kBf = 3, kBe = 4, kC = 5;

/** Table 1: IMUL's @p value minus the largest other kind's. */
template <typename Value>
double
imulLead(Value value)
{
    double others = -kInf;
    for (const auto kind : isa::allFaultableKinds())
        if (kind != isa::FaultableKind::IMUL)
            others = std::max(others, value(kind));
    return value(isa::FaultableKind::IMUL) - others;
}

/** Table 1: share (%) of all faults on the rare faulters. */
template <typename Count>
double
rareShare(Count count)
{
    double rare = 0.0, all = 0.0;
    for (const auto kind : isa::allFaultableKinds())
        all += count(kind);
    for (const auto kind : {isa::FaultableKind::VPCMP,
                            isa::FaultableKind::VPMAX,
                            isa::FaultableKind::VPADDQ})
        rare += count(kind);
    return 100.0 * rare / all;
}

/**
 * Table 1: share (%) of the paper's strictly ordered kind pairs that
 * the model orders strictly the same way.
 */
double
orderAgreement(const faults::CharacterizationResult &r)
{
    int pairs = 0, agree = 0;
    for (const auto x : isa::allFaultableKinds()) {
        for (const auto y : isa::allFaultableKinds()) {
            if (isa::publishedFaultCount(x) > isa::publishedFaultCount(y)) {
                ++pairs;
                agree += r.faultCounts[static_cast<std::size_t>(x)] >
                         r.faultCounts[static_cast<std::size_t>(y)];
            }
        }
    }
    return 100.0 * agree / pairs;
}

/** What makeClaims checks besides the sweep: one member per experiment. */
struct Experiments
{
    faults::CharacterizationResult t1;
    Table2 t2;
    Table3 t3;
    Table4 t4;
    Fig2 f2;
    double f5ReturnsToE;
    Fig6 f6;
    double f7MaxGap;
    Fig8to11 f8;
    double f12PowerW;
    Fig13 f13;
    Sec53 s53;
    Fig14 f14;
    Sec4 s4;
    double schedGainPp;
    Sec69 s69;
};

std::vector<Claim>
makeClaims(const Experiments &x, const Grid &g,
           const std::vector<DomainResult> &results)
{
    const faults::CharacterizationResult &t1 = x.t1;
    const Fig14 &f14 = x.f14;
    const auto count = [&](isa::FaultableKind k) {
        return static_cast<double>(
            t1.faultCounts[static_cast<std::size_t>(k)]);
    };
    const auto shallowness = [&](isa::FaultableKind k) {
        const double mv = t1.firstFaultMv[static_cast<std::size_t>(k)];
        return mv > 0 ? -mv : -kInf; // never faulted: infinitely deep
    };
    const double paper_rare = rareShare([](isa::FaultableKind k) {
        return isa::publishedFaultCount(k);
    });

    const auto spec = [&](std::size_t offset, std::size_t config) {
        return SuiteSummary::of(
            specRows(results, g.groups[offset][config], false));
    };
    const SuiteSummary c97 = spec(kAt97, kC), c70 = spec(0, kC);
    const SuiteSummary a1 = spec(kAt97, kA1), a4 = spec(kAt97, kA4);
    const SuiteSummary ae = spec(kAt97, kAe), be = spec(kAt97, kBe);
    const SuiteSummary bf = spec(kAt97, kBf);
    const auto emu_perf = [&](const char *workload) {
        return 100 * cell(results, g.groups[kAt97][kAe], workload)
                         .perfDelta();
    };
    const auto wins = [&](std::size_t config) {
        return static_cast<double>(
            nosimdWins(results, g.groups[kAt97][config]));
    };
    const auto [namd_suit, namd_nosimd] = namdEff(g, results);
    // Fig. 14: x264's per-cycle slope over 15..30 relative to 6..15.
    const std::vector<double> &x264 = f14.x264; // latencies 3,4,5,6,15,30
    const double linearity =
        ((x264[5] - x264[4]) / 15.0) / ((x264[4] - x264[3]) / 9.0);

    const auto t7 = [&](std::size_t point) {
        return 100 * meanEff(g, results, point);
    };
    // kDeadlines[2] and kDeadlinesB[2] are Table 7's 30 and 700 us.
    const std::size_t dl30 = kDeadlinePoint + 2;
    const double flat = std::max(std::abs(t7(dl30 - 1) - t7(dl30)),
                                 std::abs(t7(dl30 + 1) - t7(dl30)));
    const double b700 = t7(kDeadlineBPoint + 2) - t7(kDeadlineBPoint);

    double switches_saved = kInf;
    for (std::size_t w = 0; w < std::size(kThrashWorkloads); ++w) {
        const std::size_t i = g.thrash + w * std::size(kThrashFactors);
        switches_saved =
            std::min(switches_saved,
                     static_cast<double>(results[i].pstateSwitches) -
                         static_cast<double>(results[i + 1].pstateSwitches));
    }

    const std::size_t lat4 = 1; // kImulLatencies[1], SUIT's 4 cycles
    const Expect ok = Expect::Holds, gap = Expect::Deviation;
    const char *boundary = "the win/lose boundary sits where per-benchmark "
                           "perf deltas are fractions of a percent";
    const char *tab4_mean = "unlisted benchmarks sit near the suite mean, so "
                            "the listed outliers pull the geomean past it";
    const char *sampled = "encoded input, sampled 5000 times; about";
    const double dfa = faults::AttackConfig{}.dfaThreshold;
    const auto faulty = [](const faults::AttackResult &r) {
        return static_cast<double>(r.faultyResults);
    };
    return {
        {"tab1.imul_faults_first", "Tab. 1", "IMUL first", {1, kInf},
         "mV", imulLead(shallowness), ok,
         "IMUL's first fault is shallower than every other kind's"},
        {"tab1.imul_faults_most", "Tab. 1", "79, most", {1, kInf},
         "faults", imulLead(count), ok,
         "IMUL's fault count exceeds every other kind's"},
        {"tab1.fault_order", "Tab. 1", "ordering", {100, 100}, "%",
         orderAgreement(t1), gap,
         "neighbouring SIMD counts tie or swap (VOR, VANDN, AESENC; "
         "VAND, VSQRTPD; VPCMP, VPMAX)"},
        {"tab1.rare_tail", "Tab. 1", "2.8 %", about(paper_rare), "%",
         rareShare(count), gap,
         "fatter tail: the early-crash jitter is a coarse stand-in for "
         "power-delivery instability"},

        {"tab2.i9_97.score", "Tab. 2", "+3.8 %", printed(3.8, 0.1), "%",
         x.t2.i9Score, ok, "encoded input"},
        {"tab2.i9_97.power", "Tab. 2", "-16 %", printed(-16, 1), "%",
         x.t2.i9Power, ok, "encoded input"},
        {"tab2.i9_97.eff", "Tab. 2", "+23 %", about(23.0), "%", x.t2.i9Eff,
         ok, "derived from the encoded score and power; about: +-25 %"},
        {"tab2.i5_97.freq", "Tab. 2", "+12 %", printed(12, 1), "%",
         x.t2.i5Freq, ok, "encoded input"},

        {"tab3.max_off_50c", "Tab. 3 / 5.7", "-90 mV", printed(-90, 1), "mV",
         x.t3.cool, ok, "encoded input"},
        {"tab3.max_off_88c", "Tab. 3 / 5.7", "-55 mV", printed(-55, 1), "mV",
         x.t3.hot, ok, "encoded input"},
        {"tab3.temp_band", "Tab. 3 / 5.7", "35 mV", printed(35, 1), "mV",
         x.t3.band, ok, "encoded input"},
        {"tab3.temp_band_share", "Tab. 3 / 5.7", "3.5 % of 991 mV",
         printed(3.5, 0.1), "%", x.t3.share, ok,
         "encoded inputs: the 35 mV band over the 4 GHz supply"},

        {"tab4.i9.fprate", "Tab. 4", "-4.1 %", about(-4.1), "%", x.t4.fprate,
         gap, tab4_mean},
        {"tab4.i9.intrate", "Tab. 4", "+0.5 %", about(0.5), "%",
         x.t4.intrate, gap, tab4_mean},
        {"tab4.i9.508_namd", "Tab. 4", "-22 %", printed(-22, 1), "%",
         x.t4.namd, ok, "encoded input"},
        {"tab4.i9.538_imagick", "Tab. 4", "-12 %", printed(-12, 1), "%",
         x.t4.imagick, ok, "encoded input"},
        {"tab4.i9.525_x264", "Tab. 4", "+7.0 %", printed(7.0, 0.1), "%",
         x.t4.x264, ok, "encoded input"},
        {"tab4.i9.548_exchange2", "Tab. 4", "+7.7 %", printed(7.7, 0.1), "%",
         x.t4.exchange2, ok, "encoded input"},

        {"fig2.aging_band", "Fig. 2 / 5.6", "137 mV", printed(137, 1), "mV",
         x.f2.aging, ok,
         "encoded inputs: 15 % delay degradation on the Fig. 13 curve"},
        {"fig2.aging_share", "Fig. 2 / 5.6", "12 %", printed(12, 1), "%",
         x.f2.agingShare, ok,
         "encoded inputs: the aging band over the 5 GHz supply"},
        {"fig2.temp_band", "Fig. 2 / 5.7", "35 mV", printed(35, 1), "mV",
         x.f2.temperature, ok, "encoded input"},
        {"fig2.offset_no_aging", "Fig. 2 / 3.1", "-70 mV", printed(-70, 1),
         "mV", x.f2.offset0, ok,
         "encoded input: the instruction-variation band alone"},
        {"fig2.offset_20pct_aging", "Fig. 2 / 3.1", "-97 mV",
         printed(-97, 1), "mV", x.f2.offset20, ok,
         "encoded inputs: the variation band plus 20 % of the aging band"},

        {"fig5.returns_to_e", "Fig. 5", "back to E", {1, kInf}, "switches",
         x.f5ReturnsToE, ok,
         "the deadline returns the domain to the efficient curve"},
        {"fig6.trap_to_cf", "Fig. 6", "~31 us", about(31.0), "us",
         x.f6.toCf, ok, "encoded Xeon delay via the fV strategy; about"},
        {"fig6.trap_to_cv", "Fig. 6", "~335 us", about(335.0), "us",
         x.f6.toCv, ok, "encoded Xeon delay via the fV strategy; about"},
        {"fig6.sequence", "Fig. 6", "trap, Cf, CV, E", {4, 4}, "steps",
         x.f6.steps, ok, "the logged steps follow the figure's order"},
        {"fig7.largest_gap", "Fig. 7 / 5.1", ">= 1e7 instr.", {7, kInf},
         "log10", std::log10(x.f7MaxGap), ok,
         "burst boundaries reach 1e7+ instructions"},

        {"fig8.i9_voltage", "Fig. 8 / 5.2", "~350 us", about(350.0), "us",
         x.f8.i9Volt, ok, sampled},
        {"fig9.i9_freq", "Fig. 9 / 5.2", "~22 us", about(22.0), "us",
         x.f8.i9Freq, ok, sampled},
        {"fig10.amd_freq", "Fig. 10 / 5.2", "~668 us", about(668.0), "us",
         x.f8.amdFreq, ok, sampled},
        {"fig11.xeon_voltage", "Fig. 11 / 5.2", "~335 us", about(335.0), "us",
         x.f8.xeonVolt, ok, sampled},
        {"fig11.xeon_freq", "Fig. 11 / 5.2", "~31 us", about(31.0), "us",
         x.f8.xeonFreq, ok, sampled},
        {"fig11.xeon_stall", "Fig. 11 / 5.2", "~27 us", about(27.0), "us",
         x.f8.xeonStall, ok, sampled},
        {"fig12.power_97mv", "Fig. 12", "~77 W", about(77.0), "W",
         x.f12PowerW, ok, "encoded inputs: 93 W at Table 2's -16 %; about"},
        {"fig13.v_4ghz", "Fig. 13", "991 mV", printed(991, 1), "mV",
         x.f13.v4, ok, "encoded input"},
        {"fig13.v_5ghz", "Fig. 13", "1174 mV", printed(1174, 1), "mV",
         x.f13.v5, ok, "encoded input"},
        {"fig13.gradient", "Fig. 13 / 5.6", "183 mV/GHz", printed(183, 1),
         "mV/GHz", x.f13.gradient, ok, "encoded input"},
        {"fig13.imul_slack_5ghz", "Fig. 13 / 6.9", "220 mV", printed(220, 1),
         "mV", x.f13.imulSlack, ok, "encoded input"},

        {"sec53.i9_exception", "Sec. 5.3", "0.34 us", printed(0.34, 0.01),
         "us", x.s53.i9Exception, ok, "encoded input"},
        {"sec53.i9_emulation_call", "Sec. 5.3", "0.77 us",
         printed(0.77, 0.01), "us", x.s53.i9Call, ok, "encoded input"},
        {"sec53.amd_exception", "Sec. 5.3", "0.11 us", printed(0.11, 0.01),
         "us", x.s53.amdException, ok, "encoded input"},
        {"sec53.amd_emulation_call", "Sec. 5.3", "0.27 us",
         printed(0.27, 0.01), "us", x.s53.amdCall, ok, "encoded input"},

        {"fig14.imul4_geomean", "Fig. 14 / 6.1", "0.03 %", about(0.03),
         "%", 100 * f14.geomean[lat4], gap,
         "two of the eight synthetic mixes are multiply chains"},
        {"fig14.imul4_x264", "Fig. 14 / 6.1", "1.60 %", about(1.60), "%",
         100 * x264[lat4], gap,
         "the synthetic x264 mix runs at IPC 1.26 against gem5's ~2.3"},
        {"fig14.linear_from_6", "Fig. 14 / 6.1", "near-linear",
         about(1.0), "ratio", linearity, ok,
         "x264 slope per cycle over 15..30 vs 6..15, about 1"},

        {"tab6.cinf_fv.eff_gmean", "Tab. 6 / 6.3", "+11 %", about(11.0),
         "%", 100 * c97.gmeanEff, ok, "about: +-25 % of the paper value"},
        {"tab6.cinf_fv.perf_gmean", "Tab. 6 / 6.3", "~0", {-1, 1}, "%",
         100 * c97.gmeanPerf, ok, "negligible: within 1 %"},
        {"tab6.cinf_fv.time_on_e", "Tab. 6 / 6.3", "72.7 %", share(72.7),
         "%", 100 * c97.meanEfficientShare, gap,
         "the model spends more time on the conservative curve; cause "
         "not isolated"},
        {"tab6.a4_over_a1.eff", "Tab. 6 / 6.3", "about half", about(0.5),
         "ratio", a4.gmeanEff / a1.gmeanEff, ok,
         "a shared domain halves the gain"},
        {"tab6.ainf_e.nginx_perf", "Tab. 6 / 6.3", "-98 %", about(-98.0),
         "%", emu_perf("Nginx"), ok, "emulation is catastrophic for AES"},
        {"tab6.ainf_e.vlc_perf", "Tab. 6 / 6.3", "-92 %", about(-92.0),
         "%", emu_perf("VLC"), ok, "emulation is catastrophic for AES"},
        {"tab6.ainf_e.eff_gmean", "Tab. 6 / 6.3", "-34 %", {-kInf, 0}, "%",
         100 * ae.gmeanEff, ok, "emulation: negative SPEC gmean"},
        {"tab6.ainf_e.eff_median", "Tab. 6 / 6.3", "+0.6 %", {-1, kInf},
         "%", 100 * ae.medianEff, ok,
         "emulation: SPEC median near or above 0"},
        {"tab6.binf_e.eff_gmean", "Tab. 6 / 6.3", "-14 %", {-kInf, 0}, "%",
         100 * be.gmeanEff, ok, "emulation: negative SPEC gmean"},
        {"tab6.binf_e.eff_median", "Tab. 6 / 6.3", "+9.3 %", {-1, kInf},
         "%", 100 * be.medianEff, ok,
         "emulation: SPEC median near or above 0"},
        {"tab6.binf_f.over_cinf_fv", "Tab. 6 / 6.3", "barely (1.4/11)",
         {0, 0.5}, "ratio", bf.gmeanEff / c97.gmeanEff, ok,
         "B barely profits: a gain under half of C's"},
        {"tab6.cinf_fv.70_over_97", "Tab. 6 / 6.3", "about half",
         about(0.5), "ratio", c70.gmeanEff / c97.gmeanEff, gap,
         "power falls about half as much at -70 mV, but the model loses "
         "more SPEC performance there"},

        {"tab7.deadline_flat_10us", "Tab. 7 / 6.4", "~0.6 pp",
         {0, about(0.6).second}, "pp", flat, gap,
         "-10 us matches, but the model's subset efficiency keeps "
         "rising up to 60 us"},
        {"tab7.cpu_b_needs_700us", "Tab. 7 / 6.4", "700 us", {0, kInf},
         "pp", b700, ok, "B's 668 us switches: 700 us beats 30 us"},

        {"tab8.a1_fv.nosimd_wins", "Tab. 8 / 6.7", "15", {15, 15}, "of 23",
         wins(kA1), gap, boundary},
        {"tab8.a4_fv.nosimd_wins", "Tab. 8 / 6.7", "21", {21, 21}, "of 23",
         wins(kA4), ok, "exact count"},
        {"tab8.ainf_e.nosimd_wins", "Tab. 8 / 6.7", "23", {23, 23},
         "of 23", wins(kAe), ok, "emulation never beats recompilation"},
        {"tab8.binf_f.nosimd_wins", "Tab. 8 / 6.7", "21", {21, 21},
         "of 23", wins(kBf), ok, "exact count"},
        {"tab8.binf_e.nosimd_wins", "Tab. 8 / 6.7", "23", {23, 23},
         "of 23", wins(kBe), ok, "emulation never beats recompilation"},
        {"tab8.cinf_fv.nosimd_wins", "Tab. 8 / 6.7", "16", {16, 16},
         "of 23", wins(kC), gap, boundary},
        {"tab8.namd_nosimd_loss", "Tab. 8 / 6.7", "~20 pp", about(20.0),
         "pp", 100 * (namd_suit - namd_nosimd), ok,
         "508.namd loses under no-SIMD"},

        {"fig16.eff_median", "Fig. 16 / 6.4", "+13 %", about(13.0), "%",
         100 * c97.medianEff, ok, "about: +-25 % of the paper value"},

        {"abl.imul_trapped.time_on_e", "Sec. 4.2", "0 %", share(0.0), "%",
         100 * results[g.imul + 1].efficientShare, ok,
         "trapping IMUL pins the domain to the conservative curve"},
        {"abl.thrash.switches_saved", "Sec. 4.3", "fewer", {1, kInf},
         "switches", switches_saved, ok,
         "thrash prevention cuts switches on every workload"},

        {"sec4.one_trap_per_burst", "Sec. 4", "1 per burst", {4, 4}, "traps",
         x.s4.traps, ok, "four SIMD bursts, one #DO each"},
        {"sec4.energy_factor", "Sec. 4", "saves energy", {0, 1}, "ratio",
         x.s4.energy, ok, "below the stock run, the 4-cycle IMUL included"},
        {"abl.sched.aware_over_rr", "Sec. 7", "> round-robin", {0, kInf},
         "pp", x.schedGainPp, ok,
         "segregating bursty tasks beats mixing them"},

        {"sec69.aesenc_baseline_dfa", "Sec. 6.9", "key recovered",
         {dfa, kInf}, "faulty", faulty(x.s69.base[0]), ok,
         "the baseline campaign collects the faults DFA needs"},
        {"sec69.imul_baseline_dfa", "Sec. 6.9", "key recovered",
         {dfa, kInf}, "faulty", faulty(x.s69.base[1]), ok,
         "the baseline campaign collects the faults DFA needs"},
        {"sec69.aesenc_suit_faulty", "Sec. 6.9", "0 faulty", {0, 0},
         "faulty", faulty(x.s69.suit[0]), ok,
         "every AESENC traps and re-executes at the vendor point"},
        {"sec69.imul_suit_faulty", "Sec. 6.9", "0 faulty", {0, 0},
         "faulty", faulty(x.s69.suit[1]), ok,
         "the hardened IMUL runs natively and never faults"},
        {"sec69.imul4_below_crash", "Sec. 6.9", "below crash", {0, kInf},
         "mV", x.s69.hardenedBelowCrash, ok,
         "the hardened IMUL's Vmin sits below the crash voltage"},
        {"sec69.stock_imul_margin", "Sec. 6.9", "must harden", {0, 27},
         "mV", x.s69.stockImulMargin, ok,
         "small but positive: inside the 27 mV between the -70 and "
         "-97 mV points (Sec. 3.1)"},
    };
}

std::string
bound(const std::pair<double, double> &b)
{
    return util::sformat("[%.5g, %.5g]", b.first, b.second);
}

/** Prints the claims table; returns the number of failing claims. */
int
printClaims(const std::vector<Claim> &claims)
{
    std::printf("\n=== Paper claims (suit-claims-v1) ===\n");
    util::TablePrinter t({"Claim", "Where", "Paper", "Model", "Bound",
                          "Unit", "Verdict"});
    int passed = 0, deviations = 0, failed = 0;
    for (const Claim &c : claims) {
        t.addRow({c.id, c.section, c.paper, util::sformat("%.4g", c.model),
                  bound(c.bound), c.unit, c.verdict()});
        if (c.failsRun())
            ++failed;
        else if (c.expect == Expect::Deviation)
            ++deviations;
        else
            ++passed;
    }
    t.print();
    std::printf("\nReasons:\n");
    for (const Claim &c : claims)
        std::printf("  %-28s %s\n", c.id, c.reason);
    std::printf("\n%zu claims: %d pass, %d expected deviations, %d "
                "fail\n",
                claims.size(), passed, deviations, failed);
    return failed;
}

/** Shortest round-trip decimal, or null for a non-finite value. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

bool
writeJson(const std::string &path, const std::vector<Claim> &claims,
          int failed)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f,
                 "{\"schema\": \"suit-claims-v1\", \"claims\": %zu, "
                 "\"failed\": %d}\n",
                 claims.size(), failed);
    for (const Claim &c : claims) {
        std::fprintf(
            f,
            "{\"id\": %s, \"section\": %s, \"paper\": %s, \"model\": %s, "
            "\"lo\": %s, \"hi\": %s, \"unit\": %s, \"verdict\": \"%s\", "
            "\"reason\": %s}\n",
            obs::jsonQuote(c.id).c_str(), obs::jsonQuote(c.section).c_str(),
            obs::jsonQuote(c.paper).c_str(), jsonNumber(c.model).c_str(),
            jsonNumber(c.bound.first).c_str(),
            jsonNumber(c.bound.second).c_str(),
            obs::jsonQuote(c.unit).c_str(), c.verdict(),
            obs::jsonQuote(c.reason).c_str());
    }
    return std::fclose(f) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("suit_paper",
                         "regenerate the paper's evaluation and check "
                         "its claims");
    args.addOption("jobs", "0",
                   "parallel workers (0 = hardware threads, "
                   "1 = serial reference)");
    args.addOption("json", "",
                   "write the suit-claims-v1 record (JSON lines) here");
    if (!args.parse(argc, argv))
        return 0;

    runtime::Session session(
        {.jobs = static_cast<int>(args.getIntInRange("jobs", 0, 1024))});

    Experiments x{};
    x.t1 = table1();
    x.t2 = table2();
    x.t3 = table3();
    x.t4 = table4();
    x.f2 = fig2();
    x.f5ReturnsToE = fig5();
    x.f6 = fig6();
    x.f7MaxGap = fig7();
    x.f8 = fig8to11();
    x.f12PowerW = fig12();
    x.f13 = fig13();
    x.s53 = sec53();
    std::tie(x.f14, x.s4) = o3Experiments(session);

    const Cpus cpus;
    const WorkloadProfile trapped = trappedImulProfile();
    const Grid grid = buildGrid(cpus, trapped);
    exec::SweepEngine engine(session);
    const std::vector<DomainResult> results = engine.run(grid.jobs);

    printTable6(grid, results);
    printTable7(grid, results);
    printTable8(grid, results);
    printFig16(grid, results);
    printAblation(grid, results);
    x.schedGainPp = scheduling(session);
    x.s69 = sec69();

    const std::vector<Claim> claims = makeClaims(x, grid, results);
    const int failed = printClaims(claims);
    std::fflush(stdout);

    std::fprintf(stderr,
                 "\nExecution (%d worker%s, %zu sweep cells, %zu O3 "
                 "runs):\n%s",
                 engine.jobs(), engine.jobs() == 1 ? "" : "s",
                 grid.jobs.size(), x.f14.runs,
                 engine.workerFooter().c_str());

    const std::string json = args.get("json");
    if (!json.empty() && !writeJson(json, claims, failed)) {
        std::fprintf(stderr, "suit_paper: cannot write '%s'\n",
                     json.c_str());
        return 1;
    }
    return failed == 0 ? 0 : 1;
}

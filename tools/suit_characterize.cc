/**
 * @file
 * suit_characterize — run a Minefield-style undervolting
 * characterization campaign against the fault model (the Table 1
 * methodology) with configurable sweep parameters and chip seed.
 *
 * Examples:
 *   suit_characterize
 *   suit_characterize --cores 4 --step 5 --samples 100 --chip 7
 *   suit_characterize --hardened-imul
 */

#include <climits>
#include <cstdio>

#include "faults/characterizer.hh"
#include "obs/setup.hh"
#include "power/pstate.hh"
#include "runtime/run_context.hh"
#include "util/args.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/sigint.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace suit;

    util::ArgParser args("suit_characterize",
                         "undervolting fault characterization "
                         "(Kogler-style, Table 1)");
    args.addOption("cores", "8", "cores to sweep");
    args.addOption("step", "20", "offset step in mV");
    args.addOption("max-offset", "300", "deepest offset in mV");
    args.addOption("samples", "40",
                   "test executions per operating point");
    args.addOption("chip", "2024",
                   "chip seed (process variation instance)");
    args.addFlag("hardened-imul",
                 "characterize a SUIT chip with the 4-cycle IMUL");
    args.addOption("deadline-s", "0",
                   "wall-clock budget in seconds; on expiry the "
                   "campaign stops gracefully like Ctrl-C "
                   "(0 = none)");
    obs::addCliOptions(args);
    if (!args.parse(argc, argv))
        return 0;

    obs::CliScope obs_scope(args);

    const power::DvfsCurve curve = power::i9_9900kCurve();
    faults::VminConfig vcfg;
    vcfg.curve = &curve;
    vcfg.cores = static_cast<int>(args.getIntInRange("cores", 1, 1024));
    vcfg.seed = static_cast<std::uint64_t>(
        args.getIntInRange("chip", 0, LONG_MAX));
    vcfg.hardenedImul = args.getFlag("hardened-imul");
    const faults::VminModel model(vcfg);

    const double deadline_s = args.getDouble("deadline-s");
    if (deadline_s < 0.0)
        util::fatal("--deadline-s must be >= 0, got %g", deadline_s);

    // First Ctrl-C: graceful stop; second: immediate kill.
    util::SigintGuard sigint;
    runtime::RunContext ctx;
    ctx.token().linkExternal(sigint.flag());
    if (deadline_s > 0.0)
        ctx.setDeadlineAfter(deadline_s);

    faults::CharacterizerConfig ccfg;
    ccfg.offsetStepMv = args.getDouble("step");
    ccfg.maxOffsetMv = args.getDouble("max-offset");
    ccfg.samplesPerPoint =
        static_cast<int>(args.getIntInRange("samples", 1, INT_MAX));
    ccfg.cancel = &ctx.token();
    faults::Characterizer ch(&model, ccfg);
    const faults::CharacterizationResult r = ch.run();

    std::printf("chip seed %llu, %d cores, step %.0f mV, %s IMUL\n\n",
                static_cast<unsigned long long>(vcfg.seed),
                vcfg.cores, ccfg.offsetStepMv,
                vcfg.hardenedImul ? "hardened (4-cycle)" : "stock");

    util::TablePrinter t(
        {"Instruction", "Faults", "First fault (mV)"});
    for (auto kind : isa::allFaultableKinds()) {
        const auto k = static_cast<std::size_t>(kind);
        t.addRow({isa::toString(kind),
                  util::sformat("%d", r.faultCounts[k]),
                  r.firstFaultMv[k] > 0
                      ? util::sformat("-%.0f", r.firstFaultMv[k])
                      : "never"});
    }
    t.print();
    std::printf("\n%llu executions, %d crashed sweeps\n",
                static_cast<unsigned long long>(r.totalExecutions),
                r.crashedPoints);
    if (r.interrupted) {
        obs_scope.noteInterruption(
            sigint.requested() ? "sigint" : "deadline");
        std::fprintf(stderr,
                     "characterization interrupted: counts above "
                     "cover the sweep up to the stop point only\n");
        return 130;
    }
    return 0;
}

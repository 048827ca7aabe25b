/**
 * @file
 * suit_fleet — simulate a whole data-center fleet of SUIT domains in
 * one process and report the TCO/energy outcome.
 *
 * The fleet is described by a FleetSpec (--spec <file>, or the
 * built-in five-rack demo fleet when omitted); --domains rescales it
 * to the requested size.  The FleetEngine shards the domains across
 * worker threads and streams every result into exact per-rack
 * accumulators, so the report is bit-identical for any --jobs value,
 * any --shard size, and across kill-and-resume cycles
 * (--checkpoint/--resume reuse the crash-safe exec journal).
 *
 * Output: the human TCO/energy table on stdout, execution footer on
 * stderr, and with --report-json the machine-readable
 * suit-fleet-report-v1 document.  Ctrl-C stops gracefully after the
 * in-flight shards (exit code 130); a resumed run completes the rest
 * and produces the identical report.
 *
 * Examples:
 *   suit_fleet                                  # demo fleet, 100k
 *   suit_fleet --domains 1000000 --jobs 16
 *   suit_fleet --spec fleet.spec --report-json report.json
 *   suit_fleet --domains 500000 --checkpoint fleet.ckpt
 *   suit_fleet --domains 500000 --checkpoint fleet.ckpt --resume
 */

#include <climits>
#include <cstdio>
#include <string>

#include "fleet/engine.hh"
#include "fleet/report.hh"
#include "fleet/spec.hh"
#include "obs/registry.hh"
#include "obs/setup.hh"
#include "runtime/cli_run.hh"
#include "util/args.hh"
#include "util/logging.hh"

namespace {

using namespace suit;

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args(
        "suit_fleet",
        "simulate a fleet of SUIT domains, report TCO/energy");
    args.addOption("spec", "",
                   "fleet spec file (omit for the built-in demo "
                   "fleet)");
    args.addOption("domains", "0",
                   "rescale the fleet to this many domains "
                   "(0 = keep the spec's counts; demo default "
                   "100000)");
    args.addOption("seed", "",
                   "override the spec's root seed");
    args.addOption("shard", "0",
                   "domains per checkpointable shard (0 = default "
                   "4096)");
    args.addOption("report-json", "",
                   "also write the suit-fleet-report-v1 JSON to this "
                   "path ('-' = stdout instead of the table)");
    runtime::CliRun::addOptions(args, "shard");
    obs::addCliOptions(args);
    if (!args.parse(argc, argv))
        return 0;

    // Declared before the FleetEngine so worker threads never outlive
    // the trace session; flushes --metrics/--trace-out at exit.
    obs::CliScope obs_scope(args);

    const long domains = args.getIntInRange("domains", 0, LONG_MAX);
    const long shard = args.getIntInRange("shard", 0, LONG_MAX);

    fleet::FleetSpec spec;
    try {
        if (!args.get("spec").empty()) {
            spec = fleet::FleetSpec::parseFile(args.get("spec"));
            if (domains > 0)
                spec.scaleDomains(
                    static_cast<std::uint64_t>(domains));
        } else {
            spec = fleet::FleetSpec::demo(
                domains > 0 ? static_cast<std::uint64_t>(domains)
                            : 100000);
        }
    } catch (const fleet::SpecError &e) {
        util::fatal("%s", e.what());
    }
    if (!args.get("seed").empty())
        spec.seed = static_cast<std::uint64_t>(
            args.getIntInRange("seed", 0, LONG_MAX));

    runtime::CliRun run(args, obs_scope, "shard");

    util::inform("suit_fleet: '%s', %llu domains in %zu racks on %s",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(spec.totalDomains()),
                 spec.racks.size(),
                 run.session().jobs() == 1 ? "1 worker (serial)"
                                           : "parallel workers");

    fleet::FleetOptions options;
    options.shardSize = static_cast<std::uint64_t>(shard);
    options.onShardDone = run.stopAfterHook();

    fleet::FleetEngine engine(run.session(), spec);
    const fleet::FleetOutcome outcome =
        run.execute([&] { return engine.run(run.ctx(), options); });

    // An interrupted run's partial aggregates would render as a
    // plausible but wrong fleet report; only a complete run reports.
    if (outcome.complete()) {
        const std::string &json_path = args.get("report-json");
        if (json_path == "-") {
            const std::string doc =
                fleet::renderReportJson(engine.spec(),
                                        outcome.totals);
            std::fwrite(doc.data(), 1, doc.size(), stdout);
        } else {
            const std::string table =
                fleet::renderReportTable(engine.spec(),
                                         outcome.totals);
            std::fwrite(table.data(), 1, table.size(), stdout);
            if (!json_path.empty()) {
                const std::string doc =
                    fleet::renderReportJson(engine.spec(),
                                            outcome.totals);
                std::FILE *f = std::fopen(json_path.c_str(), "w");
                if (f == nullptr ||
                    std::fwrite(doc.data(), 1, doc.size(), f) !=
                        doc.size())
                    util::fatal("cannot write '%s'",
                                json_path.c_str());
                std::fclose(f);
            }
        }
    }

    // Footer goes to stderr so it never pollutes a report on stdout.
    std::fprintf(stderr,
                 "fleet execution: %llu shards (%llu run, %llu "
                 "restored, %llu skipped), %s\n",
                 static_cast<unsigned long long>(outcome.shards),
                 static_cast<unsigned long long>(outcome.shardsRun),
                 static_cast<unsigned long long>(
                     outcome.shardsRestored),
                 static_cast<unsigned long long>(
                     outcome.shardsSkipped),
                 engine.traceCache().summary().c_str());
    if (obs::metrics().enabled()) {
        std::fprintf(stderr, "\nobservability metrics:\n%s",
                     obs::renderMetricsTable(obs::metrics().snapshot())
                         .c_str());
    }
    return run.finish(outcome.interrupted, outcome.shardsSkipped, 0);
}

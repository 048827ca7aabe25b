/**
 * @file
 * suit_obs_check — structural validator for the obs exporters'
 * artifacts, used by the CI smoke tests and handy when eyeballing a
 * capture by hand.
 *
 * Checks a Chrome trace_event file (--trace) and/or a metrics JSON
 * file (--metrics) with the suit::obs validators: known phase codes,
 * ts/pid/tid on every event, balanced B/E span pairs per track, the
 * metrics schema string, and per-kind required fields.  The
 * telemetry artifacts are covered too: --openmetrics validates an
 * OpenMetrics text exposition (typed families, no duplicate
 * metric/label pairs, cumulative histogram buckets, # EOF) and
 * --flight a flight-recorder JSONL dump (header schema, monotonic
 * sample ids and timestamps, non-decreasing counters).  --require
 * takes a comma list of event/metric names that must appear in the
 * document(s) — e.g. `--require pstate,do-trap` asserts that a
 * simulator capture actually contains p-state transitions and #DO
 * exception instants.
 *
 * Exit code 0 when every requested check passes, 1 otherwise, with
 * one diagnostic line per problem on stderr.
 *
 * Examples:
 *   suit_sim --trace-out t.json --metrics m.json
 *   suit_obs_check --trace t.json --metrics m.json \
 *                  --require pstate,do-trap
 *   suit_fleet --metrics-series s.txt --flight-recorder f.jsonl ...
 *   suit_obs_check --openmetrics s.txt --require suit_sim_runs
 *   suit_obs_check --flight f.jsonl --require fleet.shard_ms
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/validate.hh"
#include "util/args.hh"
#include "util/logging.hh"

namespace {

using namespace suit;

std::string
readDocument(const std::string &path)
{
    if (path == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        return buf.str();
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::fatal("cannot open '%s' for reading", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Validate one document; returns the number of problems found. */
int
checkOne(const char *what, const std::string &path,
         const obs::CheckResult &result)
{
    if (!result.ok) {
        std::fprintf(stderr, "%s '%s': %s\n", what, path.c_str(),
                     result.error.c_str());
        return 1;
    }
    std::printf("%s '%s': ok (%zu entr%s, %zu distinct name%s)\n",
                what, path.c_str(), result.entries,
                result.entries == 1 ? "y" : "ies",
                result.names.size(),
                result.names.size() == 1 ? "" : "s");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("suit_obs_check",
                         "validate obs trace/metrics artifacts");
    args.addOption("trace", "",
                   "Chrome trace_event JSON file to validate "
                   "('-' = stdin)");
    args.addOption("metrics", "",
                   "metrics JSON file to validate ('-' = stdin)");
    args.addOption("openmetrics", "",
                   "OpenMetrics text exposition to validate "
                   "('-' = stdin)");
    args.addOption("flight", "",
                   "flight-recorder JSONL dump to validate "
                   "('-' = stdin)");
    args.addOption("require", "",
                   "comma list of event/metric names that must "
                   "appear in the validated document(s)");
    if (!args.parse(argc, argv))
        return 0;

    const std::string trace_path = args.get("trace");
    const std::string metrics_path = args.get("metrics");
    const std::string openmetrics_path = args.get("openmetrics");
    const std::string flight_path = args.get("flight");
    if (trace_path.empty() && metrics_path.empty() &&
        openmetrics_path.empty() && flight_path.empty())
        util::fatal("nothing to do: pass --trace, --metrics, "
                    "--openmetrics and/or --flight");
    const int stdin_users = (trace_path == "-") +
                            (metrics_path == "-") +
                            (openmetrics_path == "-") +
                            (flight_path == "-");
    if (stdin_users > 1)
        util::fatal("only one document can read stdin");

    int problems = 0;
    std::vector<obs::CheckResult> results;
    if (!trace_path.empty()) {
        results.push_back(
            obs::checkChromeTrace(readDocument(trace_path)));
        problems += checkOne("trace", trace_path, results.back());
    }
    if (!metrics_path.empty()) {
        results.push_back(
            obs::checkMetricsJson(readDocument(metrics_path)));
        problems += checkOne("metrics", metrics_path, results.back());
    }
    if (!openmetrics_path.empty()) {
        results.push_back(
            obs::checkOpenMetrics(readDocument(openmetrics_path)));
        problems += checkOne("openmetrics", openmetrics_path,
                             results.back());
    }
    if (!flight_path.empty()) {
        results.push_back(
            obs::checkFlightJsonl(readDocument(flight_path)));
        problems += checkOne("flight", flight_path, results.back());
    }

    for (const std::string &name : util::splitList(args.get("require"))) {
        bool found = false;
        for (const obs::CheckResult &r : results)
            found = found || r.hasName(name);
        if (!found) {
            std::fprintf(stderr,
                         "required name '%s' appears in no validated "
                         "document\n",
                         name.c_str());
            ++problems;
        }
    }
    return problems == 0 ? 0 : 1;
}

/**
 * @file
 * Data-center scenario: a fleet of SUIT-capable servers running a
 * mix of workloads — the paper's motivating use case (Sec. 3.1: data
 * centers replace CPUs long before the 10-year aging guardband
 * matters).
 *
 * This example is a thin wrapper over the suit::fleet subsystem: it
 * takes the built-in five-rack demo fleet (heterogeneous CPUs,
 * per-tenant strategies and offsets), simulates every domain through
 * a serial FleetEngine run, and prints the TCO/energy report.  The
 * suit_fleet tool runs the same scenario at 10^5-10^6 domains with
 * worker threads, checkpoints and JSON reports.
 */

#include <cstdio>

#include "fleet/engine.hh"
#include "fleet/report.hh"
#include "fleet/spec.hh"
#include "runtime/session.hh"

int
main()
{
    using namespace suit;

    std::printf("SUIT example — data-center fleet\n\n");

    fleet::FleetSpec spec = fleet::FleetSpec::demo(1000);
    // Serial reference session; suit_fleet scales the same engine
    // out across worker threads.
    runtime::Session session({.jobs = 1});
    fleet::FleetEngine engine(session, spec);

    const fleet::FleetOutcome outcome = engine.run();

    const std::string report =
        fleet::renderReportTable(engine.spec(), outcome.totals);
    std::fwrite(report.data(), 1, report.size(), stdout);
    std::printf("\nAll savings come without touching the aging or "
                "temperature guardbands.\nScale it up: "
                "build/tools/suit_fleet --domains 1000000 --jobs 16\n");
    return 0;
}

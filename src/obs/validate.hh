/**
 * @file
 * Structural validators for the obs exporters' JSON documents.
 *
 * The exporters emit one event/metric object per line precisely so
 * these checks (and the CI smoke scripts through suit_obs_check) can
 * validate the output without a JSON parser dependency: each line is
 * scanned for its required keys, span begin/end events are checked
 * for balance per track, and the distinct names are collected so
 * callers can assert that specific events ("pstate", "do-trap", ...)
 * actually made it into the file.
 */

#ifndef SUIT_OBS_VALIDATE_HH
#define SUIT_OBS_VALIDATE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace suit::obs {

/** Outcome of a document validation. */
struct CheckResult
{
    bool ok = false;
    /** First structural problem found (empty when ok). */
    std::string error;
    /** Event or metric objects seen. */
    std::size_t entries = 0;
    /** Distinct event/metric names, in first-seen order. */
    std::vector<std::string> names;

    /** True if @p name is among names. */
    bool hasName(const std::string &name) const;
};

/**
 * Validate a Chrome trace_event document as written by
 * TraceSession::render(): a "traceEvents" array whose events each
 * carry ph/pid/tid (and ts for non-metadata phases), with only known
 * phase codes and balanced B/E pairs on every (pid, tid) track.
 */
CheckResult checkChromeTrace(const std::string &doc);

/**
 * Validate a metrics document as written by renderMetricsJson():
 * schema "suit-obs-metrics-v1", each metric carrying name and a known
 * kind, counters/histograms a count, histograms bounds plus exactly
 * bounds+1 buckets.
 */
CheckResult checkMetricsJson(const std::string &doc);

/**
 * Validate an OpenMetrics text document as written by
 * renderOpenMetrics(): well-formed metric names, every sample value
 * parseable, every sample family announced by a preceding `# TYPE`
 * line, no duplicate (metric, label-set) sample lines, histogram
 * `le` buckets cumulative (non-decreasing counts), and a final
 * `# EOF` marker.  names collects the exposed families.
 */
CheckResult checkOpenMetrics(const std::string &doc);

/**
 * Validate a flight-recorder JSONL document as written by
 * FlightRecorder::dump(): a "suit-flight-v1" header carrying reason
 * and a duplicate-free series table, sample lines with strictly
 * increasing ids, non-decreasing host timestamps, at most
 * series-count values and counter/histogram series non-decreasing
 * across samples, span lines with thread/name fields.  names
 * collects series then span names.
 */
CheckResult checkFlightJsonl(const std::string &doc);

} // namespace suit::obs

#endif // SUIT_OBS_VALIDATE_HH

#include "obs/setup.hh"

#include <chrono>
#include <cstdio>
#include <functional>

#include "obs/registry.hh"
#include "util/logging.hh"

namespace suit::obs {

void
addCliOptions(util::ArgParser &args)
{
    args.addOption("metrics", "",
                   "write the metrics registry as JSON to this path "
                   "('-' for stdout)");
    args.addOption("trace-out", "",
                   "write a Chrome trace_event timeline to this path "
                   "('-' for stdout)");
    args.addOption("metrics-interval", "0",
                   "dump the metrics registry every N seconds while "
                   "running, rounded up to a whole sampler period "
                   "(0 = only at exit)");
    args.addOption("listen-metrics", "0",
                   "serve OpenMetrics text on 127.0.0.1:PORT while "
                   "running (0 = off)");
    args.addOption("metrics-series", "",
                   "write the final OpenMetrics snapshot to this "
                   "path at exit (file exposition for headless CI)");
    args.addOption("flight-recorder", "",
                   "on crash, Ctrl-C or --deadline-s expiry dump the "
                   "last telemetry samples + active spans to this "
                   "JSONL path");
}

CliScope::CliScope(const util::ArgParser &args)
    : metricsPath_(args.get("metrics")),
      tracePath_(args.get("trace-out"))
{
    const std::string &interval = args.get("metrics-interval");
    if (util::tryParseDouble(interval, metricsIntervalS_) !=
            util::ParseStatus::Ok ||
        metricsIntervalS_ < 0.0) {
        util::fatal("bad --metrics-interval '%s' (want seconds "
                    ">= 0)",
                    interval.c_str());
    }
    listenPort_ = static_cast<std::uint16_t>(
        args.getIntInRange("listen-metrics", 0, 65535));
    seriesPath_ = args.get("metrics-series");
    flightPath_ = args.get("flight-recorder");

    const bool wantsSampler = metricsIntervalS_ > 0.0 ||
                              listenPort_ != 0 ||
                              !seriesPath_.empty() ||
                              !flightPath_.empty();
    metricsEnabled_ = wantsSampler || !metricsPath_.empty() ||
                      !tracePath_.empty();
    metrics().setEnabled(metricsEnabled_);
    if (!tracePath_.empty()) {
        trace_ = std::make_unique<TraceSession>();
        setActiveTrace(trace_.get());
    }
    if (!wantsSampler)
        return;

    sampler_ =
        std::make_unique<TelemetrySampler>(metrics(), kSamplePeriodS);
    if (!flightPath_.empty())
        flight_ = std::make_unique<FlightRecorder>(
            FlightConfig{flightPath_}, sampler_.get());
    if (listenPort_ != 0) {
        // Scrape-triggered sampling: every scrape takes a fresh
        // sample before rendering, like a Prometheus collect
        // callback.
        server_ = std::make_unique<MetricsServer>(
            listenPort_, [sampler = sampler_.get()] {
                sampler->sampleOnce();
                return sampler->renderLatest(renderOpenMetrics);
            });
        if (server_->ok())
            util::inform("serving OpenMetrics on 127.0.0.1:%u",
                         static_cast<unsigned>(server_->port()));
    }
    std::function<void()> onTick;
    if (metricsIntervalS_ > 0.0) {
        using Clock = std::chrono::steady_clock;
        const auto every = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(metricsIntervalS_));
        onTick = [this, every, last = Clock::now()]() mutable {
            const Clock::time_point now = Clock::now();
            if (now - last < every)
                return;
            last = now;
            dumpMetrics();
        };
    }
    sampler_->start(std::move(onTick));
}

CliScope::~CliScope()
{
    finish();
}

namespace {

/**
 * Atomic replace: a concurrent reader (a dashboard tailing the file
 * while the tool runs) sees either the old or the new document,
 * never a torn one.
 */
void
writeFileAtomic(const std::string &path, const std::string &doc)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        util::warn("cannot write metrics to '%s'", tmp.c_str());
        return;
    }
    const bool wrote =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
        std::fflush(f) == 0;
    std::fclose(f);
    if (!wrote || std::rename(tmp.c_str(), path.c_str()) != 0)
        util::warn("cannot write metrics to '%s'", path.c_str());
}

} // namespace

void
CliScope::noteInterruption(const char *reason)
{
    if (sampler_)
        sampler_->sampleOnce(); // capture the end state in the ring
    if (flight_)
        flight_->dump(reason);
}

void
CliScope::dumpMetrics() const
{
    const auto render =
        metricsPath_.empty() ? renderMetricsTable : renderMetricsJson;
    const std::string doc = sampler_ ? sampler_->renderLatest(render)
                                     : render(metrics().snapshot());
    if (metricsPath_.empty())
        std::fwrite(doc.data(), 1, doc.size(), stderr);
    else if (metricsPath_ == "-")
        std::fwrite(doc.data(), 1, doc.size(), stdout);
    else
        writeFileAtomic(metricsPath_, doc);
}

void
CliScope::finish()
{
    if (finished_)
        return;
    finished_ = true;

    // Quiesce the scrape endpoint and the sampler thread (and with
    // it the interval dumps), then take one final sample so the
    // newest snapshot and the ring tail reflect the end state.
    if (server_)
        server_->stop();
    if (sampler_) {
        sampler_->stop();
        sampler_->sampleOnce();
    }

    if (trace_)
        setActiveTrace(nullptr);

    if (!metricsPath_.empty())
        dumpMetrics();
    if (!seriesPath_.empty()) {
        const std::string doc =
            sampler_->renderLatest(renderOpenMetrics);
        if (seriesPath_ == "-")
            std::fwrite(doc.data(), 1, doc.size(), stdout);
        else
            writeFileAtomic(seriesPath_, doc);
    }
    if (trace_)
        trace_->writeTo(tracePath_);

    metrics().setEnabled(false);
}

} // namespace suit::obs

#include "obs/flight.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <optional>

#include "obs/json.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace suit::obs {

namespace {

// ---------------------------------------------------------------
// Span stack table.  Fixed storage, all-atomic words: a Span
// runs on pool workers concurrently with a dump() on the main (or a
// signal) thread, and a post-mortem reader tolerates a stack caught
// mid-push — it reads whatever depth/entries pair it observes.
// ---------------------------------------------------------------

constexpr int kMaxSpanThreads = 64;
constexpr int kMaxSpanDepth = 16;

struct SpanEntry
{
    std::atomic<const char *> name{nullptr};
    std::atomic<const char *> cat{nullptr};
    std::atomic<std::uint64_t> startUsBits{0};
};

struct ThreadSpans
{
    std::atomic<std::uint32_t> depth{0};
    SpanEntry entries[kMaxSpanDepth];
};

ThreadSpans g_spans[kMaxSpanThreads];
std::atomic<int> g_spanThreads{0};
std::atomic<bool> g_spansEnabled{false};
std::atomic<FlightRecorder *> g_active{nullptr};

thread_local int t_spanSlot = -1; //!< -1 unclaimed, -2 table full

using Clock = std::chrono::steady_clock;

/** Zero of the stack entries' start_us; fixed when a recorder arms. */
Clock::time_point
processEpoch()
{
    static const Clock::time_point epoch = Clock::now();
    return epoch;
}

double
microseconds(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

// ---------------------------------------------------------------
// Crash-signal handlers (best effort; see the header comment).
// ---------------------------------------------------------------

constexpr int kCrashSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE};

struct sigaction g_oldActions[sizeof(kCrashSignals) /
                              sizeof(kCrashSignals[0])];

void
crashHandler(int sig)
{
    if (FlightRecorder *recorder =
            g_active.load(std::memory_order_acquire))
        recorder->dump("crash-signal", /*crash=*/true);
    // Restore default disposition and re-raise so the process still
    // dies with the original signal (core dumps, exit status).
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

void
installCrashHandlers()
{
    struct sigaction action{};
    action.sa_handler = &crashHandler;
    sigemptyset(&action.sa_mask);
    for (std::size_t i = 0;
         i < sizeof(kCrashSignals) / sizeof(kCrashSignals[0]); ++i)
        sigaction(kCrashSignals[i], &action, &g_oldActions[i]);
}

void
restoreCrashHandlers()
{
    for (std::size_t i = 0;
         i < sizeof(kCrashSignals) / sizeof(kCrashSignals[0]); ++i)
        sigaction(kCrashSignals[i], &g_oldActions[i], nullptr);
}

} // namespace

Span::Span(const char *name, const char *cat, MetricId ms)
    : name_(name), cat_(cat), trace_(activeTrace())
{
    if (ms.valid() && metrics().enabled())
        ms_ = ms;
    const bool flight = g_spansEnabled.load(std::memory_order_relaxed);
    if (!flight && !trace_ && !ms_.valid())
        return;
    start_ = Clock::now();
    if (!flight)
        return;
    if (t_spanSlot == -1) {
        const int claimed =
            g_spanThreads.fetch_add(1, std::memory_order_relaxed);
        t_spanSlot = claimed < kMaxSpanThreads ? claimed : -2;
    }
    if (t_spanSlot < 0)
        return;
    ThreadSpans &spans = g_spans[t_spanSlot];
    const std::uint32_t d =
        spans.depth.load(std::memory_order_relaxed);
    if (d >= kMaxSpanDepth)
        return;
    SpanEntry &entry = spans.entries[d];
    entry.name.store(name, std::memory_order_relaxed);
    entry.cat.store(cat, std::memory_order_relaxed);
    entry.startUsBits.store(
        std::bit_cast<std::uint64_t>(
            microseconds(start_ - processEpoch())),
        std::memory_order_relaxed);
    spans.depth.store(d + 1, std::memory_order_release);
    slot_ = t_spanSlot;
}

Span::~Span()
{
    if (slot_ >= 0) {
        ThreadSpans &spans = g_spans[slot_];
        const std::uint32_t d =
            spans.depth.load(std::memory_order_relaxed);
        if (d > 0)
            spans.depth.store(d - 1, std::memory_order_release);
    }
    if (!trace_ && !ms_.valid())
        return;
    const Clock::duration elapsed = Clock::now() - start_;
    if (ms_.valid())
        metrics().observe(
            ms_,
            std::chrono::duration<double, std::milli>(elapsed).count());
    if (trace_)
        trace_->complete(TraceSession::kHostPid,
                         trace_->threadTrack("main"),
                         trace_->hostUs(start_), microseconds(elapsed),
                         name_, cat_, args_);
}

FlightRecorder::FlightRecorder(FlightConfig config,
                               const TelemetrySampler *sampler)
    : cfg_(std::move(config)), sampler_(sampler)
{
    processEpoch(); // stack start_us count from the first arming
    previous_ = g_active.exchange(this, std::memory_order_acq_rel);
    g_spansEnabled.store(true, std::memory_order_relaxed);
    if (cfg_.installSignalHandlers && previous_ == nullptr) {
        installCrashHandlers();
        installedHandlers_ = true;
    }
}

FlightRecorder::~FlightRecorder()
{
    g_active.store(previous_, std::memory_order_release);
    if (previous_ == nullptr)
        g_spansEnabled.store(false, std::memory_order_relaxed);
    if (installedHandlers_)
        restoreCrashHandlers();
}

FlightRecorder *
FlightRecorder::active()
{
    return g_active.load(std::memory_order_acquire);
}

bool
FlightRecorder::dump(const char *reason, bool crash)
{
    std::string out;
    out.reserve(4096);

    // The header's series table and the sample lines come from one
    // view of the ring, held locked while both are rendered.
    std::optional<TelemetrySampler::Tail> tail;
    if (sampler_)
        tail.emplace(sampler_->tail(crash));
    const std::size_t n = tail ? tail->size() : 0;

    out += util::sformat("{\"schema\": \"suit-flight-v1\", "
                         "\"reason\": %s",
                         jsonQuote(reason).c_str());
    if (sampler_)
        out += util::sformat(", \"interval_s\": %.17g",
                             sampler_->intervalS());
    out += ", \"series\": [";
    if (n > 0) {
        const std::vector<MetricValue> &newest =
            (*tail)[n - 1].snapshot.metrics;
        for (std::size_t i = 0; i < newest.size(); ++i)
            out += util::sformat("%s{\"name\": %s, \"kind\": \"%s\"}",
                                 i ? ", " : "",
                                 jsonQuote(newest[i].name).c_str(),
                                 toString(newest[i].kind));
    }
    out += "]}\n";

    // Ring tail, oldest first.
    for (std::size_t s = 0; s < n; ++s) {
        const TelemetrySample &sample = (*tail)[s];
        out += util::sformat(
            "{\"sample\": %llu, \"host_us\": %.3f, \"values\": [",
            static_cast<unsigned long long>(sample.id), sample.hostUs);
        const std::vector<MetricValue> &metrics =
            sample.snapshot.metrics;
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            if (i)
                out += ", ";
            if (metrics[i].kind == MetricKind::Gauge)
                out += util::sformat("%.17g", metrics[i].value);
            else
                out += util::sformat("%llu",
                                     static_cast<unsigned long long>(
                                         metrics[i].count));
        }
        out += "]}\n";
    }
    tail.reset(); // release the ring before the file write

    // Active span stacks, innermost last per thread.
    const int threads =
        std::min(g_spanThreads.load(std::memory_order_relaxed),
                 kMaxSpanThreads);
    for (int t = 0; t < threads; ++t) {
        const ThreadSpans &spans = g_spans[t];
        const std::uint32_t depth = std::min<std::uint32_t>(
            spans.depth.load(std::memory_order_acquire),
            kMaxSpanDepth);
        for (std::uint32_t d = 0; d < depth; ++d) {
            const SpanEntry &entry = spans.entries[d];
            const char *name =
                entry.name.load(std::memory_order_relaxed);
            const char *cat =
                entry.cat.load(std::memory_order_relaxed);
            if (name == nullptr)
                continue; // stack caught mid-push
            out += util::sformat(
                "{\"span_thread\": %d, \"depth\": %u, "
                "\"name\": %s, \"cat\": %s, \"start_us\": %.3f}\n",
                t, d, jsonQuote(name).c_str(),
                jsonQuote(cat ? cat : "").c_str(),
                std::bit_cast<double>(entry.startUsBits.load(
                    std::memory_order_relaxed)));
        }
    }

    std::FILE *f = std::fopen(cfg_.path.c_str(), "w");
    if (f == nullptr) {
        util::warn("flight recorder: cannot write '%s'",
                   cfg_.path.c_str());
        return false;
    }
    const bool wrote =
        std::fwrite(out.data(), 1, out.size(), f) == out.size() &&
        std::fflush(f) == 0;
    std::fclose(f);
    if (!wrote) {
        util::warn("flight recorder: short write to '%s'",
                   cfg_.path.c_str());
        return false;
    }
    ++dumps_;
    return true;
}

} // namespace suit::obs

#include "obs/trace.hh"

#include <cstdio>
#include <utility>

#include "obs/json.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace suit::obs {

namespace {

std::atomic<TraceSession *> g_active{nullptr};

std::string
renderArgs(const TraceArgs &args)
{
    if (args.empty())
        return {};
    std::string out = "{";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonQuote(args[i].key);
        out += ": ";
        out += args[i].json;
    }
    out += "}";
    return out;
}

} // namespace

TraceArg::TraceArg(std::string k, const std::string &value)
    : key(std::move(k)), json(jsonQuote(value))
{
}

TraceArg::TraceArg(std::string k, const char *value)
    : key(std::move(k)), json(jsonQuote(value))
{
}

TraceArg::TraceArg(std::string k, double value)
    : key(std::move(k)), json(util::sformat("%.17g", value))
{
}

TraceArg::TraceArg(std::string k, std::uint64_t value)
    : key(std::move(k)),
      json(util::sformat("%llu",
                         static_cast<unsigned long long>(value)))
{
}

TraceArg::TraceArg(std::string k, std::int64_t value)
    : key(std::move(k)),
      json(util::sformat("%lld", static_cast<long long>(value)))
{
}

TraceArg::TraceArg(std::string k, int value)
    : key(std::move(k)), json(util::sformat("%d", value))
{
}

TraceArg::TraceArg(std::string k, unsigned value)
    : key(std::move(k)), json(util::sformat("%u", value))
{
}

TraceSession::TraceSession() : start_(std::chrono::steady_clock::now())
{
    // Name the two synthetic processes up front so even an
    // otherwise-empty trace renders with labelled timelines.
    Event sim;
    sim.ph = 'M';
    sim.pid = kSimPid;
    sim.name = "process_name";
    sim.argsJson = "{\"name\": \"sim time\"}";
    Event host;
    host.ph = 'M';
    host.pid = kHostPid;
    host.name = "process_name";
    host.argsJson = "{\"name\": \"host\"}";
    std::lock_guard lock(mu_);
    events_.push_back(std::move(sim));
    events_.push_back(std::move(host));
}

int
TraceSession::newTrackLocked(int pid, const std::string &name)
{
    const int tid = ++nextTid_[pid];
    Event meta;
    meta.ph = 'M';
    meta.pid = pid;
    meta.tid = tid;
    meta.name = "thread_name";
    meta.argsJson =
        util::sformat("{\"name\": %s}", jsonQuote(name).c_str());
    if (events_.size() < kMaxEvents)
        events_.push_back(std::move(meta));
    else
        dropped_.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

int
TraceSession::newTrack(int pid, const std::string &name)
{
    std::lock_guard lock(mu_);
    return newTrackLocked(pid, name);
}

int
TraceSession::threadTrack(const std::string &name)
{
    std::lock_guard lock(mu_);
    auto it = hostTracks_.find(std::this_thread::get_id());
    if (it == hostTracks_.end()) {
        const int tid = newTrackLocked(kHostPid, name);
        it = hostTracks_.emplace(std::this_thread::get_id(), tid)
                 .first;
    }
    return it->second;
}

void
TraceSession::push(Event event)
{
    std::lock_guard lock(mu_);
    if (events_.size() >= kMaxEvents) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    events_.push_back(std::move(event));
}

void
TraceSession::begin(int pid, int tid, double ts,
                    const std::string &name, const std::string &cat,
                    const TraceArgs &args)
{
    Event e;
    e.ph = 'B';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.name = name;
    e.cat = cat;
    e.argsJson = renderArgs(args);
    push(std::move(e));
}

void
TraceSession::end(int pid, int tid, double ts)
{
    Event e;
    e.ph = 'E';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    push(std::move(e));
}

void
TraceSession::complete(int pid, int tid, double ts, double dur,
                       const std::string &name, const std::string &cat,
                       const TraceArgs &args)
{
    Event e;
    e.ph = 'X';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.dur = dur;
    e.name = name;
    e.cat = cat;
    e.argsJson = renderArgs(args);
    push(std::move(e));
}

void
TraceSession::instant(int pid, int tid, double ts,
                      const std::string &name, const std::string &cat,
                      const TraceArgs &args)
{
    Event e;
    e.ph = 'i';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.name = name;
    e.cat = cat;
    e.argsJson = renderArgs(args);
    push(std::move(e));
}

void
TraceSession::counter(int pid, int tid, double ts,
                      const std::string &name, const TraceArgs &args)
{
    Event e;
    e.ph = 'C';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.name = name;
    e.argsJson = renderArgs(args);
    push(std::move(e));
}

double
TraceSession::hostNowUs() const
{
    return hostUs(std::chrono::steady_clock::now());
}

double
TraceSession::hostUs(std::chrono::steady_clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - start_).count();
}

std::size_t
TraceSession::eventCount() const
{
    std::lock_guard lock(mu_);
    return events_.size();
}

std::uint64_t
TraceSession::dropped() const
{
    return dropped_.load(std::memory_order_relaxed);
}

std::string
TraceSession::render() const
{
    std::lock_guard lock(mu_);
    std::string out;
    // ~160 bytes per rendered event is a good reserve estimate.
    out.reserve(events_.size() * 160 + 64);
    out += "{\n\"traceEvents\": [\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event &e = events_[i];
        out += util::sformat("{\"ph\": \"%c\", \"pid\": %d, "
                             "\"tid\": %d, \"ts\": %.3f",
                             e.ph, e.pid, e.tid, e.ts);
        if (e.ph == 'X')
            out += util::sformat(", \"dur\": %.3f", e.dur);
        if (e.ph == 'i')
            out += ", \"s\": \"t\"";
        if (!e.name.empty()) {
            out += ", \"name\": ";
            out += jsonQuote(e.name);
        }
        if (!e.cat.empty()) {
            out += ", \"cat\": ";
            out += jsonQuote(e.cat);
        }
        if (!e.argsJson.empty()) {
            out += ", \"args\": ";
            out += e.argsJson;
        }
        out += "}";
        if (i + 1 < events_.size())
            out += ",";
        out += "\n";
    }
    out += "],\n\"displayTimeUnit\": \"ms\"\n}\n";
    return out;
}

bool
TraceSession::writeTo(const std::string &path) const
{
    const std::string doc = render();
    if (path == "-") {
        std::fwrite(doc.data(), 1, doc.size(), stdout);
        return true;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        util::warn("cannot write trace to '%s'", path.c_str());
        return false;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    if (const std::uint64_t n = dropped()) {
        util::warn("trace '%s' dropped %llu events past the %zu-event "
                   "cap",
                   path.c_str(), static_cast<unsigned long long>(n),
                   kMaxEvents);
    }
    return true;
}

TraceSession *
activeTrace()
{
    return g_active.load(std::memory_order_acquire);
}

void
setActiveTrace(TraceSession *session)
{
    g_active.store(session, std::memory_order_release);
}

} // namespace suit::obs

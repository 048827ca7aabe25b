#include "util/logging.hh"

#include <cstdio>
#include <mutex>

#include "util/format.hh"

namespace suit::util {

namespace {

/**
 * One mutex serialises every sink write: concurrent inform()/warn()
 * from pool workers used to interleave lines mid-message because each
 * fprintf is only atomic per libc buffer flush, not per call.
 */
std::mutex &
sinkMutex()
{
    static std::mutex mu;
    return mu;
}

LogSink &
sinkSlot()
{
    static LogSink sink;
    return sink;
}

/** Serialised write to the installed sink or stderr. */
void
emit(LogClass cls, const char *tag, const std::string &msg)
{
    std::lock_guard lock(sinkMutex());
    if (LogSink &sink = sinkSlot()) {
        sink(cls, msg);
        return;
    }
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // namespace

void
setLogSink(LogSink sink)
{
    std::lock_guard lock(sinkMutex());
    sinkSlot() = std::move(sink);
}

void
informStr(const std::string &msg)
{
    emit(LogClass::Info, "info", msg);
}

void
warnStr(const std::string &msg)
{
    emit(LogClass::Warn, "warn", msg);
}

void
fatalStr(const std::string &msg)
{
    emit(LogClass::Fatal, "fatal", msg);
    std::exit(1);
}

void
panicStr(const std::string &msg, const char *file, int line)
{
    emit(LogClass::Panic, "panic",
         sformat("%s (%s:%d)", msg.c_str(), file, line));
    std::abort();
}

} // namespace suit::util

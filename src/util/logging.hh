/**
 * @file
 * gem5-style status and error reporting.
 *
 * Severity ladder (mirrors gem5's base/logging.hh semantics):
 *  - inform():    normal operating message, no connotation of error.
 *  - warn():      something might be off; keep going.
 *  - fatal():     the *user's* fault (bad configuration, bad input);
 *                 exits with code 1.
 *  - panic():     a library bug — an invariant that must never break
 *                 regardless of user input; aborts.
 */

#ifndef SUIT_UTIL_LOGGING_HH
#define SUIT_UTIL_LOGGING_HH

#include <cstdlib>
#include <functional>
#include <string>

#include "util/format.hh"

namespace suit::util {

/** Kind of message delivered to a LogSink. */
enum class LogClass { Info, Warn, Fatal, Panic };

/**
 * Replacement message sink; null restores the stderr default.  The
 * sink is invoked under the writer mutex, one whole message at a
 * time.  Used by tests to capture output and by embedders to
 * reroute it.
 */
using LogSink = std::function<void(LogClass, const std::string &)>;
void setLogSink(LogSink sink);

/** @{ Raw (pre-formatted) sinks; prefer the variadic wrappers. */
void informStr(const std::string &msg);
void warnStr(const std::string &msg);
[[noreturn]] void fatalStr(const std::string &msg);
[[noreturn]] void panicStr(const std::string &msg, const char *file,
                           int line);
/** @} */

/** Print an informational message to stderr. */
template <typename... Args>
void
inform(const char *fmt, Args... args)
{
    informStr(sformat(fmt, args...));
}

/** Print a warning to stderr. */
template <typename... Args>
void
warn(const char *fmt, Args... args)
{
    warnStr(sformat(fmt, args...));
}

/** Report an unrecoverable user error and exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args... args)
{
    fatalStr(sformat(fmt, args...));
}

/**
 * Report a broken internal invariant and abort.  Use via the
 * SUIT_PANIC / SUIT_ASSERT macros so file/line are recorded.
 */
#define SUIT_PANIC(...)                                                 \
    ::suit::util::panicStr(::suit::util::sformat(__VA_ARGS__),          \
                           __FILE__, __LINE__)

/** Always-on invariant check (not compiled out in release builds). */
#define SUIT_ASSERT(cond, ...)                                          \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::suit::util::panicStr(                                     \
                std::string("assertion '" #cond "' failed: ") +         \
                    ::suit::util::sformat(__VA_ARGS__),                 \
                __FILE__, __LINE__);                                    \
        }                                                               \
    } while (0)

} // namespace suit::util

#endif // SUIT_UTIL_LOGGING_HH

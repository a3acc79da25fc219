/**
 * @file
 * Error and status reporting in the gem5 tradition.
 *
 * panic()  — an internal invariant was broken; this is a simulator bug.
 * fatal()  — the simulation cannot continue due to user input/config.
 * warn()   — something is approximated or suspicious but survivable.
 * inform() — plain status for the user.
 */

#ifndef JRPM_COMMON_LOGGING_HH
#define JRPM_COMMON_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace jrpm
{

/** Abort with a message: an internal simulator bug was detected. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** What fatal() throws while a ScopedFatalCapture is active. */
class FatalError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * While an instance is alive on a thread, fatal() on that thread
 * throws FatalError instead of exiting the process.
 * runContained() (driver/driver.hh) arms one around each host job so
 * a single case that hits a fatal() path (a --warm=warm repository
 * miss, an unsupported config) becomes a per-case error result
 * instead of aborting the whole batch.  Nestable; panic() is
 * unaffected — a broken internal invariant still aborts.
 */
class ScopedFatalCapture
{
  public:
    ScopedFatalCapture();
    ~ScopedFatalCapture();
    ScopedFatalCapture(const ScopedFatalCapture &) = delete;
    ScopedFatalCapture &operator=(const ScopedFatalCapture &) = delete;
};

/** Exit with a message: the user asked for something unsupported.
 *  Under a ScopedFatalCapture, throws FatalError instead. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning; the simulation continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Like warn(), but repeated messages sharing @p key are throttled: the
 * first few occurrences print verbatim, after which only decade
 * milestones (10th, 100th, ...) print a one-line "suppressed" summary.
 * Violation and overflow storms would otherwise emit one line per
 * squashed iteration.
 */
void warnThrottled(const std::string &key, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/**
 * Report the total suppressed count per throttle key and reset the
 * throttle state (call at end of run).  Totals are also published as
 * `log.suppressed.<key>` counters in the global MetricsRegistry
 * (occurrence counts are published live as `log.throttled.<key>`), so
 * quiet runs still account for what was dropped.
 */
void logReportSuppressed();

/**
 * Install a hook invoked once at the top of panic()/fatal(), before
 * the process dies.  Used to flush partial telemetry (trace/metrics)
 * on failure paths where atexit handlers never run (panic aborts).
 * Pass nullptr to clear.  The hook must be async-abort-safe in spirit:
 * no throwing, no re-entering panic.
 */
void logSetAbortHook(void (*hook)());

/** Print an informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Globally silence warn()/inform() (benchmark harnesses use this). */
void setQuiet(bool quiet);

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Write @p text to the file @p path.  @return false, after warning
 *  "cannot open <what> output", on I/O error. */
bool writeTextFile(const std::string &path, const std::string &text,
                   const char *what);

} // namespace jrpm

#endif // JRPM_COMMON_LOGGING_HH

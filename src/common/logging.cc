#include "logging.hh"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

#include "common/metrics.hh"

namespace jrpm
{

namespace
{

std::atomic<bool> quietFlag{false};

/** Failure-path flush hook (see logSetAbortHook). */
std::atomic<void (*)()> abortHook{nullptr};

/** Run the abort hook at most once, tolerating a hook that panics. */
void
runAbortHook()
{
    void (*hook)() = abortHook.exchange(nullptr);
    if (hook)
        hook();
}

/** Guards the throttle map (concurrent pipelines share it). */
std::mutex throttleMu;

/** Occurrences seen per throttle key (see warnThrottled). */
std::map<std::string, std::uint64_t> throttleCounts;

constexpr std::uint64_t kThrottleVerbatim = 5;

/** Compose the whole line first and write it with one stdio call, so
 *  concurrent pipelines never interleave mid-message. */
void
vreport(const char *tag, const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::vector<char> buf(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    std::fprintf(stderr, "%s: %s\n", tag, buf.data());
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    runAbortHook();
    std::abort();
}

namespace
{

/** Depth of active ScopedFatalCapture scopes on this thread. */
thread_local unsigned fatalCaptureDepth = 0;

} // namespace

ScopedFatalCapture::ScopedFatalCapture()
{
    ++fatalCaptureDepth;
}

ScopedFatalCapture::~ScopedFatalCapture()
{
    --fatalCaptureDepth;
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    if (fatalCaptureDepth > 0) {
        // Captured: surface the message as an exception the driver
        // turns into a per-case error result.  No abort hook — the
        // process lives on.
        va_list ap2;
        va_copy(ap2, ap);
        const int n = std::vsnprintf(nullptr, 0, fmt, ap);
        std::vector<char> buf(static_cast<std::size_t>(n) + 1);
        std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
        va_end(ap2);
        va_end(ap);
        throw FatalError(std::string(buf.data(),
                                     static_cast<std::size_t>(n)));
    }
    vreport("fatal", fmt, ap);
    va_end(ap);
    runAbortHook();
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("info", fmt, ap);
    va_end(ap);
}

void
warnThrottled(const std::string &key, const char *fmt, ...)
{
    std::uint64_t count;
    {
        std::lock_guard<std::mutex> lock(throttleMu);
        count = ++throttleCounts[key];
    }
    // Count before the quiet gate: a silenced benchmark run still
    // accounts for every throttled warning in the metrics report.
    MetricsRegistry::global().counter("log.throttled." + key).inc();
    if (quietFlag)
        return;
    if (count <= kThrottleVerbatim) {
        va_list ap;
        va_start(ap, fmt);
        vreport("warn", fmt, ap);
        va_end(ap);
        return;
    }
    // Print decade milestones only: 10th, 100th, 1000th, ...
    std::uint64_t milestone = 10;
    while (milestone < count)
        milestone *= 10;
    if (count == milestone)
        std::fprintf(stderr,
                     "warn: [%s] repeated %llu times "
                     "(similar messages suppressed)\n",
                     key.c_str(),
                     static_cast<unsigned long long>(count));
}

void
logReportSuppressed()
{
    std::lock_guard<std::mutex> lock(throttleMu);
    for (const auto &[key, count] : throttleCounts) {
        if (count > kThrottleVerbatim)
            MetricsRegistry::global()
                .counter("log.suppressed." + key)
                .inc(count - kThrottleVerbatim);
        if (count > kThrottleVerbatim && !quietFlag)
            std::fprintf(stderr,
                         "info: [%s] %llu similar warnings in total "
                         "(%llu suppressed)\n",
                         key.c_str(),
                         static_cast<unsigned long long>(count),
                         static_cast<unsigned long long>(
                             count - kThrottleVerbatim));
    }
    throttleCounts.clear();
}

void
setQuiet(bool quiet)
{
    quietFlag = quiet;
}

void
logSetAbortHook(void (*hook)())
{
    abortHook.store(hook);
}

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

bool
writeTextFile(const std::string &path, const std::string &text,
              const char *what)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot open %s output '%s'", what, path.c_str());
        return false;
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    return ok;
}

} // namespace jrpm

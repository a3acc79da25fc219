#include "common/obs.hh"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <mutex>

#include <fcntl.h>
#include <unistd.h>

#include "common/hostprof.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"

namespace jrpm
{
namespace obs
{

namespace
{

std::mutex armMu;
std::string armedTraceOut;
std::string armedMetricsOut;
std::atomic<bool> armed{false};
bool handlersRegistered = false;

void
atexitFlush()
{
    flush();
}

} // namespace

void
setOutputs(const std::string &trace_out, const std::string &metrics_out)
{
    std::lock_guard<std::mutex> lock(armMu);
    armedTraceOut = trace_out;
    armedMetricsOut = metrics_out;
    armed.store(!trace_out.empty() || !metrics_out.empty());
    if (!handlersRegistered) {
        handlersRegistered = true;
        // Function-local statics constructed after this registration
        // would be destroyed before the handler runs; construct the
        // two the export reads first.
        Trace::global();
        MetricsRegistry::global();
        std::atexit(atexitFlush);
        logSetAbortHook(&atexitFlush);
    }
}

void
flush()
{
    if (!armed.exchange(false))
        return;
    std::string trace_out, metrics_out;
    {
        std::lock_guard<std::mutex> lock(armMu);
        trace_out = armedTraceOut;
        metrics_out = armedMetricsOut;
    }
    if (!trace_out.empty()) {
        const Trace &trace = Trace::global();
        trace.writeChromeJson(trace_out);
        // Each ring keeps its track's tail, so a long trace silently
        // loses its start unless this says so.
        if (const std::uint64_t lost = trace.dropped()) {
            const std::uint64_t all = trace.totalRecorded();
            warn("trace '%s' is partial: it keeps %llu of %llu events "
                 "recorded, the last %zu of each track",
                 trace_out.c_str(),
                 static_cast<unsigned long long>(all - lost),
                 static_cast<unsigned long long>(all), trace.capacity());
        }
    }
    if (!metrics_out.empty()) {
        auto &reg = MetricsRegistry::global();
        if (hostprof::enabled()) {
            hostprof::flushThread();
            hostprof::publish(reg);
        }
        reg.writeFile(metrics_out);
    }
}

// ---- crash signals ---------------------------------------------------

namespace
{

/** The signals that end a worker without running atexit handlers. */
constexpr int kCrashSignals[] = {SIGSEGV, SIGBUS, SIGABRT, SIGFPE,
                                 SIGILL};

/** Pre-opened crash-record fd; -1 when disarmed.  Opened while the
 *  process is healthy so the handler never calls open()/malloc() for
 *  the record itself. */
std::atomic<int> crashFd{-1};

/** Guards against recursive crashes inside the handler. */
volatile std::sig_atomic_t crashing = 0;

/** Async-signal-safe decimal formatting into @p buf; returns the
 *  number of bytes written (no NUL). */
std::size_t
fmtU64(char *buf, std::uint64_t v)
{
    char tmp[24];
    std::size_t n = 0;
    do {
        tmp[n++] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v);
    for (std::size_t i = 0; i < n; ++i)
        buf[i] = tmp[n - 1 - i];
    return n;
}

void
crashSignalHandler(int sig)
{
    // Step 1 (async-signal-safe): record what killed us.
    const int fd = crashFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        char line[64];
        std::size_t n = 0;
        const char kSig[] = "signal ";
        for (const char *p = kSig; *p; ++p)
            line[n++] = *p;
        n += fmtU64(line + n, static_cast<std::uint64_t>(sig));
        const char kPid[] = " pid ";
        for (const char *p = kPid; *p; ++p)
            line[n++] = *p;
        n += fmtU64(line + n,
                    static_cast<std::uint64_t>(::getpid()));
        line[n++] = '\n';
        // A failed write leaves no recourse in a signal handler.
        [[maybe_unused]] const ssize_t w = ::write(fd, line, n);
        ::fsync(fd);
    }

    // Step 2 (best effort, see header): flush partial telemetry
    // exactly once, even if the flush itself crashes again.
    if (!crashing) {
        crashing = 1;
        flush();
    }

    // Step 3: die by the original signal.
    std::signal(sig, SIG_DFL);
    ::raise(sig);
}

} // namespace

void
armCrashSignals(const std::string &crash_path)
{
    const int prev = crashFd.exchange(-1);
    if (prev >= 0)
        ::close(prev);
    if (crash_path.empty()) {
        for (int sig : kCrashSignals)
            std::signal(sig, SIG_DFL);
        return;
    }
    const int fd = ::open(crash_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        warn("cannot open crash record '%s'", crash_path.c_str());
        return;
    }
    crashFd.store(fd);
    struct sigaction sa = {};
    sa.sa_handler = &crashSignalHandler;
    sigemptyset(&sa.sa_mask);
    // No SA_RESETHAND: the handler restores the default disposition
    // itself after the flush, and a second, different crash signal
    // mid-flush should still hit step 1.
    sa.sa_flags = 0;
    for (int sig : kCrashSignals)
        ::sigaction(sig, &sa, nullptr);
}

} // namespace obs
} // namespace jrpm

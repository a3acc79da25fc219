/**
 * @file
 * The process's one observability export: --trace-out= and
 * --metrics-out= are written exactly once, when the process ends.
 *
 * Like the paper's TEST hardware, the flight recorder and the metrics
 * registry collect while the program runs and are read out once
 * afterwards.  setOutputs() arms an atexit handler (normal exit and
 * fatal()) and the logging abort hook (panic(), which aborts and
 * skips atexit); armCrashSignals() adds the crash signals.  Whichever
 * runs first calls flush(), which writes the armed files and disarms,
 * so a run that dies early still leaves the telemetry that explains
 * the failure.  Pipelines never write these files.
 */

#ifndef JRPM_COMMON_OBS_HH
#define JRPM_COMMON_OBS_HH

#include <string>

namespace jrpm
{
namespace obs
{

/**
 * Arm the export for this process.  Empty paths disable the
 * corresponding output.  Later calls replace the paths (the handlers
 * are registered once).
 */
void setOutputs(const std::string &trace_out,
                const std::string &metrics_out);

/**
 * Write the armed outputs now and disarm: the trace as Chrome JSON,
 * then the metrics registry (JSON if the path ends in ".json", else
 * text) after publishing the host profiler's slots when it is on.
 * Only the first call after arming writes.  Called automatically at
 * exit, abort and crash signals.
 */
void flush();

/**
 * Extend the export to fatal signals (SIGSEGV, SIGBUS, SIGABRT,
 * SIGFPE, SIGILL): install handlers that
 *
 *  1. write a one-line crash record ("signal <n> pid <p>") to
 *     @p crash_path using only async-signal-safe calls — the file is
 *     opened (and truncated) now, while the process is healthy, so
 *     the handler itself only write()s;
 *  2. best-effort flush() the armed outputs (flush() allocates, so
 *     this step is *not* strictly async-signal-safe: a crash inside
 *     malloc can wedge here.  Crashed fleet workers are reaped by the
 *     supervisor's per-case timeout, which backstops exactly this);
 *  3. restore the default disposition and re-raise, so the exit
 *     status still reports the original signal.
 *
 * Calling again replaces the crash-record path.  An empty path
 * disarms the signal handlers (dispositions are restored).
 */
void armCrashSignals(const std::string &crash_path);

} // namespace obs
} // namespace jrpm

#endif // JRPM_COMMON_OBS_HH

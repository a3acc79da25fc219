/**
 * @file
 * Shared plumbing for the benchmark harnesses that regenerate the
 * paper's tables and figures.  Every binary accepts:
 *   --quick              run on the (smaller) profiling inputs
 *   --only=<name>        restrict to one benchmark
 *   --list               print the selectable workload names and exit
 *   --jobs=<n>           run up to n pipelines concurrently
 *   --repo=<dir>         crystal repository of persisted decompositions
 *   --warm=cold|warm|auto  warm-start policy against --repo
 *   --report-out=<path>  machine-readable JSON of every JrpmReport
 *   --trace-out=<path>   write a Chrome/Perfetto trace of the runs
 *   --metrics-out=<path> dump the metrics registry (.json for JSON)
 *   --oracle=<mode>      off | strict differential oracle
 *   --fault-plan=<spec>  inject faults (see FaultPlan::parse)
 *   --cases=<n>          campaign size (robustness, forge campaign)
 *   --seed=<n>           campaign seed (robustness, forge campaign)
 *   --hostprof           enable the host-cycle self-profiler
 *   --analytics-out=<path>  campaign analytics JSON (forge campaign)
 *   --fleet              crash-isolated multi-process campaign
 *   --manifest=<path>    resumable fleet progress journal
 *   --case-timeout-ms=<n>  per-case wall-clock deadline (fleet)
 *   --chaos-kill-ms=<n>  fleet self-test worker killer
 *   --forensics=<dir>    crash records + partial telemetry (fleet)
 *   --no-forced-sweep    skip the per-loop forced speculation pass
 *   --diff-fastpath      fast vs exact dispatch equivalence campaign
 *   --guided             coverage-guided generation (forge campaign)
 *   --guided-batch=<n>   cases per guided weight-update batch
 *   --distill=<dir>      distill the campaign to a signature corpus
 *   --weights=<bank>     worker-mode weight bank (fleet internal)
 */

#ifndef JRPM_BENCH_BENCH_UTIL_HH
#define JRPM_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "driver/driver.hh"
#include "workloads/workloads.hh"

namespace jrpm
{
namespace bench
{

/** Parsed command line. */
struct Options
{
    bool quick = false;
    std::string only;
    std::string traceOut;    ///< --trace-out=<path>
    std::string metricsOut;  ///< --metrics-out=<path>
    std::string oracle;      ///< --oracle=off|strict
    std::string faultPlan;   ///< --fault-plan=<spec>
    std::string reportOut;   ///< --report-out=<path>
    std::string repoDir;     ///< --repo=<dir>
    WarmMode warm = WarmMode::Auto; ///< --warm=cold|warm|auto
    std::uint32_t jobs = 1;         ///< --jobs=<n>
    std::uint32_t cases = 100;      ///< --cases=<n>
    std::uint64_t seed = 0x5eed;    ///< --seed=<n>
    // Forge campaign flags (bench_forge_campaign).
    std::string axes;        ///< --axes=<list|all>
    std::string corpusOut;   ///< --corpus-out=<dir>
    std::string replayDir;   ///< --replay=<dir>
    std::string emitStarter; ///< --emit-starter=<dir>
    bool shrinkDemo = false; ///< --shrink-demo
    // Observatory flags.
    bool hostprof = false;       ///< --hostprof
    std::string analyticsOut;    ///< --analytics-out=<path>
    // Fleet orchestrator flags (bench_forge_campaign).
    bool fleet = false;          ///< --fleet: multi-process campaign
    std::string manifest;        ///< --manifest=<path>
    std::uint32_t caseTimeoutMs = 120000; ///< --case-timeout-ms=<n>
    std::uint32_t chaosKillMs = 0;        ///< --chaos-kill-ms=<n>
    std::string workerRange;     ///< --worker-range=<lo>:<hi>:<att>
    std::string workerReplay;    ///< --worker-replay=<file>
    std::string forensics;       ///< --forensics=<dir>
    bool noForcedSweep = false;  ///< --no-forced-sweep
    /** --diff-fastpath: fast vs exact dispatch equivalence campaign
     *  (bench_forge_campaign). */
    bool diffFastPath = false;
    // Coverage-guided forge flags (bench_forge_campaign).
    bool guided = false;            ///< --guided
    std::uint32_t guidedBatch = 32; ///< --guided-batch=<n>
    std::string distillDir;         ///< --distill=<dir>
    std::string weights;            ///< --weights=<bank> (worker)
};

/** Parses flags; handles --help and --list (both print and exit).
 *  Registers the --report-out exit hook when requested, switches the
 *  flight recorder and host profiler on for --trace-out/--metrics-out
 *  and --hostprof, and arms their one export at exit (common/obs.hh). */
Options parseArgs(int argc, char **argv);

/** The workload list honoring --only, with --quick applied. */
std::vector<Workload> selectWorkloads(const Options &opt);

/** Default Jrpm configuration for benches, with --oracle and
 *  --fault-plan from the command line applied. */
JrpmConfig benchConfig(const Options &opt = {});

/** Run the full pipeline for one workload with progress output.
 *  Crystal-aware: honors --repo/--warm from the last parseArgs. */
JrpmReport runReport(const Workload &w, const JrpmConfig &cfg);

/**
 * Run the full pipeline for every workload through the batch driver:
 * up to --jobs pipelines concurrently, sharing the --repo crystal
 * repository.  Reports come back in workload order, so a bench's
 * output is identical whatever the worker count.
 */
std::vector<JrpmReport>
runSuite(const std::vector<Workload> &workloads,
         const JrpmConfig &cfg);

/** printf into a std::string with %.nf convenience. */
std::string fmt1(double v);
std::string fmt2(double v);
std::string fmtPct(double fraction);

} // namespace bench
} // namespace jrpm

#endif // JRPM_BENCH_BENCH_UTIL_HH

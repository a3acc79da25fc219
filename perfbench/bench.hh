/**
 * @file
 * Shared pieces of the end-to-end benchmark: options, the in-memory
 * span log of the traced run, per-layer accumulators, the stage
 * reissue that times each module's public calls, and small
 * statistics helpers.
 *
 * The benchmark only observes the Jrpm stack from outside: every span
 * wraps a call into a module's public API (see README.md for the
 * layer -> metric -> workload map).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/jrpm.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** goodput_rps counts correct results within this latency. */
constexpr double kLatencyLimitMs = 500.0;

/** Milliseconds from @p a to @p b. */
double msBetween(Clock::time_point a, Clock::time_point b);

/** Command-line options (see main.cc). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Directory for spans, determinism counts and scratch state. */
    std::string outDir = ".bench_build";
};

/** What one benchmark run produced. */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Output-check failures, one line each (any makes the run fail). */
    std::vector<std::string> problems;
    /** Metric name -> value; main.cc picks the ones to print. */
    std::map<std::string, double> metrics;
    /** Sample counts behind percentile metrics, for the report. */
    std::map<std::string, std::uint64_t> samples;
    /** Modelled numbers that must repeat exactly across repetitions
     *  and runs (the determinism guard), as exact strings. */
    std::map<std::string, std::string> counts;

    void fail(const std::string &why);
};

/** One metric as BENCHMARK.json lists it. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Printed with --trace 0, in BENCHMARK.json order. */
const std::vector<MetricDef> &endToEndMetrics();
/** Printed with --trace 1, in BENCHMARK.json order. */
const std::vector<MetricDef> &perLayerMetrics();

// ---- statistics --------------------------------------------------------

double median(std::vector<double> v);
/** The least of repeated timings of the same work: host interference
 *  only ever adds time, so it is the steadiest estimate. */
double least(const std::vector<double> &v);
/** Nearest-rank percentile, @p p in [0, 100]. */
double percentile(std::vector<double> v, double p);
double geomean(const std::vector<double> &v);
/** Peak resident set size of this process, MB. */
double peakRssMb();
/** Exact decimal rendering of a modelled double. */
std::string exact(double v);

// ---- spans -------------------------------------------------------------

/**
 * In-memory span log for the traced run.  A span is (name, start,
 * end, parent, case/request id); the layer is the name's prefix up to
 * the first '.', which is the src/ module the span's call lands in.
 * Spans around a whole opaque call (a pipeline, a campaign, a service
 * request) use the prefix "e2e": they are the denominators of the
 * unattributed share and the tracing overhead, not a layer.
 * Thread-safe so a load generator may record from its own thread.
 */
class SpanLog
{
  public:
    static constexpr std::size_t kNoParent = ~std::size_t{0};

    SpanLog();

    /** Open a span now; returns its index. */
    std::size_t open(const std::string &name, std::uint64_t id,
                     std::size_t parent = kNoParent);
    void close(std::size_t idx);
    /** Record a span whose bounds are already known. */
    std::size_t add(const std::string &name, std::uint64_t id,
                    std::size_t parent, Clock::time_point start,
                    Clock::time_point end);

    std::size_t size() const;

    /** Self time (duration minus the union of its children's
     *  intervals) summed per layer, ns. */
    std::map<std::string, double> selfNsByLayer() const;

    /** Write every span as JSON.  @return false on I/O error. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::uint64_t id = 0;
        std::size_t parent = kNoParent;
        Clock::time_point start, end;
    };
    mutable std::mutex mu;
    Clock::time_point origin;
    std::vector<Span> spans;
};

/** RAII span: open on construction, close on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name, std::uint64_t id,
               std::size_t parent = SpanLog::kNoParent);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::size_t index() const { return idx; }

  private:
    SpanLog *log;
    std::size_t idx;
};

// ---- per-layer accumulators -------------------------------------------

/** Work and host time per layer, summed over reissued stages. */
struct LayerTotals
{
    // jit
    double compileNs = 0;
    std::uint64_t compiledBytecodes = 0; ///< bytecodes x compiles
    std::uint64_t programBytecodes = 0;  ///< once per pipeline
    // cpu: plain sequential runs
    double seqNs = 0;
    std::uint64_t seqCycles = 0, seqInsts = 0;
    // tracer: annotated run vs plain run on the same input
    double profNs = 0, profPlainNs = 0;
    std::uint64_t profCycles = 0, profPlainCycles = 0;
    // profile
    double selectNs = 0;
    std::uint64_t selects = 0, stlsSelected = 0;
    // tls
    double tlsNs = 0;
    std::uint64_t tlsCoreCycles = 0, tlsCycles = 0, commits = 0,
                  violations = 0, fastMem = 0, slowSteps = 0,
                  sigHits = 0, sigFalsePositives = 0, gcCycles = 0;
    double discarded = 0, stateTotal = 0;
    // memory
    std::uint64_t l1Hits = 0, l1Misses = 0, l2Hits = 0, l2Misses = 0;
    double checksumNs = 0, snapshotNs = 0;
    std::uint64_t checksums = 0, snapshots = 0, snapshotBytes = 0;
    // core
    double oracleNs = 0, reportJsonNs = 0;
    std::uint64_t compares = 0, reportJsons = 0;
    /** Per pipeline: (JrpmSystem::run wall − the stages reissued
     *  right after it) ÷ that wall. */
    std::vector<double> unattributed;
    // crystal
    double lookupNs = 0, storeNs = 0;
    std::uint64_t lookups = 0, stores = 0;
};

/**
 * Run one workload's pipeline whole (JrpmSystem::run) and then its
 * Fig. 1 stages back to back through JrpmSystem's public
 * runSequential/runTls plus Analyzer::select and Oracle::compare,
 * timing each under a span and accumulating layer totals.  The calls
 * the runs make internally (Jit::compileAll, the oracle's memory
 * checksum and snapshot) are then timed on their own.  The stages
 * must reproduce the whole run's cycle counts exactly (a mismatch is
 * recorded in @p res).  With @p forced_sweep, every JIT-accepted loop
 * is also force-speculated and oracle-compared, as a forge case does.
 * @p cfg must name no crystal repository.
 * @return the whole run's report
 */
jrpm::JrpmReport reissuePipeline(SpanLog *log, std::size_t parent,
                                 std::uint64_t id, const jrpm::Workload &w,
                                 const jrpm::JrpmConfig &cfg,
                                 bool forced_sweep, LayerTotals &t,
                                 RunResult &res);

/** Time reportJson() on @p rep under a span. */
void timedReportJson(SpanLog *log, std::size_t parent, std::uint64_t id,
                     const jrpm::JrpmReport &rep, LayerTotals &t);

/** Fill the per-layer metrics derivable from @p t (and the spans'
 *  self times, divided by @p iterations) into @p res.  Layers with
 *  no work report 0. */
void layerMetrics(const LayerTotals &t, const SpanLog &log,
                  double iterations, RunResult &res);

/** Every per-layer metric name, set to 0 (layers a workload does
 *  not exercise keep 0). */
void zeroLayerMetrics(RunResult &res);

// ---- workloads ----------------------------------------------------------

RunResult runSuite(const Options &opt);
RunResult runForgeStrict(const Options &opt);
RunResult runServiceWarm(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH

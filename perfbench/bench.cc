#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include <sys/resource.h>

#include "common/logging.hh"
#include "core/oracle.hh"
#include "core/report_json.hh"
#include "jit/compiler.hh"
#include "profile/analyzer.hh"
#include "tls/machine.hh"
#include "tracer/test_profiler.hh"
#include "vm/runtime.hh"

namespace perfbench
{

using namespace jrpm;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

namespace
{

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

void
RunResult::fail(const std::string &why)
{
    problems.push_back(why);
}

// ---- statistics --------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
least(const std::vector<double> &v)
{
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
exact(double v)
{
    return strfmt("%.17g", v);
}

// ---- spans -------------------------------------------------------------

SpanLog::SpanLog() : origin(Clock::now()) {}

std::size_t
SpanLog::open(const std::string &name, std::uint64_t id,
              std::size_t parent)
{
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lk(mu);
    spans.push_back({name, id, parent, now, now});
    return spans.size() - 1;
}

void
SpanLog::close(std::size_t idx)
{
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lk(mu);
    spans[idx].end = now;
}

std::size_t
SpanLog::add(const std::string &name, std::uint64_t id,
             std::size_t parent, Clock::time_point start,
             Clock::time_point end)
{
    std::lock_guard<std::mutex> lk(mu);
    spans.push_back({name, id, parent, start, end});
    return spans.size() - 1;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lk(mu);
    return spans.size();
}

std::map<std::string, double>
SpanLog::selfNsByLayer() const
{
    std::lock_guard<std::mutex> lk(mu);
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != kNoParent)
            children[spans[i].parent].push_back(i);

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (std::size_t c : children[i])
            iv.emplace_back(std::max(spans[c].start, s.start),
                            std::min(spans[c].end, s.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0;
        Clock::time_point reach = s.start;
        for (const auto &[a, b] : iv) {
            const auto lo = std::max(a, reach);
            if (b > lo) {
                covered += nsBetween(lo, b);
                reach = b;
            }
        }
        const std::string layer = s.name.substr(0, s.name.find('.'));
        self[layer] += std::max(0.0, nsBetween(s.start, s.end) - covered);
    }
    return self;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lk(mu);
    std::fputs("{\"unit\":\"us\",\"spans\":[\n", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"id\":%llu,\"parent\":%lld,"
                     "\"start\":%.3f,\"end\":%.3f}\n",
                     i ? "," : "", s.name.c_str(),
                     static_cast<unsigned long long>(s.id),
                     s.parent == kNoParent
                         ? -1LL
                         : static_cast<long long>(s.parent),
                     nsBetween(origin, s.start) / 1e3,
                     nsBetween(origin, s.end) / 1e3);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog *l, const std::string &name,
                       std::uint64_t id, std::size_t parent)
    : log(l), idx(l->open(name, id, parent))
{
}

ScopedSpan::~ScopedSpan()
{
    log->close(idx);
}

// ---- stage reissue -------------------------------------------------------

namespace
{

RunDigest
digestOf(const RunOutcome &o)
{
    RunDigest d;
    d.halted = o.halted;
    d.uncaught = o.uncaught;
    d.exitValue = o.exitValue;
    d.output = o.vm.output;
    d.memChecksum = o.memChecksum;
    d.memImage = o.memImage;
    return d;
}

/** Reissued runs must reproduce the whole pipeline's simulation. */
void
expectSame(RunResult &res, const Workload &w, const char *what,
           const RunOutcome &got, const RunOutcome &want)
{
    if (got.cycles != want.cycles || got.insts != want.insts ||
        got.exitValue != want.exitValue)
        res.fail(strfmt("%s: reissued %s run differs from the "
                        "pipeline's (%llu vs %llu cycles)",
                        w.name.c_str(), what,
                        static_cast<unsigned long long>(got.cycles),
                        static_cast<unsigned long long>(want.cycles)));
}

/** Time one call, return its result and add its ns to @p acc. */
template <typename F>
auto
timed(SpanLog *log, const char *name, std::uint64_t id,
      std::size_t parent, double &acc, F &&fn)
{
    ScopedSpan s(log, name, id, parent);
    const auto t0 = Clock::now();
    auto r = fn();
    acc += nsBetween(t0, Clock::now());
    return r;
}

/**
 * Jit::compileAll in each mode the pipeline compiles in, into a
 * scratch code space (JrpmSystem keeps its compiler private).
 */
void
timeCompiles(SpanLog *log, std::size_t parent, std::uint64_t id,
             const Workload &w, const JrpmConfig &cfg,
             const std::vector<SelectedStl> &selections, LayerTotals &t)
{
    Jit jit(w.program, cfg.jit);
    std::vector<StlRequest> reqs;
    for (const SelectedStl &sel : selections)
        reqs.push_back({sel.loopId, sel.plan});
    for (CompileMode mode : {CompileMode::Plain, CompileMode::Profiling,
                             CompileMode::Tls}) {
        CodeSpace cs;
        timed(log, "jit.compile", id, parent, t.compileNs, [&] {
            jit.compileAll(cs, mode, reqs);
            return 0;
        });
        t.compiledBytecodes += jit.bytecodeCount();
    }
}

/**
 * Machine::memoryChecksum and memorySnapshot on a machine that holds
 * @p run's final memory image (restored from its strict-oracle
 * snapshot), as runSequential/runTls call them at the end of a run.
 */
void
timeOracleCapture(SpanLog *log, std::size_t parent, std::uint64_t id,
                  const JrpmConfig &cfg, const RunOutcome &run,
                  LayerTotals &t)
{
    Machine m(cfg.sys);
    if (run.memImage) {
        const std::vector<std::uint8_t> &img = *run.memImage;
        for (std::size_t a = 0; a < img.size(); ++a)
            if (img[a])
                m.memory().writeByte(static_cast<Addr>(a), img[a]);
    }
    const auto skip = VmRuntime::scratchRegions(cfg.vm, cfg.sys.numCpus);
    timed(log, "memory.checksum", id, parent, t.checksumNs,
          [&] { return m.memoryChecksum(skip); });
    t.checksums++;
    if (cfg.oracle.mode != OracleMode::Strict)
        return;
    const auto img = timed(log, "memory.snapshot", id, parent,
                           t.snapshotNs, [&] { return m.memorySnapshot(); });
    t.snapshots++;
    t.snapshotBytes += img.size();
}

} // namespace

JrpmReport
reissuePipeline(SpanLog *log, std::size_t parent, std::uint64_t id,
                const Workload &w, const JrpmConfig &cfg,
                bool forced_sweep, LayerTotals &t, RunResult &res)
{
    // The whole pipeline, then its stages right after it on the same
    // thread: the whole run's wall less the stages' is the part of
    // run() no stage accounts for.
    JrpmReport rep;
    double wholeNs = 0;
    {
        ScopedSpan s(log, "e2e.pipeline", id, parent);
        const auto p0 = Clock::now();
        rep = JrpmSystem(w, cfg).run();
        wholeNs = nsBetween(p0, Clock::now());
    }
    // The stages would otherwise run beside the whole run's
    // strict-oracle images and fault in fresh pages for their own.
    for (RunOutcome *o : {&rep.seqMain, &rep.seqProfileIn, &rep.profiled,
                          &rep.tls})
        o->memImage.reset();

    const std::vector<Word> &profArgs =
        w.profileArgs.empty() ? w.mainArgs : w.profileArgs;
    double stages = 0;
    auto sys = timed(log, "jit.analyze", id, parent, stages, [&] {
        return std::make_unique<JrpmSystem>(w, cfg);
    });
    t.programBytecodes += sys->jit().bytecodeCount();

    // Baselines: plain sequential runs on the main and profile inputs.
    double seqNs = 0;
    const RunOutcome seq =
        timed(log, "cpu.sequential_run", id, parent, seqNs,
              [&] { return sys->runSequential(w.mainArgs, false, nullptr); });
    expectSame(res, w, "sequential", seq, rep.seqMain);
    t.seqNs += seqNs;
    t.seqCycles += seq.cycles;
    t.seqInsts += seq.insts;
    stages += seqNs;

    // TEST overhead is measured against a plain run on the profiling
    // input, which the pipeline also runs when the inputs differ.
    double plainNs = seqNs;
    std::uint64_t plainCycles = seq.cycles;
    if (profArgs != w.mainArgs) {
        plainNs = 0;
        const RunOutcome plain =
            timed(log, "cpu.sequential_run", id, parent, plainNs,
                  [&] { return sys->runSequential(profArgs, false, nullptr); });
        plainCycles = plain.cycles;
        expectSame(res, w, "profile-input", plain, rep.seqProfileIn);
        t.seqNs += plainNs;
        t.seqCycles += plain.cycles;
        t.seqInsts += plain.insts;
        stages += plainNs;
    }

    TestProfiler prof(cfg.tracer);
    double profNs = 0;
    const RunOutcome profiled =
        timed(log, "tracer.profiled_run", id, parent, profNs,
              [&] { return sys->runSequential(profArgs, true, &prof); });
    expectSame(res, w, "profiled", profiled, rep.profiled);
    t.profNs += profNs;
    t.profCycles += profiled.cycles;
    t.profPlainNs += plainNs;
    t.profPlainCycles += plainCycles;
    stages += profNs;

    Analyzer an(cfg.analyzer);
    double selectNs = 0;
    timed(log, "profile.select", id, parent, selectNs, [&] {
        return an.select(sys->jit().loopInfos(), prof.profiles());
    });
    t.selectNs += selectNs;
    t.selects++;
    stages += selectNs;
    t.stlsSelected += rep.selections.size();

    // Steps 4-5: recompile the pipeline's selections and run them.
    double tlsNs = 0;
    const RunOutcome tls =
        timed(log, "tls.speculative_run", id, parent, tlsNs,
              [&] { return sys->runTls(w.mainArgs, rep.selections); });
    expectSame(res, w, "TLS", tls, rep.tls);
    stages += tlsNs;
    t.tlsNs += tlsNs;
    t.tlsCycles += tls.cycles;
    t.tlsCoreCycles += tls.cycles * cfg.sys.numCpus;
    t.commits += tls.stats.commits;
    t.violations += tls.stats.violations;
    t.fastMem += tls.stats.specFastMem;
    t.slowSteps += tls.stats.specSlowSteps;
    t.sigHits += tls.stats.sigHits;
    t.sigFalsePositives += tls.stats.sigFalsePositives;
    t.discarded += tls.stats.runViolated + tls.stats.waitViolated;
    t.stateTotal += tls.stats.total();
    t.gcCycles += tls.vm.gcCycles;
    t.l1Hits += tls.l1Hits;
    t.l1Misses += tls.l1Misses;
    t.l2Hits += tls.l2Hits;
    t.l2Misses += tls.l2Misses;

    const auto skip = VmRuntime::scratchRegions(cfg.vm, cfg.sys.numCpus);
    if (cfg.oracle.mode != OracleMode::Off) {
        double oracleNs = 0;
        const OracleReport orep =
            timed(log, "core.oracle_compare", id, parent, oracleNs, [&] {
                return Oracle::compare(cfg.oracle, digestOf(seq),
                                       digestOf(tls), skip);
            });
        t.oracleNs += oracleNs;
        t.compares++;
        stages += oracleNs;
        if (orep.match() != rep.oracle.match())
            res.fail(w.name + ": reissued oracle verdict differs");
    }
    t.unattributed.push_back((wholeNs - stages) / wholeNs);

    // Calls the runs above make internally, timed on their own.
    timeCompiles(log, parent, id, w, cfg, rep.selections, t);
    if (cfg.oracle.mode != OracleMode::Off)
        timeOracleCapture(log, parent, id, cfg, seq, t);

    // The forge campaign's forced sweep: every loop the JIT accepts,
    // one at a time, against the sequential golden run.
    if (forced_sweep && cfg.oracle.mode != OracleMode::Off &&
        seq.halted) {
        for (const LoopInfo &li : sys->jit().loopInfos()) {
            SelectedStl forcedSel;
            forcedSel.loopId = li.loopId;
            double forcedNs = 0;
            const RunOutcome forced =
                timed(log, "tls.forced_run", id, parent, forcedNs,
                      [&] { return sys->runTls(w.mainArgs, {forcedSel}); });
            const OracleReport orep = timed(
                log, "core.oracle_compare", id, parent, t.oracleNs, [&] {
                    return Oracle::compare(cfg.oracle, digestOf(seq),
                                           digestOf(forced), skip);
                });
            t.compares++;
            if (!orep.match())
                res.fail(strfmt("%s: forced loop %d diverged",
                                w.name.c_str(), li.loopId));
        }
    }
    return rep;
}

void
timedReportJson(SpanLog *log, std::size_t parent, std::uint64_t id,
                const JrpmReport &rep, LayerTotals &t)
{
    timed(log, "core.report_json", id, parent, t.reportJsonNs,
          [&] { return reportJson(rep); });
    t.reportJsons++;
}

// ---- per-layer metrics ---------------------------------------------------

namespace
{

/** The src/ modules the spans are named after. */
const char *const kLayers[] = {
    "workloads", "jit",    "cpu",    "tracer", "profile", "tls",
    "memory",    "core",   "crystal", "driver", "forge",  "service",
};

} // namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"wall_s", "s"},
        {"cases_per_s", "1/s"},
        {"sim_core_mcycles_per_s", "Mcycles/s"},
        {"latency_p50_ms", "ms"},
        {"latency_p99_ms", "ms"},
        {"goodput_rps", "1/s"},
        {"peak_rss_mb", "MB"},
        {"sim_speedup_geomean", "x"},
        {"sim_pred_err", "frac"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"workloads.build_ms", "ms"},
            {"jit.compile_ns_per_bytecode", "ns"},
            {"jit.bytecodes", "count"},
            {"cpu.seq_host_ns_per_cycle", "ns"},
            {"cpu.seq_cycles", "count"},
            {"cpu.insts", "count"},
            {"tracer.host_ns_per_cycle", "ns"},
            {"tracer.host_overhead", "x"},
            {"tracer.sim_slowdown", "x"},
            {"profile.select_us", "us"},
            {"profile.stls_selected", "count"},
            {"tls.host_ns_per_core_cycle", "ns"},
            {"tls.fast_mem", "count"},
            {"tls.slow_steps", "count"},
            {"tls.sig_false_pos_frac", "frac"},
            {"tls.cycles", "count"},
            {"tls.commits", "count"},
            {"tls.violations", "count"},
            {"tls.discarded_frac", "frac"},
            {"memory.l1_miss_frac", "frac"},
            {"memory.l2_miss_frac", "frac"},
            {"memory.checksum_ms", "ms"},
            {"memory.snapshot_ms", "ms"},
            {"memory.snapshot_mb", "MB"},
            {"vm.gc_frac", "frac"},
            {"core.oracle_compare_ms", "ms"},
            {"core.report_json_us", "us"},
            {"core.unattributed_frac", "frac"},
            {"crystal.lookup_us", "us"},
            {"crystal.store_us", "us"},
            {"crystal.hit_frac", "frac"},
            {"driver.efficiency", "frac"},
            {"forge.generate_us", "us"},
            {"forge.case_ms_p50", "ms"},
            {"forge.case_ms_p99", "ms"},
            {"forge.forced_runs", "count"},
            {"service.queue_ms_p50", "ms"},
            {"service.queue_ms_p99", "ms"},
            {"service.run_ms_p50", "ms"},
            {"service.overhead_ms_p50", "ms"},
            {"service.busy_frac", "frac"},
            {"service.steals", "count"},
            {"service.gen_lag_ms_p99", "ms"},
        };
        // Reserved up front: the defs point into these strings.
        static std::vector<std::string> selfNames;
        selfNames.reserve(std::size(kLayers));
        for (const char *layer : kLayers)
            selfNames.push_back(std::string(layer) + ".self_ms");
        for (const std::string &n : selfNames)
            d.push_back({n.c_str(), "ms"});
        d.push_back({"perfbench.trace_overhead_frac", "frac"});
        d.push_back({"perfbench.spans", "count"});
        return d;
    }();
    return defs;
}

void
zeroLayerMetrics(RunResult &res)
{
    for (const MetricDef &d : perLayerMetrics())
        res.metrics[d.name] = 0.0;
}

void
layerMetrics(const LayerTotals &t, const SpanLog &log, double iterations,
             RunResult &res)
{
    auto &m = res.metrics;
    const double it = std::max(iterations, 1.0);
    m["jit.compile_ns_per_bytecode"] =
        ratio(t.compileNs, static_cast<double>(t.compiledBytecodes));
    m["jit.bytecodes"] = static_cast<double>(t.programBytecodes) / it;

    m["cpu.seq_host_ns_per_cycle"] =
        ratio(t.seqNs, static_cast<double>(t.seqCycles));
    m["cpu.seq_cycles"] = static_cast<double>(t.seqCycles) / it;
    m["cpu.insts"] = static_cast<double>(t.seqInsts) / it;

    m["tracer.host_ns_per_cycle"] =
        ratio(t.profNs, static_cast<double>(t.profCycles));
    m["tracer.host_overhead"] = ratio(t.profNs, t.profPlainNs);
    m["tracer.sim_slowdown"] =
        ratio(static_cast<double>(t.profCycles),
              static_cast<double>(t.profPlainCycles));

    m["profile.select_us"] =
        ratio(t.selectNs / 1e3, static_cast<double>(t.selects));
    m["profile.stls_selected"] = static_cast<double>(t.stlsSelected) / it;

    m["tls.host_ns_per_core_cycle"] =
        ratio(t.tlsNs, static_cast<double>(t.tlsCoreCycles));
    m["tls.fast_mem"] = static_cast<double>(t.fastMem) / it;
    m["tls.slow_steps"] = static_cast<double>(t.slowSteps) / it;
    m["tls.sig_false_pos_frac"] =
        ratio(static_cast<double>(t.sigFalsePositives),
              static_cast<double>(t.sigHits));
    m["tls.cycles"] = static_cast<double>(t.tlsCycles) / it;
    m["tls.commits"] = static_cast<double>(t.commits) / it;
    m["tls.violations"] = static_cast<double>(t.violations) / it;
    m["tls.discarded_frac"] = ratio(t.discarded, t.stateTotal);

    m["memory.l1_miss_frac"] =
        ratio(static_cast<double>(t.l1Misses),
              static_cast<double>(t.l1Hits + t.l1Misses));
    m["memory.l2_miss_frac"] =
        ratio(static_cast<double>(t.l2Misses),
              static_cast<double>(t.l2Hits + t.l2Misses));
    m["memory.checksum_ms"] =
        ratio(t.checksumNs / 1e6, static_cast<double>(t.checksums));
    m["memory.snapshot_ms"] =
        ratio(t.snapshotNs / 1e6, static_cast<double>(t.snapshots));
    m["memory.snapshot_mb"] =
        ratio(static_cast<double>(t.snapshotBytes) / (1 << 20),
              static_cast<double>(t.snapshots));

    m["vm.gc_frac"] = ratio(static_cast<double>(t.gcCycles),
                            static_cast<double>(t.tlsCycles));

    m["core.oracle_compare_ms"] =
        ratio(t.oracleNs / 1e6, static_cast<double>(t.compares));
    m["core.report_json_us"] =
        ratio(t.reportJsonNs / 1e3, static_cast<double>(t.reportJsons));
    // A median over pipelines: one case that pays a one-off cost
    // (the first after a campaign frees its memory) would otherwise
    // set the sign of the sum.
    m["core.unattributed_frac"] = median(t.unattributed);

    m["crystal.lookup_us"] =
        ratio(t.lookupNs / 1e3, static_cast<double>(t.lookups));
    m["crystal.store_us"] =
        ratio(t.storeNs / 1e3, static_cast<double>(t.stores));

    const auto self = log.selfNsByLayer();
    for (const char *layer : kLayers) {
        const auto s = self.find(layer);
        m[std::string(layer) + ".self_ms"] =
            s == self.end() ? 0.0 : s->second / 1e6 / it;
    }
    m["perfbench.spans"] = static_cast<double>(log.size()) / it;
}

} // namespace perfbench

/**
 * @file
 * Workload `service-warm`: an in-process svc::JrpmService with three
 * workers and a crystal warm cache in a fresh directory, driven by one
 * open-loop generator thread over four connections.  The request mix
 * is the 26 named workloads on their quick inputs plus a fixed
 * forge-seed pool, mostly repeats (warm-cache hits), with a fixed
 * share of never-seen forge seeds (cold misses that write the cache).
 * The only workload where service framing and queueing, report
 * serialisation and crystal sit on the latency path.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>
#include <utility>

#include <poll.h>
#include <unistd.h>

#include "bench.hh"
#include "common/logging.hh"
#include "core/report_json.hh"
#include "crystal/crystal.hh"
#include "driver/driver.hh"
#include "forge/forge.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace jrpm;

namespace
{

constexpr std::uint32_t kWorkers = 3;
constexpr std::uint32_t kConns = 4;
/** Offered load, requests/s.  It keeps the workers busy about a fifth
 *  of the time on a quiet 4-core host and under half when the host is
 *  twice as slow: at 100 req/s a slow host pushed them past 60%, and
 *  queueing then amplified the host's speed drift. */
constexpr double kRate = 50.0;
/** Repeat forge seeds.  With the 26 named workloads and the fresh
 *  seeds, about three quarters of the requests are small forge
 *  programs, so the median falls inside their continuous cluster
 *  rather than at the gap between forge and named latencies. */
constexpr std::uint32_t kForgePool = 64;
/** Never-seen forge seeds per block of the 90 repeat keys: 6 of 96,
 *  about 6% of the requests. */
constexpr std::uint32_t kFreshPerBlock = 6;
constexpr std::uint64_t kForgePoolBase = 0xbe7c0;
/** Warm-cache entry cap: above the repeat keys plus every fresh seed
 *  a segment offers, so nothing is evicted.  With a cap just above the
 *  pool, LRU eviction turned a timing-dependent sixth of the forge
 *  repeats into cold misses, and the busy time moved with it. */
constexpr std::size_t kCacheCapacity = 1024;
/** Admission cap: far above the queue a lightly loaded server
 *  builds, so busy rejects mean the server stalled. */
constexpr std::uint32_t kAdmissionCap = 256;
/** A run is this many segments, each a fresh setup (cache directory,
 *  goldens, server) and then its share of the stream, so the setups
 *  sample the host's speed across the whole run. */
constexpr int kSegments = 5;
constexpr double kDrainSeconds = 20;

/** One distinct request: a named workload or a forge seed. */
struct Key
{
    std::string name; ///< empty for a forge seed
    std::uint64_t seed = 0;
};

/** The batch driver's answer for one key. */
struct Golden
{
    std::string json;   ///< reportJson() bytes
    JrpmReport report;
};

/** One scheduled request. */
struct Planned
{
    double dueS = 0;    ///< offset from the stream start
    std::size_t key = 0;
};

/** What came back for one request. */
struct Outcome
{
    std::size_t key = 0; ///< index into Setup::keys
    Clock::time_point due, sent, recv;
    bool answered = false;
    bool result = false; ///< a result frame (not an error)
    bool ok = false;     ///< a result matching the golden report
    double queueMs = 0, runMs = 0;
    double coreCycles = 0, totalSpeedup = 0, predErr = 0;
};

Workload
quickWorkload(const Key &k)
{
    Workload w = k.name.empty()
                     ? forge::scenarioWorkload(forge::generate(k.seed))
                     : wl::workloadByName(k.name);
    // The server's quick mode: run the profiling input as the main one.
    if (!w.profileArgs.empty()) {
        w.mainArgs = w.profileArgs;
        w.profileArgs.clear();
    }
    return w;
}

/** Everything a segment's streams need, built during its setup. */
struct Setup
{
    std::vector<Key> keys;           ///< pool first, then fresh seeds
    std::size_t poolSize = 0;
    std::vector<Golden> golden;      ///< per key
    std::vector<std::vector<Planned>> streams;
    std::string dir;                 ///< warm-cache directory
    std::unique_ptr<svc::JrpmService> server;

    Setup() = default;
    Setup(const Setup &) = delete;
    Setup &operator=(const Setup &) = delete;
    ~Setup()
    {
        if (server) {
            server->shutdown();
            server->join();
        }
        if (!dir.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
    }
};

/**
 * Open-loop schedules from the seed and segment: exponential gaps at
 * kRate.  The mix comes in blocks of every pool key once plus
 * kFreshPerBlock new forge seeds, each block in a seeded random order,
 * so every seed offers the same mix and only the order, timing and
 * fresh seeds differ.
 */
void
plan(Setup &s, const Options &opt, int segment, int streams, double seconds)
{
    const auto seg = static_cast<std::uint64_t>(segment);
    std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ull + 17 +
                        0x1000u * seg);
    std::exponential_distribution<double> gap(kRate);
    std::uint64_t fresh = 0;
    for (int k = 0; k < streams; ++k) {
        std::vector<Planned> st;
        std::vector<std::size_t> block;
        for (double t = gap(rng); t < seconds; t += gap(rng)) {
            if (block.empty()) {
                for (std::size_t i = 0; i < s.poolSize; ++i)
                    block.push_back(i);
                for (std::uint32_t i = 0; i < kFreshPerBlock; ++i) {
                    Key key;
                    key.seed = (opt.seed << 32) + 0x5eed0000u +
                               (seg << 12) + fresh++;
                    s.keys.push_back(key);
                    block.push_back(s.keys.size() - 1);
                }
                std::shuffle(block.begin(), block.end(), rng);
            }
            st.push_back({t, block.back()});
            block.pop_back();
        }
        s.streams.push_back(std::move(st));
    }
}

/** Golden reports through the batch driver on one job; with
 *  @p repo_dir the cold runs also fill the warm cache. */
void
goldens(Setup &s, std::size_t first, std::size_t last,
        const std::string &repo_dir, RunResult &res)
{
    std::vector<DriverJob> jobs;
    for (std::size_t i = first; i < last; ++i)
        jobs.push_back({quickWorkload(s.keys[i]), JrpmConfig{}, {}});
    DriverConfig dc;
    dc.jobs = 1;
    dc.repoDir = repo_dir;
    const auto rs = BatchDriver(dc).run(std::move(jobs));
    for (std::size_t i = first; i < last; ++i) {
        const DriverResult &r = rs[i - first];
        if (!r.ok) {
            res.fail("golden run failed: " + r.error);
            continue;
        }
        s.golden[i].report = r.report;
        s.golden[i].json = reportJson(r.report);
    }
}

std::unique_ptr<Setup>
setUp(const Options &opt, int segment, int streams, double seconds,
      RunResult &res)
{
    auto s = std::make_unique<Setup>();
    for (const Workload &w : wl::allWorkloads())
        s->keys.push_back({w.name, 0});
    for (std::uint32_t i = 0; i < kForgePool; ++i)
        s->keys.push_back({"", kForgePoolBase + i});
    s->poolSize = s->keys.size();
    plan(*s, opt, segment, streams, seconds);
    s->golden.resize(s->keys.size());

    s->dir = strfmt("%s/tmp/service-%d-%d", opt.outDir.c_str(),
                    static_cast<int>(::getpid()), segment);
    std::filesystem::remove_all(s->dir);
    goldens(*s, 0, s->poolSize, s->dir, res);
    goldens(*s, s->poolSize, s->keys.size(), "", res);

    svc::ServiceConfig sc;
    sc.workers = kWorkers;
    sc.admissionCap = kAdmissionCap;
    sc.cache.dir = s->dir;
    sc.cache.capacity = kCacheCapacity;
    sc.quick = true;
    s->server = std::make_unique<svc::JrpmService>(sc);
    std::string err;
    if (!s->server->start(&err))
        res.fail("server start: " + err);
    return s;
}

/** Check one result frame against the golden report. */
void
judge(const Setup &s, std::size_t key, const std::string &raw,
      const JsonValue &v, Outcome &o)
{
    const Golden &g = s.golden[key];
    const JsonValue &rep = v["report"];
    o.queueMs = v["queueMs"].number();
    o.runMs = v["runMs"].number();
    if (!rep["warmStart"].boolean()) {
        // Cold misses are byte-identical to the batch driver.
        o.ok = raw.find("\"report\":" + g.json + "}") != std::string::npos;
    } else {
        // Warm hits skip profiling; results and TLS timing must match.
        const JrpmReport &r = g.report;
        o.ok = rep["tls"]["exitValue"].number() == r.tls.exitValue &&
               rep["tls"]["halted"].boolean() == r.tls.halted &&
               rep["tls"]["cycles"].number() ==
                   static_cast<double>(r.tls.cycles) &&
               rep["seqMain"]["exitValue"].number() == r.seqMain.exitValue &&
               rep["seqMain"]["cycles"].number() ==
                   static_cast<double>(r.seqMain.cycles) &&
               rep["outputsMatch"].boolean() == r.outputsMatch;
    }
    const double seq = rep["seqMain"]["cycles"].number();
    const double tls = rep["tls"]["cycles"].number();
    o.coreCycles = seq + rep["phases"]["profiling"].number() +
                   JrpmConfig{}.sys.numCpus * tls;
    o.totalSpeedup = rep["totalSpeedup"].number();
    o.predErr = std::fabs(rep["predictedTlsCycles"].number() / seq -
                          tls / seq);
}

/** Tallies of one or more streams. */
struct StreamStats
{
    std::vector<Outcome> out;
    std::uint64_t protocolErrors = 0, busy = 0, errors = 0;
    std::uint64_t mismatches = 0, unanswered = 0;

    void append(const StreamStats &o)
    {
        out.insert(out.end(), o.out.begin(), o.out.end());
        protocolErrors += o.protocolErrors;
        busy += o.busy;
        errors += o.errors;
        mismatches += o.mismatches;
        unanswered += o.unanswered;
    }
};

/**
 * One open-loop stream from the generator thread: send each request
 * when due, round-robin over the connections, and read responses in
 * between.  Latency is measured from the due time.
 */
StreamStats
drive(const Setup &s, const std::vector<Planned> &plan, SpanLog *log)
{
    StreamStats st;
    st.out.resize(plan.size());
    std::vector<svc::ServiceClient> conns(kConns);
    for (auto &c : conns) {
        std::string err;
        if (!c.connect(s.server->port(), &err)) {
            st.protocolErrors++;
            return st;
        }
    }
    std::vector<pollfd> fds;
    for (auto &c : conns)
        fds.push_back({c.nativeHandle(), POLLIN, 0});

    std::size_t next = 0, pending = 0;
    const Clock::time_point start = Clock::now();
    auto dueAt = [&](std::size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(plan[i].dueS));
    };
    auto handle = [&](const std::string &raw) {
        JsonValue v;
        if (!jsonParse(raw, v)) {
            st.protocolErrors++;
            return;
        }
        const auto id = static_cast<std::size_t>(v["id"].number());
        if (id == 0 || id > plan.size() || st.out[id - 1].answered) {
            st.protocolErrors++;
            return;
        }
        Outcome &o = st.out[id - 1];
        o.answered = true;
        o.recv = Clock::now();
        --pending;
        if (v["kind"].str == "result") {
            o.result = true;
            judge(s, plan[id - 1].key, raw, v, o);
            if (!o.ok)
                st.mismatches++;
        } else if (v["status"].str == "busy") {
            st.busy++;
        } else {
            st.errors++;
        }
    };

    const auto drainEnd = [&] {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               (plan.empty() ? 0 : plan.back().dueS) +
                               kDrainSeconds));
    }();
    while ((next < plan.size() || pending > 0) &&
           Clock::now() < drainEnd) {
        auto now = Clock::now();
        while (next < plan.size() && dueAt(next) <= now) {
            svc::Request r;
            r.id = next + 1;
            r.kind = svc::ReqKind::Submit;
            const Key &k = s.keys[plan[next].key];
            if (k.name.empty()) {
                r.haveSeed = true;
                r.seed = k.seed;
            } else {
                r.workload = k.name;
            }
            Outcome &o = st.out[next];
            o.key = plan[next].key;
            o.due = dueAt(next);
            if (!conns[next % kConns].send(r))
                st.protocolErrors++;
            o.sent = Clock::now();
            ++pending;
            ++next;
            now = Clock::now();
        }
        int waitMs = 20;
        if (next < plan.size())
            waitMs = std::clamp(
                static_cast<int>(msBetween(now, dueAt(next))), 0, 20);
        ::poll(fds.data(), fds.size(), waitMs);
        for (std::size_t c = 0; c < conns.size(); ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            if (!conns[c].pump()) {
                st.protocolErrors++;
                return st;
            }
            std::string raw;
            while (conns[c].next(raw))
                handle(raw);
        }
    }
    for (std::size_t i = 0; i < st.out.size(); ++i) {
        const Outcome &o = st.out[i];
        if (!o.answered) {
            st.unanswered++;
            continue;
        }
        if (!log)
            continue;
        // The request span and its parts: the generator's lag, then
        // the server's queue and run times from the result frame,
        // placed back from the receive time.
        const std::size_t req = log->add("e2e.request", i + 1,
                                         SpanLog::kNoParent, o.due, o.recv);
        log->add("perfbench.gen_lag", i + 1, req, o.due, o.sent);
        const auto ms = [](double v) {
            return std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(v));
        };
        const auto runStart = o.recv - ms(o.runMs);
        log->add("service.queue", i + 1, req, runStart - ms(o.queueMs),
                 runStart);
        log->add("e2e.pipeline", i + 1, req, runStart, o.recv);
    }
    return st;
}

/**
 * End-to-end numbers of the streams.  Each of the @p pool_size repeat
 * keys comes back about fifteen times a run, and its latency and run
 * time are the least over those repeats: host interference only ever
 * adds time, and over raw requests the percentiles followed the host's
 * stalls rather than the service.  A fresh seed is asked once, so it
 * counts with its own run time and stays out of the percentiles.
 */
void
streamMetrics(const StreamStats &st, std::size_t pool_size, RunResult &res)
{
    std::vector<std::vector<double>> keyLat(pool_size), keyRun(pool_size);
    std::vector<double> speedups, queue, run, overhead, lag;
    double cycles = 0, good = 0, predErr = 0;
    std::uint64_t results = 0;
    for (const Outcome &o : st.out) {
        if (!o.answered)
            continue;
        lag.push_back(msBetween(o.due, o.sent));
        if (!o.result)
            continue;
        const double l = msBetween(o.due, o.recv);
        if (o.key < pool_size) {
            keyLat[o.key].push_back(l);
            keyRun[o.key].push_back(o.runMs);
        }
        queue.push_back(o.queueMs);
        run.push_back(o.runMs);
        overhead.push_back(l - o.queueMs - o.runMs);
        speedups.push_back(o.totalSpeedup);
        cycles += o.coreCycles;
        predErr += o.predErr;
        ++results;
        if (o.ok && l <= kLatencyLimitMs)
            ++good;
    }
    std::vector<double> lat;
    for (const auto &v : keyLat)
        if (!v.empty())
            lat.push_back(least(v));
    // The stream's own length is set by the schedule, so the time
    // metrics use the workers' busy time instead: every result's run
    // time (its key's least), spread over the workers.
    double busyMs = 0;
    for (const Outcome &o : st.out)
        if (o.result)
            busyMs += o.key < pool_size ? least(keyRun[o.key]) : o.runMs;
    const double wallS = busyMs / 1e3 / kWorkers;
    auto &m = res.metrics;
    m["wall_s"] = wallS;
    m["cases_per_s"] = static_cast<double>(results) / wallS;
    m["sim_core_mcycles_per_s"] = cycles / 1e6 / (busyMs / 1e3);
    m["latency_p50_ms"] = percentile(lat, 50);
    m["latency_p99_ms"] = percentile(lat, 99);
    res.samples["latency (repeat-key minima)"] = lat.size();
    m["goodput_rps"] = good / wallS;
    m["sim_speedup_geomean"] = geomean(speedups);
    m["sim_pred_err"] = results ? predErr / static_cast<double>(results) : 0;
    m["service.queue_ms_p50"] = percentile(queue, 50);
    m["service.queue_ms_p99"] = percentile(queue, 99);
    m["service.run_ms_p50"] = percentile(run, 50);
    m["service.overhead_ms_p50"] = percentile(overhead, 50);
    m["service.gen_lag_ms_p99"] = percentile(lag, 99);
    m["service.busy_frac"] =
        st.out.empty() ? 0
                       : static_cast<double>(st.busy) /
                             static_cast<double>(st.out.size());
}

void
tally(const StreamStats &st, RunResult &res)
{
    res.attempted += st.out.size();
    const std::uint64_t bad = st.busy + st.errors + st.mismatches +
                              st.unanswered;
    res.failed += bad;
    if (bad || st.protocolErrors)
        res.fail(strfmt("service: %llu busy, %llu errors, %llu result "
                        "mismatches, %llu unanswered, %llu protocol errors",
                        static_cast<unsigned long long>(st.busy),
                        static_cast<unsigned long long>(st.errors),
                        static_cast<unsigned long long>(st.mismatches),
                        static_cast<unsigned long long>(st.unanswered),
                        static_cast<unsigned long long>(st.protocolErrors)));
}

/**
 * Modelled numbers of every key (determinism guard): the pool's must
 * repeat in every segment's setup; each segment's fresh seeds are
 * recorded under its own prefix.
 */
void
mergeKeyCounts(const Setup &s, int segment, RunResult &res)
{
    std::uint64_t freshSeq = 0, freshTls = 0;
    for (std::size_t i = 0; i < s.keys.size(); ++i) {
        const JrpmReport &r = s.golden[i].report;
        if (i >= s.poolSize) {
            freshSeq += r.seqMain.cycles;
            freshTls += r.tls.cycles;
            continue;
        }
        const std::string p =
            s.keys[i].name.empty()
                ? strfmt("forge%llx.", static_cast<unsigned long long>(
                                           s.keys[i].seed))
                : s.keys[i].name + ".";
        using Count = std::pair<const char *, std::uint64_t>;
        for (const Count &c : {Count{"seq_cycles", r.seqMain.cycles},
                               Count{"tls_cycles", r.tls.cycles},
                               Count{"commits", r.tls.stats.commits},
                               Count{"violations", r.tls.stats.violations}}) {
            const std::string name = p + c.first;
            const std::string value = std::to_string(c.second);
            if (segment == 0)
                res.counts[name] = value;
            else if (res.counts[name] != value)
                res.fail("service: modelled counts of " + name +
                         " drifted between setups");
        }
    }
    const std::string f = strfmt("s%d.fresh.", segment);
    res.counts[f + "keys"] = std::to_string(s.keys.size() - s.poolSize);
    res.counts[f + "seq_cycles"] = std::to_string(freshSeq);
    res.counts[f + "tls_cycles"] = std::to_string(freshTls);
}

double
meanLatencyMs(const StreamStats &st)
{
    double sum = 0, n = 0;
    for (const Outcome &o : st.out)
        if (o.answered) {
            sum += msBetween(o.due, o.recv);
            n += 1;
        }
    return n ? sum / n : 0.0;
}

/**
 * The rest of a --trace 1 run, after every segment's untraced and
 * traced streams: crystal calls timed against the last segment's live
 * cache, and the pool's pipelines run and reissued stage by stage on
 * this thread.
 */
void
tracedRun(const Options &opt, Setup &s, const StreamStats &plain,
          const StreamStats &traced, SpanLog &log, RunResult &res)
{
    LayerTotals t;
    RunResult tr;
    streamMetrics(traced, s.poolSize, tr);
    for (const auto &[k, v] : tr.metrics)
        if (k.rfind("service.", 0) == 0)
            res.metrics[k] = v;

    // Crystal: look up every repeat key in the live cache, and store
    // each hit into a scratch repository.
    const std::string scratchDir = s.dir + "-store";
    {
        CrystalRepo scratch(scratchDir);
        for (std::size_t i = 0; i < s.poolSize; ++i) {
            CrystalEntry entry;
            const auto l0 = Clock::now();
            bool hit;
            {
                ScopedSpan sp(&log, "crystal.lookup", i + 1);
                hit = s.server->repo()->lookup(
                    s.golden[i].report.fingerprint, entry);
            }
            t.lookupNs += msBetween(l0, Clock::now()) * 1e6;
            t.lookups++;
            if (!hit)
                continue;
            const auto s0 = Clock::now();
            {
                ScopedSpan sp(&log, "crystal.store", i + 1);
                scratch.store(entry);
            }
            t.storeNs += msBetween(s0, Clock::now()) * 1e6;
            t.stores++;
        }
    }
    std::error_code ec;
    std::filesystem::remove_all(scratchDir, ec);

    // The pool's pipelines, run whole and then stage by stage.
    const JrpmConfig base;
    for (std::size_t i = 0; i < s.poolSize; ++i) {
        ScopedSpan span(&log, "e2e.reissue", i + 1);
        const JrpmReport r =
            reissuePipeline(&log, span.index(), i + 1,
                            quickWorkload(s.keys[i]), base, false, t, res);
        if (r.tls.cycles != s.golden[i].report.tls.cycles)
            res.fail("reissued pipeline differs from its golden report");
        timedReportJson(&log, span.index(), i + 1, r, t);
    }

    layerMetrics(t, log, 1.0, res);
    res.metrics["perfbench.trace_overhead_frac"] =
        (meanLatencyMs(traced) - meanLatencyMs(plain)) /
        meanLatencyMs(plain);
    const std::string path = strfmt(
        "%s/traces/service-warm-seed%llu.json", opt.outDir.c_str(),
        static_cast<unsigned long long>(opt.seed));
    if (!log.write(path))
        res.fail("cannot write " + path);
}

} // namespace

RunResult
runServiceWarm(const Options &opt)
{
    RunResult res;
    // The traced run gives each segment an untraced and a traced
    // stream, so their difference gives the tracing overhead.
    const int streams = opt.trace ? 2 : 1;
    const double segmentSeconds = opt.seconds / kSegments / streams;
    if (opt.trace)
        zeroLayerMetrics(res);

    std::unique_ptr<Setup> s;
    std::vector<double> setups;
    StreamStats plain, traced;
    SpanLog log;
    std::uint64_t steals = 0, hits = 0, lookups = 0;
    for (int seg = 0; seg < kSegments; ++seg) {
        s.reset();
        const auto t0 = Clock::now();
        s = setUp(opt, seg, streams, segmentSeconds, res);
        setups.push_back(msBetween(t0, Clock::now()) / 1e3);
        mergeKeyCounts(*s, seg, res);
        if (!res.problems.empty())
            return res;

        const StreamStats p = drive(*s, s->streams[0], nullptr);
        tally(p, res);
        plain.append(p);
        if (opt.trace) {
            const StreamStats tr = drive(*s, s->streams[1], &log);
            tally(tr, res);
            traced.append(tr);
            const CrystalStats cs = s->server->repo()->stats();
            steals += s->server->schedulerStats().steals;
            hits += cs.hits;
            lookups += cs.hits + cs.misses;
        }
    }
    res.metrics["setup_s"] = median(setups);
    std::printf("service-warm: peak RSS after the streams %.1f MB\n",
                peakRssMb());
    streamMetrics(plain, s->poolSize, res);
    if (opt.trace) {
        tracedRun(opt, *s, plain, traced, log, res);
        res.metrics["service.steals"] = static_cast<double>(steals);
        res.metrics["crystal.hit_frac"] =
            lookups ? static_cast<double>(hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    }
    return res;
}

} // namespace perfbench

/**
 * @file
 * Workload `suite`: all 26 Table 3 programs on their full inputs
 * through JrpmSystem::run() via the batch driver with one job, oracle
 * off and no crystal repository.  Simulator-bound: the TLS, CPU,
 * memory-model and tracer layers carry nearly all of the host time,
 * while the oracle, crystal and service layers do no work.
 */

#include <cmath>
#include <cstdio>

#include "bench.hh"
#include "common/logging.hh"
#include "driver/driver.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace jrpm;

namespace
{

constexpr int kSetupRepeats = 25;

/** Simulated core-cycles of one pipeline: sequential runs count x1,
 *  the TLS run x numCpus. */
double
coreCycles(const Workload &w, const JrpmReport &r, std::uint32_t cpus)
{
    double c = static_cast<double>(r.seqMain.cycles + r.profiled.cycles) +
               static_cast<double>(r.tls.cycles) * cpus;
    if (!w.profileArgs.empty() && w.profileArgs != w.mainArgs)
        c += static_cast<double>(r.seqProfileIn.cycles);
    return c;
}

/** The modelled numbers of one pass (determinism guard). */
std::map<std::string, std::string>
passCounts(const std::vector<Workload> &ws,
           const std::vector<DriverResult> &rs)
{
    std::map<std::string, std::string> c;
    std::vector<double> speedups;
    double predErr = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
        const JrpmReport &r = rs[i].report;
        const std::string p = ws[i].name + ".";
        c[p + "seq_cycles"] = std::to_string(r.seqMain.cycles);
        c[p + "tls_cycles"] = std::to_string(r.tls.cycles);
        c[p + "commits"] = std::to_string(r.tls.stats.commits);
        c[p + "violations"] = std::to_string(r.tls.stats.violations);
        speedups.push_back(r.totalSpeedup);
        const double seq = static_cast<double>(r.seqMain.cycles);
        predErr += std::fabs(r.predictedTlsCycles / seq -
                             static_cast<double>(r.tls.cycles) / seq);
    }
    c["sim_speedup_geomean"] = exact(geomean(speedups));
    c["sim_pred_err"] = exact(predErr / static_cast<double>(ws.size()));
    return c;
}

std::vector<DriverJob>
plainJobs(const std::vector<Workload> &ws, const JrpmConfig &cfg)
{
    std::vector<DriverJob> jobs;
    for (const Workload &w : ws)
        jobs.push_back({w, cfg, {}});
    return jobs;
}

/** Check one pass's outputs; returns failures. */
std::uint64_t
checkPass(const std::vector<Workload> &ws,
          const std::vector<DriverResult> &rs, RunResult &res)
{
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
        if (!rs[i].ok || !rs[i].report.outputsMatch) {
            ++failed;
            res.fail(ws[i].name + ": " +
                     (rs[i].ok ? "TLS outputs differ from sequential"
                               : rs[i].error));
        }
    }
    return failed;
}

} // namespace

RunResult
runSuite(const Options &opt)
{
    RunResult res;
    std::vector<Workload> ws;
    std::vector<double> setups;
    // Building the workloads takes well under a millisecond, so its
    // samples are spread over the whole run (a batch before every
    // pass) and setup_s is their median.
    auto setUp = [&] {
        for (int i = 0; i < kSetupRepeats; ++i) {
            const auto t0 = Clock::now();
            ws = wl::allWorkloads();
            setups.push_back(msBetween(t0, Clock::now()) / 1e3);
        }
    };
    setUp();

    const JrpmConfig cfg; // oracle off, no crystal repository
    DriverConfig dc;
    dc.jobs = 1;
    const std::uint32_t cpus = cfg.sys.numCpus;

    // Each workload's pipeline wall times over the passes.  The host
    // speed drifts by tens of percent within seconds, but interference
    // only ever adds time, so the timing metrics are built from each
    // workload's least time: wall_s is a pass assembled from the 26
    // minima.
    std::vector<std::vector<double>> lat(ws.size());
    std::vector<bool> allOk(ws.size(), true);
    std::vector<double> passWalls, efficiency;
    double passCycles = 0;
    std::map<std::string, std::string> firstCounts;

    // One untraced pass: timings plus the output and determinism
    // checks every pass gets.
    auto untracedPass = [&] {
        setUp();
        auto jobs = plainJobs(ws, cfg);
        const auto t0 = Clock::now();
        std::vector<DriverResult> rs = BatchDriver(dc).run(std::move(jobs));
        const double wallMs = msBetween(t0, Clock::now());
        res.attempted += ws.size();
        res.failed += checkPass(ws, rs, res);
        const auto counts = passCounts(ws, rs);
        if (firstCounts.empty())
            firstCounts = counts;
        else if (counts != firstCounts)
            res.fail("suite: modelled counts drifted between passes");
        double cycles = 0, busyMs = 0;
        for (std::size_t i = 0; i < ws.size(); ++i) {
            cycles += coreCycles(ws[i], rs[i].report, cpus);
            busyMs += rs[i].wallMs;
            lat[i].push_back(rs[i].wallMs);
            allOk[i] = allOk[i] && rs[i].ok && rs[i].report.outputsMatch;
        }
        passCycles = cycles;
        passWalls.push_back(wallMs / 1e3);
        efficiency.push_back(busyMs / wallMs);
        return wallMs;
    };

    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opt.seconds);
    if (!opt.trace) {
        do
            untracedPass();
        while (Clock::now() < deadline);
    } else {
        // Traced iterations: an untraced pass and the same pass with a
        // span around BatchDriver::run and each pipeline, in turns
        // first, so a steady drift in host speed cancels out of their
        // ratio; then every pipeline run again whole and stage by
        // stage.
        zeroLayerMetrics(res);
        SpanLog log;
        LayerTotals t;
        {
            ScopedSpan s(&log, "workloads.build", 0);
            ws = wl::allWorkloads();
        }
        std::vector<double> overhead;
        double iterations = 0;
        do {
            const bool plainFirst = static_cast<int>(iterations) % 2 == 0;
            double plainMs = plainFirst ? untracedPass() : 0;
            std::vector<DriverJob> jobs(ws.size());
            const auto t0 = Clock::now();
            const std::size_t batch = log.open("driver.batch", 0);
            for (std::size_t i = 0; i < ws.size(); ++i) {
                jobs[i].workload = ws[i];
                jobs[i].cfg = cfg;
                jobs[i].custom = [&, i, batch] {
                    ScopedSpan s(&log, "e2e.pipeline", i, batch);
                    return JrpmSystem(ws[i], cfg).run();
                };
            }
            std::vector<DriverResult> rs =
                BatchDriver(dc).run(std::move(jobs));
            log.close(batch);
            const double tracedMs = msBetween(t0, Clock::now());
            if (!plainFirst)
                plainMs = untracedPass();
            overhead.push_back(tracedMs / plainMs - 1);
            res.failed += checkPass(ws, rs, res);
            res.attempted += ws.size();
            for (std::size_t i = 0; i < ws.size(); ++i) {
                if (!rs[i].ok)
                    continue;
                ScopedSpan s(&log, "e2e.reissue", i);
                const JrpmReport r = reissuePipeline(&log, s.index(), i, ws[i],
                                                     cfg, false, t, res);
                timedReportJson(&log, s.index(), i, r, t);
            }
            iterations += 1;
        } while (Clock::now() < deadline);

        layerMetrics(t, log, iterations, res);
        res.metrics["workloads.build_ms"] = median(setups) * 1e3;
        res.metrics["driver.efficiency"] = median(efficiency);
        res.metrics["perfbench.trace_overhead_frac"] = median(overhead);
        const std::string path = strfmt("%s/traces/suite-seed%llu.json",
                                        opt.outDir.c_str(),
                                        static_cast<unsigned long long>(
                                            opt.seed));
        if (!log.write(path))
            res.fail("cannot write " + path);
    }

    res.counts = firstCounts;
    res.metrics["setup_s"] = median(setups);
    std::vector<double> perWorkload;
    double wallS = 0, good = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
        perWorkload.push_back(least(lat[i]));
        wallS += perWorkload.back() / 1e3;
        if (allOk[i] && perWorkload.back() <= kLatencyLimitMs)
            ++good;
    }
    res.metrics["wall_s"] = wallS;
    res.metrics["cases_per_s"] = static_cast<double>(ws.size()) / wallS;
    res.metrics["sim_core_mcycles_per_s"] = passCycles / 1e6 / wallS;
    res.metrics["latency_p50_ms"] = percentile(perWorkload, 50);
    res.metrics["latency_p99_ms"] = percentile(perWorkload, 99);
    res.metrics["goodput_rps"] = good / wallS;
    res.samples["latency (workload minima)"] = perWorkload.size();
    res.samples["passes"] = passWalls.size();
    std::printf("suite: pass walls (s):");
    for (double w : passWalls)
        std::printf(" %.3f", w);
    std::printf("\n");
    res.metrics["sim_speedup_geomean"] =
        std::stod(firstCounts["sim_speedup_geomean"]);
    res.metrics["sim_pred_err"] = std::stod(firstCounts["sim_pred_err"]);
    return res;
}

} // namespace perfbench

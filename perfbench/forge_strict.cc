/**
 * @file
 * Workload `forge-strict`: a differential fuzz campaign through
 * forge::runCampaign with every axis, the per-loop forced sweep and
 * the strict oracle, on a 3-job driver pool.  Oracle-bound: the
 * memory checksum, snapshot and compare take nearly all of the host
 * time; the small scenario programs leave JIT and machine/VM setup as
 * the rest, and TLS dispatch is a small share.
 */

#include <algorithm>
#include <cmath>

#include "bench.hh"
#include "common/logging.hh"
#include "driver/driver.hh"
#include "forge/campaign.hh"
#include "forge/forge.hh"

namespace perfbench
{

using namespace jrpm;

namespace
{

/** A run rotates over kCampaigns distinct campaigns of kCases each:
 *  more scenarios per run than one campaign, without holding more
 *  strict-oracle memory images at once. */
constexpr std::uint32_t kCampaigns = 4;
constexpr std::uint32_t kCases = 64;
/** Driver jobs: one fewer than the 4 cores, so another runnable
 *  thread on the host does not stretch a case.  With 4 jobs the case
 *  tail (latency_p99_ms) spread 45% between runs of the same code. */
constexpr std::uint32_t kJobs = 3;
/** Campaign k's base seed = seed * kSeedStride + k * kCases:
 *  distinct benchmark seeds never share a scenario. */
constexpr std::uint64_t kSeedStride = 1u << 16;
constexpr int kSetupRepeats = 5;
/** Cases reissued stage by stage in a traced iteration. */
constexpr std::uint32_t kReissueCases = 8;

/** The campaign pipeline config (as bench_forge_campaign's): strict
 *  oracle, an 8 MB image so strict compares stay affordable, and a
 *  bounded watchdog. */
JrpmConfig
forgeBase()
{
    JrpmConfig cfg;
    cfg.oracle.mode = OracleMode::Strict;
    cfg.sys.memBytes = 8u << 20;
    cfg.vm.heapBytes = 4u << 20;
    cfg.sys.watchdog.noProgressCycles = 500'000;
    return cfg;
}

forge::CampaignConfig
campaignConfig(const Options &opt, std::uint32_t k)
{
    forge::CampaignConfig cc;
    cc.cases = kCases;
    cc.seed = opt.seed * kSeedStride + k * kCases;
    cc.jobs = kJobs;
    cc.axes = forge::kAllAxes;
    cc.forcedSweep = true;
    cc.shrinkFailures = false; // a failure is reported, not minimised
    cc.base = forgeBase();
    return cc;
}

/** Modelled numbers of one campaign (determinism guard). */
std::map<std::string, std::string>
campaignCounts(const forge::CampaignResult &r)
{
    std::map<std::string, std::string> c;
    std::uint64_t seq = 0, tls = 0, commits = 0, viol = 0;
    std::uint64_t digest = 1469598103934665603ull;
    for (const forge::CaseResult &cr : r.results) {
        seq += cr.seqCycles;
        tls += cr.tlsCycles;
        commits += cr.commits;
        viol += cr.violations;
        for (std::uint64_t v : {cr.seqCycles, cr.tlsCycles, cr.commits,
                                cr.violations, cr.sigHash,
                                std::uint64_t{cr.forcedLoops}})
            digest = (digest ^ v) * 1099511628211ull;
    }
    c["seq_cycles"] = std::to_string(seq);
    c["tls_cycles"] = std::to_string(tls);
    c["commits"] = std::to_string(commits);
    c["violations"] = std::to_string(viol);
    c["forced_runs"] = std::to_string(r.forcedRuns);
    c["distinct_signatures"] = std::to_string(r.distinctSignatures);
    c["case_digest"] = strfmt("%016llx",
                              static_cast<unsigned long long>(digest));
    return c;
}

/** A campaign passes when it is clean with no pipeline errors. */
std::uint64_t
checkCampaign(const forge::CampaignResult &r, RunResult &res)
{
    if (!r.clean() || r.pipelineErrors)
        res.fail(strfmt("campaign: %u failing cases, %u pipeline errors",
                        r.failures, r.pipelineErrors));
    return std::max<std::uint64_t>(r.failures, r.pipelineErrors);
}

/**
 * Each case's pipeline report, re-run outside the timed campaigns
 * (forge::runCase without the sweep, same config): CaseResult does
 * not carry the Fig. 8/9 numbers.  The re-run must reproduce the
 * campaign's cycles.
 */
std::vector<JrpmReport>
caseReports(const forge::CampaignConfig &cc,
            const forge::CampaignResult &r, RunResult &res)
{
    std::vector<JrpmReport> reps(r.specs.size());
    std::vector<DriverJob> jobs(r.specs.size());
    for (std::size_t i = 0; i < r.specs.size(); ++i)
        jobs[i].custom = [&, i] {
            forge::runCase(r.specs[i], cc.base, false, &reps[i]);
            reps[i].seqMain.memImage.reset(); // 8 MB each, not needed
            reps[i].tls.memImage.reset();
            return JrpmReport{};
        };
    DriverConfig dc;
    dc.jobs = kJobs;
    const auto dres = BatchDriver(dc).run(std::move(jobs));
    for (std::size_t i = 0; i < reps.size(); ++i)
        if (!dres[i].ok ||
            reps[i].seqMain.cycles != r.results[i].seqCycles ||
            reps[i].tls.cycles != r.results[i].tlsCycles)
            res.fail(strfmt("case %llu: re-run differs from the campaign",
                            static_cast<unsigned long long>(
                                r.specs[i].seed)));
    return reps;
}

} // namespace

RunResult
runForgeStrict(const Options &opt)
{
    RunResult res;
    std::vector<forge::CampaignConfig> ccs;
    for (std::uint32_t k = 0; k < kCampaigns; ++k)
        ccs.push_back(campaignConfig(opt, k));

    // Setup: derive every scenario and build its program.  It takes
    // a few milliseconds, so it is repeated before every campaign and
    // setup_s is the median over the run.
    std::vector<double> setups;
    auto setUp = [&] {
        for (int i = 0; i < kSetupRepeats; ++i) {
            const auto t0 = Clock::now();
            for (const forge::CampaignConfig &cc : ccs)
                for (std::uint32_t k = 0; k < cc.cases; ++k)
                    forge::scenarioWorkload(
                        forge::generate(cc.seed + k, cc.axes));
            setups.push_back(msBetween(t0, Clock::now()) / 1e3);
        }
    };

    // Per campaign: wall times, and each case's wall times.
    std::vector<std::vector<double>> walls(kCampaigns);
    std::vector<std::vector<double>> caseMs(kCampaigns * kCases);
    std::vector<std::map<std::string, std::string>> counts(kCampaigns);
    std::vector<forge::CampaignResult> first(kCampaigns);
    std::vector<double> efficiency;

    auto campaign = [&](std::uint32_t k) {
        setUp();
        const auto t0 = Clock::now();
        forge::CampaignResult r = forge::runCampaign(ccs[k]);
        const double wallMs = msBetween(t0, Clock::now());
        res.attempted += r.cases;
        res.failed += checkCampaign(r, res);
        const auto c = campaignCounts(r);
        if (counts[k].empty()) {
            counts[k] = c;
            first[k] = r;
        } else if (c != counts[k]) {
            res.fail("forge: modelled counts drifted between campaigns");
        }
        double busy = 0;
        for (std::size_t i = 0; i < r.results.size(); ++i) {
            busy += r.results[i].wallMs;
            caseMs[k * kCases + i].push_back(r.results[i].wallMs);
        }
        walls[k].push_back(wallMs / 1e3);
        efficiency.push_back(busy / (kJobs * wallMs));
        return wallMs;
    };

    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opt.seconds);
    std::uint32_t ran = 0;
    if (!opt.trace) {
        // Rotate over the campaigns, each at least twice, so every
        // run measures all kCampaigns * kCases scenarios and every
        // case's time is the least of two or more repetitions.
        do
            campaign(ran++ % kCampaigns);
        while (Clock::now() < deadline || ran < 2 * kCampaigns);
    } else {
        // Traced iterations: an untraced campaign and the same campaign
        // under one span, in turns first, so a steady drift in host
        // speed cancels out of their ratio; then its first cases run
        // again whole and stage by stage (pipeline, forced sweep and
        // oracle) on this thread.
        zeroLayerMetrics(res);
        SpanLog log;
        LayerTotals t;
        std::vector<double> overhead, genUs;
        double iterations = 0;
        do {
            const std::uint32_t k = ran++ % kCampaigns;
            const forge::CampaignConfig &cc = ccs[k];
            const bool plainFirst = static_cast<int>(iterations) % 2 == 0;
            double plainMs = plainFirst ? campaign(k) : 0;
            {
                ScopedSpan s(&log, "e2e.campaign", k);
                const auto t0 = Clock::now();
                const forge::CampaignResult r = forge::runCampaign(cc);
                const double tracedMs = msBetween(t0, Clock::now());
                res.attempted += r.cases;
                res.failed += checkCampaign(r, res);
                if (!plainFirst)
                    plainMs = campaign(k);
                overhead.push_back(tracedMs / plainMs - 1);
            }
            for (std::uint32_t i = 0; i < kReissueCases; ++i) {
                const std::uint64_t seed = cc.seed + i;
                ScopedSpan c(&log, "e2e.case", seed);
                const auto g0 = Clock::now();
                forge::ScenarioSpec spec;
                {
                    ScopedSpan s(&log, "forge.generate", seed, c.index());
                    spec = forge::generate(seed, cc.axes);
                }
                genUs.push_back(msBetween(g0, Clock::now()) * 1e3);
                Workload w;
                {
                    ScopedSpan s(&log, "forge.scenario_workload", seed,
                                 c.index());
                    w = forge::scenarioWorkload(spec);
                }
                const JrpmReport rep = reissuePipeline(
                    &log, c.index(), seed, w, cc.base, true, t, res);
                timedReportJson(&log, c.index(), seed, rep, t);
            }
            iterations += 1;
        } while (Clock::now() < deadline || ran < kCampaigns);

        layerMetrics(t, log, iterations, res);
        std::uint64_t forced = 0;
        for (std::uint32_t k = 0; k < kCampaigns; ++k)
            forced += first[k].forcedRuns;
        res.metrics["driver.efficiency"] = median(efficiency);
        res.metrics["forge.generate_us"] = median(genUs);
        res.metrics["forge.forced_runs"] =
            static_cast<double>(forced) / std::min(ran, kCampaigns);
        res.metrics["perfbench.trace_overhead_frac"] = median(overhead);
        const std::string path =
            strfmt("%s/traces/forge-strict-seed%llu.json",
                   opt.outDir.c_str(),
                   static_cast<unsigned long long>(opt.seed));
        if (!log.write(path))
            res.fail("cannot write " + path);
    }

    // Fig. 8/9 numbers of every campaign's cases, outside the timing.
    std::vector<double> speedups;
    double predErr = 0;
    for (std::uint32_t k = 0; k < kCampaigns; ++k) {
        for (const auto &[name, v] : counts[k])
            res.counts[strfmt("c%u.", k) + name] = v;
        if (counts[k].empty())
            continue;
        for (const JrpmReport &r : caseReports(ccs[k], first[k], res)) {
            speedups.push_back(r.totalSpeedup);
            const double seq = static_cast<double>(r.seqMain.cycles);
            predErr += std::fabs(r.predictedTlsCycles / seq -
                                 static_cast<double>(r.tls.cycles) / seq);
        }
    }
    predErr /= static_cast<double>(speedups.size());
    res.counts["sim_speedup_geomean"] = exact(geomean(speedups));
    res.counts["sim_pred_err"] = exact(predErr);

    // Every campaign runs at least twice, and a campaign's and a
    // case's time is the least of its repetitions: a host stall only
    // ever adds time, and the tail percentile over a few hundred cases
    // otherwise follows the stalls rather than the cases.  wall_s is
    // the mean over the campaigns.
    double wallSum = 0, measured = 0, cycles = 0, busyMs = 0, good = 0;
    for (std::uint32_t k = 0; k < kCampaigns; ++k)
        if (!walls[k].empty()) {
            wallSum += least(walls[k]);
            measured += 1;
        }
    std::vector<double> bestCase;
    for (std::uint32_t k = 0; k < kCampaigns; ++k)
        for (std::size_t i = 0; i < first[k].results.size(); ++i) {
            const forge::CaseResult &cr = first[k].results[i];
            const double ms = least(caseMs[k * kCases + i]);
            bestCase.push_back(ms);
            busyMs += ms;
            cycles += static_cast<double>(cr.seqCycles) +
                      static_cast<double>(cr.tlsCycles) *
                          ccs[k].base.sys.numCpus;
            if (!cr.failing(false) && ms <= kLatencyLimitMs)
                ++good;
        }
    const double wallS = wallSum / measured;
    res.metrics["setup_s"] = median(setups);
    res.metrics["wall_s"] = wallS;
    res.metrics["cases_per_s"] = kCases / wallS;
    res.metrics["sim_core_mcycles_per_s"] = cycles / 1e6 / (busyMs / 1e3);
    res.metrics["latency_p50_ms"] = percentile(bestCase, 50);
    res.metrics["latency_p99_ms"] = percentile(bestCase, 99);
    if (opt.trace) {
        res.metrics["forge.case_ms_p50"] = res.metrics["latency_p50_ms"];
        res.metrics["forge.case_ms_p99"] = res.metrics["latency_p99_ms"];
    }
    res.samples["latency (case minima)"] = bestCase.size();
    res.samples["campaigns"] = ran;
    res.metrics["goodput_rps"] = good / measured / wallS;
    res.metrics["sim_speedup_geomean"] = geomean(speedups);
    res.metrics["sim_pred_err"] = predErr;
    return res;
}

} // namespace perfbench

#include "campaign.hh"

#include <algorithm>
#include <cinttypes>
#include <map>
#include <unordered_set>

#include "common/hostprof.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "core/oracle.hh"
#include "driver/driver.hh"
#include "forge/corpus.hh"
#include "forge/signature.hh"
#include "forge/weights.hh"
#include "vm/runtime.hh"

namespace jrpm
{
namespace forge
{

namespace
{

std::uint64_t
soloEntriesOf(const JrpmReport &rep)
{
    std::uint64_t n = 0;
    for (const auto &[loop_id, ls] : rep.tls.stl)
        n += ls.soloEntries;
    return n;
}

std::uint32_t
plansWith(const JrpmReport &rep, bool OptPlan::*flag)
{
    std::uint32_t n = 0;
    for (const SelectedStl &sel : rep.selections)
        n += sel.plan.*flag;
    return n;
}

} // namespace

JrpmConfig
caseConfig()
{
    JrpmConfig cfg;
    cfg.oracle.mode = OracleMode::Strict;
    cfg.sys.memBytes = 8u << 20;
    cfg.vm.heapBytes = 4u << 20;
    cfg.sys.watchdog.noProgressCycles = 500'000;
    return cfg;
}

CaseResult
runCase(const ScenarioSpec &spec, const JrpmConfig &base,
        bool forced_sweep, JrpmReport *rep_out)
{
    CaseResult cr;
    cr.seed = spec.seed;
    cr.axes = spec.axes();
    cr.stmts = static_cast<std::uint32_t>(spec.body.size());

    const Workload w = scenarioWorkload(spec);
    JrpmSystem sys(w, base);
    JrpmReport rep = sys.run();

    cr.ok = true;
    cr.watchdog = rep.tls.watchdogFired;
    cr.faultsInjected = rep.tls.faultsInjected;
    cr.pipelineDiverged = rep.oracle.compared
                              ? !rep.oracle.match()
                              : !rep.outputsMatch;
    if (cr.pipelineDiverged)
        cr.detail = rep.oracle.compared ? rep.oracle.summary()
                                        : "outputs differ";

    // Telemetry capsule: what the TLS run did, for campaign-level
    // aggregation (percentiles, squash-cause tables, top loops).
    const ExecStats &st = rep.tls.stats;
#define JRPM_CASE_CAPTURE(type, member, from, pct) cr.member = from;
    JRPM_CASE_TELEMETRY(JRPM_CASE_CAPTURE)
#undef JRPM_CASE_CAPTURE
    cr.squashCauses = st.squashCauses;
    cr.violationsByClass = st.violationsByClass;
    for (const auto &[loop_id, ls] : rep.tls.stl)
        if (const std::uint64_t sq = ls.totalSquashes())
            cr.loopSquashes.emplace_back(loop_id, sq);

    const bool resultDiffers =
        rep.tls.halted != rep.seqMain.halted ||
        rep.tls.uncaught != rep.seqMain.uncaught ||
        rep.tls.exitValue != rep.seqMain.exitValue ||
        rep.tls.vm.output != rep.seqMain.vm.output;
    cr.silent = resultDiffers && rep.oracle.compared &&
                rep.oracle.match() && !cr.watchdog;

    // Forced-speculation sweep: every loop the JIT accepts, one at a
    // time, against the pipeline's sequential golden run.
    if (forced_sweep && base.oracle.mode != OracleMode::Off &&
        rep.seqMain.halted) {
        const auto skip =
            VmRuntime::scratchRegions(base.vm, base.sys.numCpus);
        const RunDigest golden = RunDigest::of(rep.seqMain);
        for (const auto &li : sys.jit().loopInfos()) {
            SelectedStl sel;
            sel.loopId = li.loopId;
            const RunOutcome tls = sys.runTls(w.mainArgs, {sel});
            ++cr.forcedLoops;
            const OracleReport orep = Oracle::compare(
                base.oracle, golden, RunDigest::of(tls), skip);
            if (!orep.match()) {
                ++cr.forcedDiverged;
                if (cr.detail.empty())
                    cr.detail = strfmt("forced loop %d: %s",
                                       li.loopId,
                                       orep.summary().c_str());
            }
        }
    }

    // The behaviour signature digests the fields above (and only
    // them), so it must be stamped after the forced sweep settles
    // the outcome bits.
    cr.sigHash = signatureOf(cr).hash();

    if (rep_out)
        *rep_out = std::move(rep);
    return cr;
}

CaseResult
failedCase(const ScenarioSpec &spec, const std::string &why)
{
    CaseResult cr;
    cr.seed = spec.seed;
    cr.axes = spec.axes();
    cr.stmts = static_cast<std::uint32_t>(spec.body.size());
    cr.error = why;
    cr.sigHash = signatureOf(cr).hash();
    return cr;
}

bool
CaseResult::failing(bool faults_active) const
{
    if (!ok)
        return true;
    if (faults_active)
        return silent;
    return pipelineDiverged || forcedDiverged > 0;
}

DifferentialResult
runFastPathDifferential(const CampaignConfig &cfg)
{
    DifferentialResult res;
    res.cases = cfg.cases;

    JrpmConfig fastCfg = cfg.base;
    fastCfg.sys.dispatch = Dispatch::Fast;
    JrpmConfig exactCfg = cfg.base;
    exactCfg.sys.dispatch = Dispatch::Exact;

    for (std::uint32_t i = 0; i < cfg.cases; ++i) {
        const ScenarioSpec spec = generate(cfg.seed + i, cfg.axes);
        JrpmReport fast, exact;
        const CaseResult cf =
            runCase(spec, fastCfg, cfg.forcedSweep, &fast);
        const CaseResult ce =
            runCase(spec, exactCfg, cfg.forcedSweep, &exact);

        res.fastMemRetired += fast.tls.stats.specFastMem;
        res.sigHits += fast.tls.stats.sigHits;
        res.slowSteps += fast.tls.stats.specSlowSteps;

        const ExecStats &es = exact.tls.stats;
        std::string d;
        if (!cf.ok || !ce.ok)
            d = strfmt("pipeline error (fast: %s; exact: %s)",
                       cf.ok ? "ok" : cf.error.c_str(),
                       ce.ok ? "ok" : ce.error.c_str());
        else if (es.burstSpans.count || es.specSlowSteps ||
                 es.specFastMem)
            // Exact dispatch must never reach the fast path, or the
            // comparison below checks the fast path against itself.
            d = strfmt("exact run used the fast path: %" PRIu64
                       " windows, %" PRIu64 " slow steps, %" PRIu64
                       " in-window mem retires",
                       es.burstSpans.count, es.specSlowSteps,
                       es.specFastMem);
        else if (cf.pipelineDiverged != ce.pipelineDiverged)
            d = strfmt("pipelineDiverged: fast %d exact %d",
                       cf.pipelineDiverged, ce.pipelineDiverged);
        else if (cf.forcedLoops != ce.forcedLoops ||
                 cf.forcedDiverged != ce.forcedDiverged)
            d = strfmt("forced sweep: fast %u/%u diverged, "
                       "exact %u/%u diverged",
                       cf.forcedDiverged, cf.forcedLoops,
                       ce.forcedDiverged, ce.forcedLoops);
        else if (const std::string o =
                     outcomeDiff(fast.seqMain, exact.seqMain);
                 !o.empty())
            d = "seqMain." + o;
        else if (const std::string o = outcomeDiff(fast.tls, exact.tls);
                 !o.empty())
            d = "tls." + o;
        if (!d.empty())
            res.mismatches.push_back({spec.seed, d});
    }

    auto &reg = MetricsRegistry::global();
    reg.counter("forge.diff_cases").inc(res.cases);
    reg.counter("forge.diff_mismatches").inc(res.mismatches.size());
    return res;
}

std::string
DifferentialResult::summary() const
{
    std::string s = strfmt(
        "fast-path differential: %u cases, %zu mismatching\n"
        "fast-run telemetry: %" PRIu64 " in-window mem retires, "
        "%" PRIu64 " signature hits, %" PRIu64 " exact fallbacks\n",
        cases, mismatches.size(), fastMemRetired, sigHits,
        slowSteps);
    for (const DifferentialMismatch &m : mismatches)
        s += strfmt("  MISMATCH seed 0x%016llx: %s\n",
                    static_cast<unsigned long long>(m.seed),
                    m.detail.c_str());
    return s;
}

namespace
{

/** Fold one case into the campaign counters (everything except
 *  `failures`/`failing`, which shrink separately). */
void
tallyCase(CampaignResult &res, const CaseResult &cr,
          bool faults_active)
{
    for (std::uint32_t a = 0; a < kNumAxes; ++a)
        if (cr.axes & (1u << a))
            ++res.axisScenarios[a];
    if (!cr.ok)
        ++res.pipelineErrors;
    if (cr.pipelineDiverged || cr.forcedDiverged)
        ++res.divergences;
    if (faults_active && (cr.pipelineDiverged || cr.forcedDiverged))
        ++res.oracleDetected;
    if (cr.watchdog)
        ++res.watchdogs;
    res.forcedRuns += cr.forcedLoops;
}

} // namespace

CampaignFailure
processFailure(const CampaignConfig &cfg, const ScenarioSpec &spec,
               const CaseResult &cr, bool faults_active)
{
    CampaignFailure f;
    f.result = cr;
    f.original = spec;
    f.shrunk = spec;
    if (cfg.shrinkFailures && cr.ok) {
        ShrinkOptions so;
        so.maxProbes = cfg.shrinkProbes;
        const ShrinkResult sr = shrinkScenario(
            spec,
            [&](const ScenarioSpec &cand) {
                return runCase(cand, cfg.base, cfg.forcedSweep)
                    .failing(faults_active);
            },
            so);
        f.shrunk = sr.spec;
        f.shrinkProbes = sr.probes;
    }
    if (!cfg.corpusOut.empty()) {
        CorpusEntry e = makeCorpusEntry(f.shrunk);
        f.corpusPath = writeCorpusEntry(cfg.corpusOut, e);
    }
    return f;
}

CampaignResult
runCampaign(const CampaignConfig &cfg)
{
    const bool faultsActive = !cfg.base.faultPlan.empty();
    CampaignExecutor exec;
    // Fan the batch out over the batch driver.  Each job's custom
    // runner fills its own slot; results (and therefore the whole
    // campaign verdict) are independent of the worker count.  Every
    // case runs.
    exec.runBatch = [&cfg](const std::vector<ScenarioSpec> &specs,
                           std::size_t first, std::size_t count,
                           const WeightBank &,
                           std::vector<CaseResult> &out) {
        std::vector<DriverJob> jobs(count);
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t slot = first + i;
            jobs[i].workload.name = strfmt(
                "forge-seed-%016llx",
                static_cast<unsigned long long>(specs[slot].seed));
            // The report stays in runCase: a case's memory images
            // die with the case instead of waiting for the batch.
            jobs[i].custom = [&cfg, &specs, &out, slot]() {
                out[slot] = runCase(specs[slot], cfg.base,
                                    cfg.forcedSweep);
                return JrpmReport{};
            };
        }
        DriverConfig dc;
        dc.jobs = cfg.jobs;
        const std::vector<DriverResult> dres =
            BatchDriver(dc).run(std::move(jobs));
        for (std::size_t i = 0; i < count; ++i) {
            // The pipeline (or sweep) threw: the slot was never
            // filled.
            if (!dres[i].ok)
                out[first + i] =
                    failedCase(specs[first + i], dres[i].error);
            out[first + i].wallMs = dres[i].wallMs;
        }
        return std::vector<bool>(count, true);
    };
    exec.failure = [&cfg, faultsActive](const ScenarioSpec &spec,
                                        const CaseResult &cr) {
        return processFailure(cfg, spec, cr, faultsActive);
    };
    return runCampaign(cfg, exec);
}

CampaignResult
runCampaign(const CampaignConfig &cfg, const CampaignExecutor &exec)
{
    const bool faultsActive = !cfg.base.faultPlan.empty();

    CampaignResult res;
    res.cases = cfg.cases;
    res.results.resize(cfg.cases);
    res.specs.reserve(cfg.cases);

    WeightBank bank;
    if (!cfg.guided) {
        for (std::uint32_t i = 0; i < cfg.cases; ++i)
            res.specs.push_back(generate(cfg.seed + i, cfg.axes));
        exec.runBatch(res.specs, 0, cfg.cases, bank, res.results);
    } else {
        // Coverage-guided: batch-synchronous loop.  Every scenario
        // in a batch derives under the bank state entering the
        // batch; the bank updates exactly once per batch, in seed
        // order, from the signature novelty of the cases that ran.
        // The barrier makes the weight trajectory — and hence every
        // scenario — identical for any `jobs` value and executor.
        std::unordered_set<std::uint64_t> seen;
        const std::uint32_t batch = std::max(cfg.guidedBatch, 1u);
        for (std::uint32_t done = 0; done < cfg.cases;) {
            const std::uint32_t n =
                std::min(batch, cfg.cases - done);
            for (std::uint32_t i = 0; i < n; ++i)
                res.specs.push_back(generateWeighted(
                    cfg.seed + done + i, cfg.axes, bank));
            const std::vector<bool> ran =
                exec.runBatch(res.specs, done, n, bank, res.results);
            BatchObservations obs;
            obs.reserve(n);
            for (std::uint32_t i = 0; i < n; ++i)
                if (ran[i])
                    obs.emplace_back(kindsOf(res.specs[done + i]),
                                     res.results[done + i].sigHash);
            applyBatch(bank, seen, obs);
            done += n;
        }
        res.weightBank = bank.json();
    }

    std::unordered_set<std::uint64_t> sigs;
    for (const CaseResult &cr : res.results)
        sigs.insert(cr.sigHash);
    res.distinctSignatures = static_cast<std::uint32_t>(sigs.size());

    for (std::uint32_t i = 0; i < cfg.cases; ++i) {
        const CaseResult &cr = res.results[i];
        tallyCase(res, cr, faultsActive);

        if (!cr.failing(faultsActive))
            continue;
        ++res.failures;
        res.failing.push_back(exec.failure(res.specs[i], cr));
    }

    auto &reg = MetricsRegistry::global();
    reg.counter("forge.cases").inc(res.cases);
    reg.counter("forge.failures").inc(res.failures);
    reg.counter("forge.divergences").inc(res.divergences);
    reg.counter("forge.forced_runs").inc(res.forcedRuns);
    reg.counter("forge.signatures").inc(res.distinctSignatures);
    return res;
}

DistillResult
distillCampaign(const CampaignConfig &cfg, const CampaignResult &res,
                const DistillConfig &dcfg)
{
    const bool faultsActive = !cfg.base.faultPlan.empty();
    DistillResult out;

    // Greedy set cover over the observed signatures.  Each case
    // covers exactly its own signature, so the minimal cover is one
    // representative per distinct signature; pick the cheapest —
    // fewest statements, then lowest seed.  Only clean cases are
    // eligible: failing ones already land in the failure corpus,
    // and a regression corpus must replay green.
    std::map<std::uint64_t, std::size_t> rep;
    for (std::size_t i = 0; i < res.results.size(); ++i) {
        const CaseResult &cr = res.results[i];
        if (!cr.ok || cr.failing(faultsActive))
            continue;
        auto [it, fresh] = rep.emplace(cr.sigHash, i);
        if (fresh)
            continue;
        const ScenarioSpec &cur = res.specs[it->second];
        const ScenarioSpec &cand = res.specs[i];
        if (cand.body.size() < cur.body.size() ||
            (cand.body.size() == cur.body.size() &&
             cand.seed < cur.seed))
            it->second = i;
    }
    out.observedSignatures = static_cast<std::uint32_t>(rep.size());

    // ddmin each representative as far as it keeps producing its
    // signature (iterating the std::map keeps signature order — and
    // therefore the whole distilled corpus — deterministic).
    for (const auto &[sig, idx] : rep) {
        ShrinkOptions so;
        so.maxProbes = dcfg.shrinkProbes;
        const ShrinkResult sr = shrinkScenario(
            res.specs[idx],
            [&](const ScenarioSpec &cand) {
                return runCase(cand, cfg.base, cfg.forcedSweep)
                           .sigHash == sig;
            },
            so);
        out.shrinkProbes += sr.probes;
        out.corpus.push_back(sr.spec);
        if (!dcfg.outDir.empty())
            out.paths.push_back(writeCorpusEntry(
                dcfg.outDir, makeCorpusEntry(sr.spec)));
    }
    out.entries = static_cast<std::uint32_t>(out.corpus.size());

    auto &reg = MetricsRegistry::global();
    reg.counter("forge.distilled_entries").inc(out.entries);
    reg.counter("forge.distill_probes").inc(out.shrinkProbes);
    return out;
}

namespace
{

/** Percentiles of @p pick over the completed cases in @p results
 *  (optionally only those touching axis bit @p axis_bit). */
void
casePctJson(JsonWriter &w, const std::vector<CaseResult> &results,
            double (*pick)(const CaseResult &), std::uint32_t axis_bit)
{
    std::vector<double> xs;
    xs.reserve(results.size());
    for (const CaseResult &cr : results)
        if (cr.ok && (!axis_bit || (cr.axes & axis_bit)))
            xs.push_back(pick(cr));
    const PercentileSummary s = summarizePercentiles(std::move(xs));
    w.beginObject().field("n", s.n).field("min", s.min);
    w.field("p50", s.p50).field("p90", s.p90).field("p99", s.p99);
    w.field("p999", s.p999).field("max", s.max).field("mean", s.mean);
    w.endObject();
}

} // namespace

std::string
campaignAnalyticsJson(const CampaignConfig &cfg,
                      const CampaignResult &res)
{
    JsonWriter w;
    w.beginObject().field("schema", "jrpm-campaign-analytics-v1");
    w.field("seed", strfmt("%016" PRIx64, cfg.seed));
    w.field("axes", cfg.axes).field("cases", res.cases);
    w.field("failures", res.failures);
    w.field("pipelineErrors", res.pipelineErrors);
    w.field("divergences", res.divergences);
    w.field("oracleDetected", res.oracleDetected);
    w.field("watchdogs", res.watchdogs).field("forcedRuns", res.forcedRuns);
    w.field("distinctSignatures", res.distinctSignatures);

    // Per-metric percentiles over every completed case (touching
    // axis bit `bit`, when non-zero).
#define JRPM_FIELD_PCT(member, bit)                                          \
    casePctJson(w.key(#member), res.results,                                 \
                [](const CaseResult &c) {                                    \
                    return static_cast<double>(c.member);                    \
                },                                                           \
                bit);
#define JRPM_CASE_PCT(type, member, from, pct)                               \
    if (pct)                                                                 \
        JRPM_FIELD_PCT(member, 0)
    w.key("metrics").beginObject();
    JRPM_CASE_TELEMETRY(JRPM_CASE_PCT)
    w.endObject();

    // Per-axis breakdown: how scenarios touching each stress axis
    // behave (axis sets overlap; a scenario counts on every axis it
    // exercises).
    w.key("perAxis").beginObject();
    for (std::uint32_t a = 0; a < kNumAxes; ++a) {
        const std::uint32_t bit = 1u << a;
        w.key(axisName(static_cast<StressAxis>(bit))).beginObject();
        w.field("cases", res.axisScenarios[a]);
        JRPM_FIELD_PCT(speedup, bit)
        JRPM_FIELD_PCT(violations, bit)
        JRPM_FIELD_PCT(specSlowSteps, bit)
        w.endObject();
    }
    w.endObject();
#undef JRPM_CASE_PCT
#undef JRPM_FIELD_PCT

    // Aggregate squash-cause and variable-class tallies.
    std::array<std::uint64_t, kNumSquashCauses> causes{};
    std::array<std::uint64_t, kNumAddrClasses> classes{};
    for (const CaseResult &cr : res.results) {
        for (std::size_t c = 0; c < kNumSquashCauses; ++c)
            causes[c] += cr.squashCauses[c];
        for (std::size_t c = 0; c < kNumAddrClasses; ++c)
            classes[c] += cr.violationsByClass[c];
    }
    w.key("squashCauses").beginObject();
    for (std::size_t c = 0; c < kNumSquashCauses; ++c)
        w.field(squashCauseName(c), causes[c]);
    w.endObject().key("violationsByClass").beginObject();
    for (std::size_t c = 0; c < kNumAddrClasses; ++c)
        w.field(addrClassName(c), classes[c]);
    w.endObject();

    // Top squash-cause loops across the whole campaign: which
    // (scenario, loop) pairs burned the most speculative work.
    struct LoopSquash
    {
        std::uint64_t seed;
        std::int32_t loopId;
        std::uint64_t squashes;
    };
    std::vector<LoopSquash> top;
    for (const CaseResult &cr : res.results)
        for (const auto &[loop_id, sq] : cr.loopSquashes)
            top.push_back({cr.seed, loop_id, sq});
    std::sort(top.begin(), top.end(),
              [](const LoopSquash &a, const LoopSquash &b) {
                  if (a.squashes != b.squashes)
                      return a.squashes > b.squashes;
                  if (a.seed != b.seed)
                      return a.seed < b.seed;
                  return a.loopId < b.loopId;
              });
    if (top.size() > 20)
        top.resize(20);
    w.key("topSquashLoops").beginArray();
    for (const LoopSquash &ls : top) {
        w.beginObject().field("seed", strfmt("%016" PRIx64, ls.seed));
        w.field("loopId", ls.loopId).field("squashes", ls.squashes);
        w.endObject();
    }
    w.endArray();

    // Crash-isolation tallies from the fleet orchestrator (absent
    // for in-process campaigns, so old readers see no change).
    if (res.fleet.active) {
        const FleetTallies &ft = res.fleet;
        w.key("fleet").beginObject().field("resumed", ft.resumed);
        w.field("workerDeaths", ft.workerDeaths);
        w.field("crashes", ft.crashes).field("timeouts", ft.timeouts);
        w.field("retries", ft.retries).field("quarantined", ft.quarantined);
        w.field("reshards", ft.reshards);
        w.field("tornRecords", ft.tornRecords).endObject();
    }

    // Host-cycle attribution of the campaign process (all zero
    // when the profiler is off).
    if (hostprof::enabled())
        hostprof::flushThread();
    w.key("hostprof").raw(hostprof::reportJson());
    return w.endObject().take();
}

bool
writeCampaignAnalytics(const std::string &path,
                       const CampaignConfig &cfg,
                       const CampaignResult &res)
{
    return writeTextFile(path, campaignAnalyticsJson(cfg, res) + '\n',
                         "analytics");
}

std::string
CampaignResult::summary() const
{
    std::string s = strfmt(
        "%u cases: %u failing, %u pipeline errors, %u divergent "
        "(%u oracle-detected), %u watchdog, %" PRIu64
        " forced decompositions\n",
        cases, failures, pipelineErrors, divergences, oracleDetected,
        watchdogs, forcedRuns);
    s += "axis coverage:";
    for (std::uint32_t a = 0; a < kNumAxes; ++a)
        s += strfmt(" %s=%u",
                    axisName(static_cast<StressAxis>(1u << a)),
                    axisScenarios[a]);
    s += strfmt("\nsignatures: %u distinct%s\n", distinctSignatures,
                weightBank.empty() ? "" : " (guided)");
    if (fleet.active)
        s += strfmt("fleet: %u worker deaths (%u crash, %u timeout), "
                    "%u retries, %u quarantined, %u reshards%s\n",
                    fleet.workerDeaths, fleet.crashes, fleet.timeouts,
                    fleet.retries, fleet.quarantined, fleet.reshards,
                    fleet.resumed ? ", resumed from manifest" : "");
    for (const CampaignFailure &f : failing) {
        s += strfmt("  FAIL seed 0x%016llx (%s): %s\n",
                    static_cast<unsigned long long>(f.result.seed),
                    axesDescribe(f.result.axes).c_str(),
                    f.result.ok ? f.result.detail.c_str()
                                : f.result.error.c_str());
        if (!f.corpusPath.empty())
            s += strfmt("       repro (%zu stmts): %s\n",
                        f.shrunk.body.size(), f.corpusPath.c_str());
    }
    return s;
}

} // namespace forge
} // namespace jrpm

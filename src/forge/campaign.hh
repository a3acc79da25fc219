/**
 * @file
 * Parallel differential fuzz campaigns over forge scenarios.
 *
 * A campaign derives `cases` scenarios from consecutive seeds, runs
 * each through the full Fig. 1 pipeline (sequential, profiled, TLS)
 * under the differential oracle on the batch driver's worker pool,
 * and — for maximum decomposition coverage — additionally
 * force-speculates every loop the JIT accepts, one at a time,
 * comparing each forced run's memory image against the sequential
 * golden (the analyzer's selection policy must never be what hides a
 * correctness bug).
 *
 * With a fault plan composed in (PR 2), detected divergences are the
 * *expected* outcome and only silent ones — result differs, oracle
 * clean, watchdog quiet — fail the campaign.  Every failing case is
 * shrunk to a minimal replayable repro and written into the corpus
 * directory.
 *
 * Results are deterministic in the worker count: scenarios derive
 * from seeds alone, and the driver reports in input order.  The same
 * campaign runs on crash-isolated worker processes when the fleet
 * (fleet/fleet.hh) is its CampaignExecutor.
 */

#ifndef JRPM_FORGE_CAMPAIGN_HH
#define JRPM_FORGE_CAMPAIGN_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cpu/stats.hh"
#include "forge/forge.hh"
#include "forge/shrink.hh"
#include "forge/weights.hh"

namespace jrpm
{
namespace forge
{

/** One forge case's pipeline config: the strict oracle, an 8 MB image
 *  and a 4 MB heap (strict compares stay cheap), and a 500k-cycle
 *  watchdog (a deadlocked case fails fast).  Callers apply their own
 *  changes on top. */
JrpmConfig caseConfig();

struct CampaignConfig
{
    std::uint32_t cases = 200;
    std::uint64_t seed = 0xf063u; ///< scenario i uses seed + i
    std::uint32_t jobs = 1;       ///< driver worker pool size
    std::uint32_t axes = kAllAxes;
    /** Also force-speculate every JIT-accepted loop per scenario. */
    bool forcedSweep = true;
    /** Shrink failing cases to minimal repros. */
    bool shrinkFailures = true;
    std::uint32_t shrinkProbes = 300;
    /** Write shrunk repros here ("" = don't persist). */
    std::string corpusOut;
    /** Coverage-guided generation: derive scenarios with
     *  generateWeighted() and update the WeightBank from behaviour-
     *  signature novelty at batch boundaries (see weights.hh). */
    bool guided = false;
    /** Cases per guided batch (the weight-update granularity). */
    std::uint32_t guidedBatch = 32;
    /** Base pipeline config: oracle mode, fault plan, memory. */
    JrpmConfig base;
};

/**
 * The telemetry capsule of a CaseResult: what the pipeline's TLS run
 * did, for campaign-level aggregation.  One row per field,
 * X(type, member, from, pct): `from` computes it from the pipeline
 * report `rep`, whose TLS stats are `st` (helpers in campaign.cc);
 * `pct` marks the fields campaign analytics summarises as percentiles.
 * The struct, the capture in runCase, the analytics metric list and
 * the fleet wire record are generated from it; the wire writes the
 * pct rows, then the per-cause arrays, then the rest.
 */
#define JRPM_CASE_TELEMETRY(X)                                               \
    /* seq / TLS cycles */                                                   \
    X(double, speedup, rep.actualSpeedup, true)                              \
    X(std::uint64_t, seqCycles, rep.seqMain.cycles, true)                    \
    X(std::uint64_t, tlsCycles, rep.tls.cycles, true)                        \
    X(std::uint64_t, violations, st.violations, true)                        \
    X(std::uint64_t, commits, st.commits, true)                              \
    X(std::uint64_t, overflowStalls, st.bufferOverflowStalls, true)          \
    X(std::uint64_t, specWindows, st.burstSpans.count, true)                 \
    X(std::uint64_t, specWindowInsts, st.burstSpans.sum, true)               \
    X(std::uint64_t, specSlowSteps, st.specSlowSteps, true)                  \
    X(std::uint64_t, specFastMem, st.specFastMem, true)                      \
    X(std::uint64_t, sigHits, st.sigHits, true)                              \
    X(std::uint64_t, sigFalsePositives, st.sigFalsePositives, true)          \
    X(std::uint64_t, forwardedLoads, st.forwardedLoads, true)                \
    /* insts per burst window */                                             \
    X(double, meanBurst, st.burstSpans.mean(), true)                         \
    /* host wall-clock of the whole case, stamped by the batch driver */     \
    X(double, wallMs, 0.0, true)                                             \
    /* governor blacklist events */                                          \
    X(std::uint64_t, governorAborts, st.governorAborts, false)               \
    /* solo-mode STL entries */                                              \
    X(std::uint64_t, soloEntries, soloEntriesOf(rep), false)                 \
    /* speculative region entries */                                         \
    X(std::uint64_t, stlEntries, st.stlEntries, false)                       \
    /* selections with syncLock / multilevel plans */                        \
    X(std::uint32_t, syncLockPlans, plansWith(rep, &OptPlan::syncLock),     \
      false)                                                                 \
    X(std::uint32_t, multilevelPlans, plansWith(rep, &OptPlan::multilevel), \
      false)                                                                 \
    /* crystal entry demoted */                                              \
    X(bool, demoted, rep.demoted, false)

/**
 * The outcome fields of a CaseResult: how the case ended, as runCase
 * classifies it.  One row per field, X(type, member), in wire order.
 * The struct, the fleet wire record and the fleet round-trip test
 * are generated from it; `seed` and `sigHash`, which travel as hex
 * strings, are written out by hand around it.
 */
#define JRPM_CASE_OUTCOME(X)                                                 \
    X(std::uint32_t, axes)                                                   \
    X(std::uint32_t, stmts)                                                  \
    /* pipeline ran to completion */                                         \
    X(bool, ok)                                                              \
    /* exception text when !ok */                                            \
    X(std::string, error)                                                    \
    X(bool, pipelineDiverged)                                                \
    X(std::uint32_t, forcedLoops)                                            \
    X(std::uint32_t, forcedDiverged)                                         \
    X(bool, watchdog)                                                        \
    /* diverged with oracle clean */                                         \
    X(bool, silent)                                                          \
    X(std::uint32_t, faultsInjected)                                         \
    /* first divergence summary */                                           \
    X(std::string, detail)

/** What one scenario did. */
struct CaseResult
{
    std::uint64_t seed = 0;
#define JRPM_CASE_DECLARE(type, member, ...) type member{};
    JRPM_CASE_OUTCOME(JRPM_CASE_DECLARE)
    JRPM_CASE_TELEMETRY(JRPM_CASE_DECLARE)
#undef JRPM_CASE_DECLARE
    std::array<std::uint64_t, kNumSquashCauses> squashCauses{};
    std::array<std::uint64_t, kNumAddrClasses> violationsByClass{};
    /** (loopId, squash events) for every squashing loop. */
    std::vector<std::pair<std::int32_t, std::uint64_t>> loopSquashes;
    /** BehaviourSignature::hash() of this case (signature.hh); the
     *  coverage coordinate for guided campaigns and distillation. */
    std::uint64_t sigHash = 0;

    /** Does this case fail the campaign?  With faults composed in,
     *  detected divergences are expected and only silent ones fail;
     *  without faults any divergence fails. */
    bool failing(bool faults_active) const;
};

/** One failing case's repro artifacts. */
struct CampaignFailure
{
    CaseResult result;
    ScenarioSpec original;
    ScenarioSpec shrunk;       ///< == original when shrinking is off
    std::uint32_t shrinkProbes = 0;
    std::string corpusPath;    ///< "" unless persisted
};

/** Crash-isolation tallies from a fleet (multi-process) campaign;
 *  all zero for an in-process one. */
struct FleetTallies
{
    bool active = false;        ///< ran under the fleet orchestrator
    bool resumed = false;       ///< picked up an existing manifest
    std::uint32_t workerDeaths = 0; ///< workers lost to signals
    std::uint32_t crashes = 0;      ///< cases that killed a worker
    std::uint32_t timeouts = 0;     ///< cases over the deadline
    std::uint32_t retries = 0;      ///< crash/timeout retry launches
    std::uint32_t quarantined = 0;  ///< poison cases (died twice)
    std::uint32_t reshards = 0;     ///< ranges re-queued after death
    std::uint32_t tornRecords = 0;  ///< manifest lines skipped
};

struct CampaignResult
{
    std::uint32_t cases = 0;
    std::uint32_t failures = 0;
    std::uint32_t pipelineErrors = 0;
    std::uint32_t divergences = 0;     ///< cases with any divergence
    std::uint32_t oracleDetected = 0;  ///< expected under faults
    std::uint32_t watchdogs = 0;
    std::uint64_t forcedRuns = 0;
    /** Scenarios touching each axis, kAxisTable order. */
    std::array<std::uint32_t, kNumAxes> axisScenarios{};
    std::vector<CaseResult> results;   ///< input (seed) order
    /** The scenario each result ran (same order as `results`).
     *  Under guided generation these are NOT generate(seed)'s output
     *  — distillation and replay must use this list. */
    std::vector<ScenarioSpec> specs;
    std::vector<CampaignFailure> failing;
    /** Distinct behaviour-signature hashes over all cases. */
    std::uint32_t distinctSignatures = 0;
    /** The final WeightBank as JSON, WeightBank::json() ("" unless
     *  guided). */
    std::string weightBank;
    FleetTallies fleet;

    bool clean() const { return failures == 0; }
    /** Multi-line human-readable summary. */
    std::string summary() const;
};

/** Run one scenario through the pipeline (+ forced sweep) and
 *  classify it.  Exposed for the shrinker predicate and tests.
 *  @param rep_out if set, receives the full pipeline report (the
 *         fast-path differential harness compares two of them) */
CaseResult runCase(const ScenarioSpec &spec, const JrpmConfig &base,
                   bool forced_sweep, JrpmReport *rep_out = nullptr);

/** The result of a case that produced none (its pipeline threw, or
 *  it killed every worker that ran it): the scenario's identity,
 *  `ok` false, @p why as the error, and the signature of that. */
CaseResult failedCase(const ScenarioSpec &spec, const std::string &why);

/** One scenario whose fast and exact runs differed. */
struct DifferentialMismatch
{
    std::uint64_t seed = 0;
    std::string detail;        ///< first differing field, both values
};

/** Outcome of a fast-path differential campaign. */
struct DifferentialResult
{
    std::uint32_t cases = 0;
    /** Telemetry of the fast runs, summed over all cases: proof the
     *  differential exercised the fast path rather than comparing the
     *  exact stepper against itself. */
    std::uint64_t fastMemRetired = 0; ///< in-window memory retires
    std::uint64_t sigHits = 0;        ///< signature probes that hit
    std::uint64_t slowSteps = 0;      ///< cycle-exact fallbacks

    std::vector<DifferentialMismatch> mismatches;
    bool clean() const { return mismatches.empty(); }
    std::string summary() const;
};

/**
 * The fast-path equivalence campaign: run every scenario through the
 * full pipeline twice, with `sys.dispatch` Fast and Exact
 * (Machine::step() every cycle), and report a mismatch unless
 *  - both pipelines complete with the same oracle verdict;
 *  - the forced sweep (under `forcedSweep`) forces and diverges on
 *    the same number of loops; the forced runs' own outcomes are not
 *    compared;
 *  - the pipeline's sequential (`seqMain`) and speculative (`tls`)
 *    outcomes agree under outcomeDiff(): results, VM output, cycles,
 *    instructions, Fig. 10 buckets, violation / commit / forwarding
 *    / cache telemetry and the oracle's memory checksum;
 *  - the exact run opened no speculative window, took no fast-path
 *    slow step and retired no memory op in a window.
 *
 * Honors `cases`, `seed`, `axes`, `forcedSweep` and `base`; runs
 * in-process and sequentially (each case is its own fast/exact pair,
 * so there is no cross-case state to isolate).
 */
DifferentialResult runFastPathDifferential(const CampaignConfig &cfg);

/**
 * Turn one failing case into repro artifacts: ddmin-shrink it (when
 * @p cfg.shrinkFailures and the case completed) and persist the
 * shrunk scenario into @p cfg.corpusOut.  The in-process shrink
 * re-runs candidates in this process — callers with crash-prone
 * cases (the fleet's quarantined ones) must shrink out of process
 * instead.
 */
CampaignFailure processFailure(const CampaignConfig &cfg,
                               const ScenarioSpec &spec,
                               const CaseResult &cr,
                               bool faults_active);

/**
 * Where a campaign's cases run.  runCampaign() owns what the
 * campaign means — scenario derivation (guided batches and their
 * weight fold included), the signature count, the tally, the failing
 * list and the forge.* metrics — and hands each batch to `runBatch`
 * and each failing case to `failure`.
 */
struct CampaignExecutor
{
    /** Run specs[first, first + count), derived under @p bank when
     *  the campaign is guided, and fill the matching slots of
     *  @p results — every slot, with failedCase() where no result
     *  exists.  Returns one flag per slot: did the case run?  Cases
     *  that did not run stay out of the guided weight fold. */
    std::function<std::vector<bool>(
        const std::vector<ScenarioSpec> &specs, std::size_t first,
        std::size_t count, const WeightBank &bank,
        std::vector<CaseResult> &results)>
        runBatch;
    /** Repro artifacts of one failing case. */
    std::function<CampaignFailure(const ScenarioSpec &spec,
                                  const CaseResult &cr)>
        failure;
};

/** Run a full campaign (see file header) on the batch driver's
 *  worker pool, with processFailure() for failing cases. */
CampaignResult runCampaign(const CampaignConfig &cfg);

/** Run a full campaign whose cases run on @p exec. */
CampaignResult runCampaign(const CampaignConfig &cfg,
                           const CampaignExecutor &exec);

/**
 * Campaign analytics: one queryable JSON document aggregating the
 * per-case telemetry capsules — campaign verdict, per-metric
 * percentiles (speedup, cycles, violations, burst behaviour, wall
 * time), per-axis percentile breakdowns, aggregate squash-cause and
 * variable-class tallies, the top squash-cause loops, and the host
 * profiler's attribution snapshot.  scripts/obs_report.py renders it.
 */
std::string campaignAnalyticsJson(const CampaignConfig &cfg,
                                  const CampaignResult &res);

/** campaignAnalyticsJson() to a file.  @return false on I/O error. */
bool writeCampaignAnalytics(const std::string &path,
                            const CampaignConfig &cfg,
                            const CampaignResult &res);

// ---- corpus distillation ----------------------------------------------

struct DistillConfig
{
    /** Write the distilled corpus entries here. */
    std::string outDir;
    /** ddmin probe budget per representative. */
    std::uint32_t shrinkProbes = 80;
};

struct DistillResult
{
    std::uint32_t observedSignatures = 0; ///< distinct over the run
    std::uint32_t entries = 0;            ///< distilled corpus size
    std::uint32_t shrinkProbes = 0;       ///< total ddmin probes
    std::vector<ScenarioSpec> corpus;     ///< one per signature
    std::vector<std::string> paths;       ///< written files
};

/**
 * Distill a completed campaign to a minimal regression corpus: a
 * greedy set-cover over the observed behaviour signatures (each case
 * covers exactly its own signature, so this picks one representative
 * per signature — fewest statements, then lowest seed), with each
 * representative ddmin-shrunk as far as it keeps producing its
 * signature.  Deterministic given the campaign result; covers 100%
 * of observed signatures by construction.
 */
DistillResult distillCampaign(const CampaignConfig &cfg,
                              const CampaignResult &res,
                              const DistillConfig &dcfg);

} // namespace forge
} // namespace jrpm

#endif // JRPM_FORGE_CAMPAIGN_HH

/**
 * @file
 * Forge campaign harness (ISSUE 5 acceptance experiment) — four
 * modes, all deterministic:
 *
 *  default       run a --cases campaign of generated scenarios
 *                through sequential/profiled/TLS plus a forced
 *                per-loop speculation sweep under --oracle (strict
 *                by default), optionally composed with --fault-plan;
 *                failing cases are shrunk and written to
 *                --corpus-out.  Exit 1 on any failing case.
 *                --guided turns on coverage-guided generation
 *                (behaviour-signature novelty feedback, weights.hh);
 *                --distill=<dir> reduces the observed campaign to a
 *                minimal corpus covering every behaviour signature.
 *
 *  --replay=<dir>      replay every corpus entry: reject version /
 *                      checksum mismatches, verify the rendered
 *                      program hash and the stored sequential exit
 *                      checksum, then force-speculate every loop
 *                      under the strict oracle.
 *
 *  --shrink-demo       end-to-end shrinker validation: inject a
 *                      CorruptCommit fault into the TLS run of a
 *                      generated scenario (a deliberate divergence
 *                      the strict oracle must flag), shrink the
 *                      scenario to <= 8 loop-body statements, write
 *                      the repro corpus file, and re-verify the
 *                      divergence by replaying from that file.
 *
 *  --emit-starter=<dir>  write the hand-minimized starter corpus
 *                        (one scenario per stress axis + one mixed).
 *
 *  --diff-fastpath     fast-path equivalence campaign: run every
 *                      scenario through the pipeline twice, with
 *                      sys.dispatch Fast and Exact (step() every
 *                      cycle), and require identical sequential and
 *                      speculative outcomes — cycles, Fig. 10
 *                      buckets, violations, VM output, the strict
 *                      oracle's memory checksum — plus equal forced-
 *                      sweep counts (see runFastPathDifferential).
 *                      Exit 1 on any mismatch.
 *
 *  --fleet             run the campaign as a crash-isolated fleet:
 *                      shard the seed range over --jobs worker
 *                      subprocesses supervised with per-case
 *                      --case-timeout-ms deadlines, journal progress
 *                      into --manifest (resumable after SIGKILL),
 *                      quarantine cases that kill a worker twice and
 *                      shrink them out of process.  --chaos-kill-ms
 *                      turns on the self-test worker killer.
 *
 *  Internal modes the fleet supervisor uses (not for humans):
 *  --worker-range=<lo>:<hi>:<attempt>   run seeds [lo,hi) (hex) and
 *                      stream results over stdout (fleet/wire.hh)
 *  --worker-replay=<file>   replay one corpus entry; exit 0 clean,
 *                      2 failing, 3 unreadable — crashing is the
 *                      expected outcome for poison candidates
 *
 *  The JRPM_FLEET_ABORT_SEED env var (hex seed) makes worker modes
 *  abort() on that scenario — the poison-case test hook.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include <unistd.h>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/obs.hh"
#include "driver/driver.hh"
#include "fleet/fleet.hh"
#include "fleet/wire.hh"
#include "forge/campaign.hh"
#include "forge/corpus.hh"
#include "forge/forge.hh"
#include "forge/shrink.hh"
#include "forge/weights.hh"

namespace jrpm
{
namespace bench
{
namespace
{

using forge::CorpusEntry;
using forge::ScenarioSpec;

/** Campaign-sized pipeline config: strict oracle unless overridden,
 *  an 8 MB memory image and a bounded watchdog. */
JrpmConfig
forgeConfig(const Options &opt)
{
    JrpmConfig cfg = benchConfig(opt);
    if (opt.oracle.empty())
        cfg.oracle.mode = OracleMode::Strict;
    cfg.sys.memBytes = 8u << 20;
    cfg.vm.heapBytes = 4u << 20;
    // Bound deadlock diagnosis per case (PR 2 watchdog).
    cfg.sys.watchdog.noProgressCycles = 500'000;
    return cfg;
}

int
emitStarter(const Options &opt)
{
    int rc = 0;
    for (const ScenarioSpec &spec : forge::starterScenarios()) {
        const CorpusEntry e = forge::makeCorpusEntry(spec);
        const std::string path =
            forge::writeCorpusEntry(opt.emitStarter, e);
        if (path.empty()) {
            rc = 1;
            continue;
        }
        std::printf("wrote %-58s %zu stmts  axes %s\n", path.c_str(),
                    spec.body.size(),
                    forge::axesDescribe(spec.axes()).c_str());
    }
    return rc;
}

/** Replay one corpus entry; returns an empty string when clean. */
std::string
replayEntry(const std::string &path, const JrpmConfig &cfg)
{
    CorpusEntry e;
    std::string err;
    forge::CorpusError kind = forge::CorpusError::None;
    if (!forge::readCorpusEntry(path, e, &err, &kind)) {
        const char *k =
            kind == forge::CorpusError::Version      ? "version"
            : kind == forge::CorpusError::FutureAxes ? "future-axes"
                                                     : "format";
        return strfmt("load(%s): %s", k, err.c_str());
    }
    const std::uint64_t have = hashProgram(forge::render(e.spec));
    if (have != e.programHash)
        return strfmt("program hash drift (file 0x%016" PRIx64
                      ", rendered 0x%016" PRIx64 ")",
                      e.programHash, have);

    const Workload w = forge::scenarioWorkload(e.spec);
    JrpmSystem sys(w, cfg);
    const RunOutcome seq = sys.runSequential(w.mainArgs, false,
                                             nullptr);
    if (!seq.halted)
        return "sequential run did not halt";
    if (e.haveExit && seq.exitValue != e.expectedExit)
        return strfmt("exit checksum drift (file 0x%08x, run 0x%08x)",
                      e.expectedExit, seq.exitValue);

    const forge::CaseResult cr =
        forge::runCase(e.spec, cfg, /*forced_sweep=*/true);
    if (cr.failing(/*faults_active=*/false))
        return "diverged: " + cr.detail;
    return "";
}

int
replayCorpus(const Options &opt)
{
    const JrpmConfig cfg = forgeConfig(opt);
    const std::vector<std::string> files =
        forge::listCorpus(opt.replayDir);
    if (files.empty())
        fatal("no *.scenario files under '%s'",
              opt.replayDir.c_str());
    std::uint32_t bad = 0;
    for (const std::string &f : files) {
        const std::string verdict = replayEntry(f, cfg);
        std::printf("%-62s %s\n", f.c_str(),
                    verdict.empty() ? "clean" : verdict.c_str());
        if (!verdict.empty())
            ++bad;
    }
    std::printf("replay: %zu entries, %u failing\n", files.size(),
                bad);
    return bad ? 1 : 0;
}

int
shrinkDemo(const Options &opt)
{
    JrpmConfig cfg = forgeConfig(opt);
    // The deliberate divergence: flip one buffered bit right before
    // a speculative commit.  The sequential golden run is untouched
    // (faults arm only in runTls), so the strict oracle must flag
    // the TLS image.
    cfg.faultPlan = FaultPlan::parse("corrupt@0");

    // Any divergence counts — for the demo the oracle *detecting*
    // the corruption is the failure signal we minimize against.
    auto diverges = [&](const ScenarioSpec &s) {
        const forge::CaseResult cr =
            forge::runCase(s, cfg, /*forced_sweep=*/true);
        return cr.ok && (cr.pipelineDiverged || cr.forcedDiverged);
    };

    // Deterministically find a diverging scenario with a body big
    // enough to make shrinking meaningful.
    ScenarioSpec victim;
    bool found = false;
    for (std::uint64_t s = opt.seed; s < opt.seed + 64; ++s) {
        ScenarioSpec cand = forge::generate(s);
        if (cand.body.size() >= 5 && diverges(cand)) {
            victim = cand;
            found = true;
            break;
        }
    }
    if (!found)
        fatal("shrink-demo: no diverging scenario within 64 seeds "
              "of 0x%" PRIx64, opt.seed);
    std::printf("victim: seed 0x%016" PRIx64 ", %zu stmts, n=%d\n",
                victim.seed, victim.body.size(), victim.n);

    forge::ShrinkOptions so;
    so.maxProbes = 300;
    const forge::ShrinkResult sr =
        forge::shrinkScenario(victim, diverges, so);
    std::printf("shrunk: %zu stmts, n=%d (%u probes, %u accepted)\n",
                sr.spec.body.size(), sr.spec.n, sr.probes,
                sr.accepted);
    if (!sr.failing || sr.spec.body.size() > 8) {
        std::printf("FAIL: shrinker did not reach <= 8 statements\n");
        return 1;
    }

    // The repro must replay from its corpus file: write, read back,
    // and re-verify the divergence twice from the deserialized spec.
    const std::string dir =
        opt.corpusOut.empty() ? "forge-repros" : opt.corpusOut;
    const CorpusEntry e = forge::makeCorpusEntry(sr.spec);
    const std::string path = forge::writeCorpusEntry(dir, e);
    if (path.empty())
        return 1;
    CorpusEntry back;
    std::string err;
    if (!forge::readCorpusEntry(path, back, &err))
        fatal("repro does not load back: %s", err.c_str());
    if (!(back.spec == sr.spec))
        fatal("repro spec did not round-trip");
    for (int i = 0; i < 2; ++i)
        if (!diverges(back.spec)) {
            std::printf("FAIL: repro replay %d did not diverge\n",
                        i);
            return 1;
        }
    std::printf("repro %s replays deterministically (diverges under "
                "corrupt@0, strict oracle)\n", path.c_str());
    return 0;
}

/** The JRPM_FLEET_ABORT_SEED poison-case hook shared by the worker
 *  modes; true when the env var is set and names @p seed. */
bool
abortSeedHit(std::uint64_t seed)
{
    const char *env = std::getenv("JRPM_FLEET_ABORT_SEED");
    return env && std::strtoull(env, nullptr, 16) == seed;
}

/** Fleet worker: run seeds [lo,hi) from --worker-range, streaming
 *  `S <seed>` / `D <seed> <json>` lines to the supervisor.  Crashes
 *  and deadlocks need no handling here — dying *is* the protocol
 *  (the supervisor reaps us and harvests --forensics). */
int
workerMain(const Options &opt, const forge::CampaignConfig &cc)
{
    std::uint64_t lo = 0, hi = 0;
    unsigned attempt = 0;
    if (std::sscanf(opt.workerRange.c_str(),
                    "%" SCNx64 ":%" SCNx64 ":%u", &lo, &hi,
                    &attempt) != 3)
        fatal("bad --worker-range '%s'", opt.workerRange.c_str());

    if (!opt.forensics.empty()) {
        const int pid = static_cast<int>(getpid());
        // Crash record (signal + pid) for the supervisor's harvest,
        // and this worker's metrics, written when it exits or crashes.
        obs::armCrashSignals(
            opt.forensics + strfmt("/worker-%d.crash", pid));
        obs::setOutputs(
            "", opt.forensics + strfmt("/worker-%d-metrics.json", pid));
    }

    // Guided fleet batches: the supervisor hands us the weight bank
    // its batch entered with, so generateWeighted() here derives the
    // exact specs the in-process guided campaign would.
    forge::WeightBank bank;
    const bool weighted = !opt.weights.empty();
    if (weighted &&
        !forge::WeightBank::deserialize(opt.weights, bank))
        fatal("bad --weights '%s'", opt.weights.c_str());
    for (std::uint64_t s = lo; s < hi; ++s) {
        // "Starting" marks the suspect seed if we die mid-case.
        std::printf("S %016" PRIx64 "\n", s);
        std::fflush(stdout);
        const ScenarioSpec spec =
            weighted ? forge::generateWeighted(s, cc.axes, bank)
                     : forge::generate(s, cc.axes);
        if (abortSeedHit(spec.seed))
            std::abort();

        forge::CaseResult cr;
        const DriverResult res = runContained([&] {
            cr = forge::runCase(spec, cc.base, cc.forcedSweep);
            return JrpmReport{};
        });
        if (!res.ok)
            cr = forge::failedCase(spec, res.error);
        cr.wallMs = res.wallMs;
        std::printf("D %016" PRIx64 " %s\n", s,
                    fleet::caseResultJson(cr).c_str());
        std::fflush(stdout);
    }
    return 0;
}

/** Sacrificial replay subprocess for the out-of-process shrinker:
 *  exit 0 = candidate clean, 2 = failing, 3 = unreadable file; a
 *  crash (the usual poison-case outcome) is classified by the
 *  supervisor from our wait status. */
int
workerReplayMain(const Options &opt, const forge::CampaignConfig &cc)
{
    CorpusEntry e;
    std::string err;
    if (!forge::readCorpusEntry(opt.workerReplay, e, &err)) {
        std::fprintf(stderr, "worker-replay: %s\n", err.c_str());
        return 3;
    }
    if (abortSeedHit(e.spec.seed))
        std::abort();
    forge::CaseResult cr;
    const DriverResult res = runContained([&] {
        cr = forge::runCase(e.spec, cc.base, cc.forcedSweep);
        return JrpmReport{};
    });
    if (!res.ok) {
        std::fprintf(stderr, "worker-replay: %s\n", res.error.c_str());
        return 2;
    }
    return cr.failing(!cc.base.faultPlan.empty()) ? 2 : 0;
}

/** The campaign every campaign mode runs: scenarios, oracle, fault
 *  plan and generation knobs from the command line. */
forge::CampaignConfig
campaignConfig(const Options &opt)
{
    forge::CampaignConfig cc;
    cc.cases = opt.cases;
    cc.seed = opt.seed;
    cc.jobs = opt.jobs;
    cc.axes = forge::parseAxes(opt.axes);
    cc.corpusOut = opt.corpusOut;
    cc.forcedSweep = !opt.noForcedSweep;
    cc.guided = opt.guided;
    cc.guidedBatch = opt.guidedBatch;
    cc.base = forgeConfig(opt);
    return cc;
}

int
diffFastPathMain(const forge::CampaignConfig &cc)
{
    std::printf("fast-path differential campaign: %u cases, seed "
                "0x%" PRIx64 ", axes %s, oracle %s%s\n",
                cc.cases, cc.seed,
                forge::axesDescribe(cc.axes).c_str(),
                oracleModeName(cc.base.oracle.mode),
                cc.forcedSweep ? "" : ", no forced sweep");
    const forge::DifferentialResult res =
        forge::runFastPathDifferential(cc);
    std::printf("%s", res.summary().c_str());
    logReportSuppressed();
    return res.clean() ? 0 : 1;
}

forge::CampaignResult
runFleetCampaign(const Options &opt, const forge::CampaignConfig &cc,
                 const char *argv0)
{
    if (opt.hostprof)
        fatal("--fleet cannot take --hostprof: the host profiler is "
              "per process, and fleet cases run in worker processes");
    if (opt.manifest.empty())
        fatal("--fleet needs --manifest=<path> (the journal that "
              "makes the campaign resumable)");

    fleet::FleetConfig fc;
    fc.campaign = cc;
    fc.workers = opt.jobs;
    fc.caseTimeoutMs = opt.caseTimeoutMs;
    fc.chaosKillMs = opt.chaosKillMs;
    fc.manifestPath = opt.manifest;
    fc.forensicsDir = opt.forensics;

    // Workers re-exec this binary; forward exactly the flags that
    // shape a case's behavior (anything else would change the
    // manifest's config identity between runs).
    char exe[4096];
    const ssize_t n =
        readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    fc.workerCmd.push_back(n > 0 ? std::string(exe, n)
                                 : std::string(argv0));
    if (!opt.axes.empty())
        fc.workerCmd.push_back("--axes=" + opt.axes);
    if (!opt.oracle.empty())
        fc.workerCmd.push_back("--oracle=" + opt.oracle);
    if (!opt.faultPlan.empty())
        fc.workerCmd.push_back("--fault-plan=" + opt.faultPlan);
    if (opt.noForcedSweep)
        fc.workerCmd.push_back("--no-forced-sweep");

    std::printf("fleet campaign: %u cases over %u workers, seed "
                "0x%" PRIx64 ", axes %s, oracle %s, %u ms/case, "
                "manifest %s%s\n",
                cc.cases, fc.workers, cc.seed,
                forge::axesDescribe(cc.axes).c_str(),
                oracleModeName(cc.base.oracle.mode),
                fc.caseTimeoutMs, fc.manifestPath.c_str(),
                fc.chaosKillMs ? " [chaos]" : "");
    return fleet::runFleet(fc);
}

forge::CampaignResult
runInProcessCampaign(const forge::CampaignConfig &cc)
{
    std::printf("forge campaign: %u cases, seed 0x%" PRIx64
                ", axes %s, oracle %s%s%s, %u jobs%s\n",
                cc.cases, cc.seed,
                forge::axesDescribe(cc.axes).c_str(),
                oracleModeName(cc.base.oracle.mode),
                cc.base.faultPlan.empty() ? "" : ", faults ",
                cc.base.faultPlan.empty()
                    ? ""
                    : cc.base.faultPlan.describe().c_str(),
                cc.jobs,
                cc.guided ? ", guided" : "");
    return forge::runCampaign(cc);
}

int
campaignMain(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (!opt.emitStarter.empty())
        return emitStarter(opt);
    if (!opt.replayDir.empty())
        return replayCorpus(opt);
    if (opt.shrinkDemo)
        return shrinkDemo(opt);
    const forge::CampaignConfig cc = campaignConfig(opt);
    if (opt.diffFastPath)
        return diffFastPathMain(cc);
    if (!opt.workerRange.empty())
        return workerMain(opt, cc);
    if (!opt.workerReplay.empty())
        return workerReplayMain(opt, cc);

    const forge::CampaignResult res =
        opt.fleet ? runFleetCampaign(opt, cc, argv[0])
                  : runInProcessCampaign(cc);
    std::printf("%s", res.summary().c_str());
    // --distill: reduce the finished campaign to the minimal corpus
    // that covers every observed behaviour signature.
    if (!opt.distillDir.empty()) {
        forge::DistillConfig dc;
        dc.outDir = opt.distillDir;
        const forge::DistillResult dr =
            forge::distillCampaign(cc, res, dc);
        std::printf("distilled: %u signatures -> %u entries "
                    "(%u shrink probes) under %s\n",
                    dr.observedSignatures, dr.entries,
                    dr.shrinkProbes, opt.distillDir.c_str());
    }
    if (!opt.analyticsOut.empty() &&
        forge::writeCampaignAnalytics(opt.analyticsOut, cc, res))
        std::printf("analytics: %s\n", opt.analyticsOut.c_str());
    logReportSuppressed();
    return res.clean() ? 0 : 1;
}

} // namespace
} // namespace bench
} // namespace jrpm

int
main(int argc, char **argv)
{
    return jrpm::bench::campaignMain(argc, argv);
}

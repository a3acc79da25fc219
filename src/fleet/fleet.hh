/**
 * @file
 * The fleet orchestrator: a crash-isolated, resumable multi-process
 * campaign supervisor.
 *
 * The in-process campaign (forge/campaign.hh) fans cases over
 * threads, so one case that segfaults, aborts, or wedges takes the
 * whole campaign — and every completed result — with it.  The fleet
 * supervisor instead shards the seed range across worker
 * *subprocesses* (re-exec of the bench binary in `--worker-range`
 * mode), supervises them over stdout pipes with per-case wall-clock
 * deadlines, and journals every finished case into a checkpointed
 * campaign manifest (manifest.hh), giving three guarantees:
 *
 *  - **Isolation**: a case that kills its worker costs that worker,
 *    not the campaign.  The supervisor reaps the corpse, harvests
 *    the crash record the worker's signal handler wrote
 *    (obs::armCrashSignals), retries the case once in a
 *    fresh worker, and quarantines it as a poison case if it kills
 *    again — then re-queues the dead worker's remaining range, so
 *    throughput degrades gracefully down to a single worker.
 *  - **Resumability**: SIGKILL the supervisor (or lose power) and a
 *    rerun with the same manifest resumes exactly where it stopped:
 *    completed seeds are never re-run, in-flight ones are, and the
 *    final coverage equals an uninterrupted run's.
 *  - **Forensics**: quarantined scenarios are ddmin-shrunk *out of
 *    process* (each probe replays in a sacrificial `--worker-replay`
 *    subprocess, so the minimizer survives probes that crash) into
 *    minimal repro corpus entries.
 *
 * A `chaosKillMs` setting turns the supervisor on itself for CI: a
 * deterministic killer SIGKILLs a random worker every interval,
 * which must not change the campaign's final coverage.
 */

#ifndef JRPM_FLEET_FLEET_HH
#define JRPM_FLEET_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/manifest.hh"
#include "forge/campaign.hh"

namespace jrpm
{
namespace fleet
{

struct FleetConfig
{
    forge::CampaignConfig campaign;
    /** Worker subprocesses to keep alive. */
    std::uint32_t workers = 2;
    /** Wall-clock budget per case; a worker silent for longer is
     *  presumed wedged, SIGKILL'd and handled as a crash. */
    std::uint32_t caseTimeoutMs = 120000;
    /** Chaos injection: SIGKILL a random worker this often
     *  (0 = off).  Workers re-running a case after a death are
     *  exempt, so chaos alone never quarantines a healthy seed. */
    std::uint32_t chaosKillMs = 0;
    /** Campaign manifest path (required). */
    std::string manifestPath;
    /** Crash records, partial telemetry and shrink scratch space;
     *  "" = `<manifestPath>.forensics/`. */
    std::string forensicsDir;
    /** argv prefix for worker subprocesses — the bench binary plus
     *  every campaign flag; the supervisor appends the mode flag
     *  (`--worker-range=...` / `--worker-replay=...`). */
    std::vector<std::string> workerCmd;
};

/** Run (or resume) a fleet campaign: forge::runCampaign() with the
 *  fleet as its executor, plus the `fleet` tallies.  Quarantined
 *  cases appear as failed results and in `failing` with their
 *  shrunk repros. */
forge::CampaignResult runFleet(const FleetConfig &cfg);

/** The manifest config-identity line for a campaign (exposed so
 *  tools can match manifests to configs). */
std::string fleetConfigIdentity(const forge::CampaignConfig &cfg);

} // namespace fleet
} // namespace jrpm

#endif // JRPM_FLEET_FLEET_HH

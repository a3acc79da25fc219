#include "fleet.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/random.hh"
#include "fleet/wire.hh"
#include "forge/corpus.hh"
#include "forge/shrink.hh"

namespace jrpm
{
namespace fleet
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Milliseconds before relaunching a crashed case. */
constexpr std::uint32_t kRetryBackoffMs = 200;

/** A contiguous seed range still to run.  `attempt` > 0 marks a
 *  crash retry (always a single seed); chaos never targets those. */
struct WorkItem
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0; ///< exclusive
    std::uint32_t attempt = 0;
    Clock::time_point notBefore{}; ///< retry backoff
};

/** One live worker subprocess. */
struct Worker
{
    pid_t pid = -1;
    int fd = -1; ///< read end of the worker's stdout pipe
    WorkItem item;
    std::string buf;        ///< partial protocol line
    std::uint64_t curSeed = 0;
    bool started = false;   ///< saw at least one `S` line
    Clock::time_point deadline{};
};

std::string
seedHex(std::uint64_t seed)
{
    return strfmt("%016llx", static_cast<unsigned long long>(seed));
}

/** Exit status of a finished subprocess, for messages. */
std::string
describeStatus(int status)
{
    if (WIFSIGNALED(status))
        return strfmt("signal %d", WTERMSIG(status));
    if (WIFEXITED(status))
        return strfmt("exit %d", WEXITSTATUS(status));
    return strfmt("status 0x%x", status);
}

/** Fork/exec `cmd + extra` with stdout piped back.  @return pid, or
 *  -1 (fd untouched) on failure. */
pid_t
spawnPiped(const std::vector<std::string> &cmd,
           const std::vector<std::string> &extra, int &fd_out)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        warn("fleet: pipe: %s", std::strerror(errno));
        return -1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        warn("fleet: fork: %s", std::strerror(errno));
        ::close(fds[0]);
        ::close(fds[1]);
        return -1;
    }
    if (pid == 0) {
        ::close(fds[0]);
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[1]);
        std::vector<char *> argv;
        for (const std::string &a : cmd)
            argv.push_back(const_cast<char *>(a.c_str()));
        for (const std::string &a : extra)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        // Bypass atexit/abort hooks: this is still the parent's
        // process image.
        std::fprintf(stderr, "fleet: exec %s: %s\n", argv[0],
                     std::strerror(errno));
        ::_exit(127);
    }
    ::close(fds[1]);
    fd_out = fds[0];
    return pid;
}

/** Run `cmd + extra` to completion with a wall-clock deadline; the
 *  subprocess' stdout is discarded.  @return the wait status, or -1
 *  if it had to be SIGKILL'd (timeout). */
int
runWithTimeout(const std::vector<std::string> &cmd,
               const std::vector<std::string> &extra,
               std::uint32_t timeout_ms)
{
    int fd = -1;
    const pid_t pid = spawnPiped(cmd, extra, fd);
    if (pid < 0)
        return -1;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    // Drain stdout so the child never blocks on a full pipe, and
    // poll doubles as the sleep between waitpid checks.
    char sink[4096];
    for (;;) {
        int status = 0;
        const pid_t w = ::waitpid(pid, &status, WNOHANG);
        if (w == pid) {
            ::close(fd);
            return status;
        }
        if (Clock::now() >= deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            ::close(fd);
            return -1;
        }
        struct pollfd pfd = {fd, POLLIN, 0};
        if (::poll(&pfd, 1, 20) > 0 && (pfd.revents & POLLIN))
            while (::read(fd, sink, sizeof sink) > 0) {}
    }
}

/** First line of the worker's crash-signal record, if one exists. */
std::string
harvestCrashRecord(const std::string &forensics_dir, pid_t pid)
{
    std::ifstream in(forensics_dir +
                     strfmt("/worker-%d.crash", pid));
    std::string line;
    if (in && std::getline(in, line) && !line.empty())
        return line;
    return "";
}

} // namespace

std::string
fleetConfigIdentity(const forge::CampaignConfig &cfg)
{
    return strfmt("seed %016llx cases %u axes %08x forced %d "
                  "oracle %d faults %s guided %d gbatch %u",
                  static_cast<unsigned long long>(cfg.seed),
                  cfg.cases, cfg.axes, cfg.forcedSweep ? 1 : 0,
                  static_cast<int>(cfg.base.oracle.mode),
                  cfg.base.faultPlan.empty()
                      ? "none"
                      : cfg.base.faultPlan.describe().c_str(),
                  cfg.guided ? 1 : 0,
                  cfg.guided ? cfg.guidedBatch : 0);
}

forge::CampaignResult
runFleet(const FleetConfig &cfg)
{
    if (cfg.manifestPath.empty())
        fatal("fleet: a manifest path is required");
    if (cfg.workerCmd.empty())
        fatal("fleet: no worker command configured");
    const forge::CampaignConfig &camp = cfg.campaign;
    const bool faultsActive = !camp.base.faultPlan.empty();
    const std::string forensics = cfg.forensicsDir.empty()
                                      ? cfg.manifestPath + ".forensics"
                                      : cfg.forensicsDir;
    std::error_code ec;
    std::filesystem::create_directories(forensics, ec);

    CampaignManifest manifest(cfg.manifestPath);
    std::string err;
    if (!manifest.load(fleetConfigIdentity(camp), &err))
        fatal("fleet: %s", err.c_str());

    forge::FleetTallies tallies;
    tallies.active = true;
    tallies.resumed = manifest.resumed();
    tallies.tornRecords = manifest.tornRecords();
    // Quarantines are a property of the whole campaign, not of this
    // process: count the ones a previous (killed) run recorded too.
    tallies.quarantined =
        static_cast<std::uint32_t>(manifest.poisoned().size());
    if (manifest.resumed())
        inform("fleet: resuming '%s': %zu cases done, %zu "
               "quarantined",
               cfg.manifestPath.c_str(),
               manifest.completed().size(),
               manifest.poisoned().size());

    std::deque<WorkItem> pending;
    // Extra per-spawn worker arguments; guided mode points workers
    // at the current batch's weight bank.
    std::vector<std::string> extraWorkerArgs;

    // Uncovered seeds in [lo, hi) → contiguous work items.  Chunk
    // them so a dying worker forfeits at most a chunk, and so
    // several workers share even a freshly started campaign.
    auto enqueueUncovered = [&](std::uint64_t lo, std::uint64_t hi) {
        const std::uint64_t chunk = std::max<std::uint64_t>(
            1, camp.cases / std::max<std::uint32_t>(
                                1, cfg.workers * 4));
        std::uint64_t runStart = 0;
        bool inRun = false;
        auto flushRun = [&](std::uint64_t end) {
            for (std::uint64_t s = runStart; s < end; s += chunk)
                pending.push_back(
                    {s, std::min(end, s + chunk), 0, {}});
            inRun = false;
        };
        for (std::uint64_t s = lo; s < hi; ++s) {
            const bool covered = manifest.completed().count(s) ||
                                 manifest.poisoned().count(s);
            if (covered && inRun)
                flushRun(s);
            else if (!covered && !inRun) {
                runStart = s;
                inRun = true;
            }
        }
        if (inRun)
            flushRun(hi);
    };

    const std::uint32_t maxWorkers = std::max(1u, cfg.workers);
    std::vector<Worker> live;
    Rng chaosRng(0xc4a05); // fixed: the same victim sequence each run
    auto chaosNext =
        Clock::now() + std::chrono::milliseconds(
                           cfg.chaosKillMs ? cfg.chaosKillMs : 1);
    // Completed cases between manifest checkpoints.
    constexpr std::uint32_t kCheckpointEvery = 32;
    std::uint32_t sinceCheckpoint = 0;

    auto spawn = [&](const WorkItem &item) {
        Worker w;
        w.item = item;
        std::vector<std::string> extra = {
            strfmt("--worker-range=%s:%s:%u",
                   seedHex(item.lo).c_str(),
                   seedHex(item.hi).c_str(), item.attempt),
            "--forensics=" + forensics};
        extra.insert(extra.end(), extraWorkerArgs.begin(),
                     extraWorkerArgs.end());
        w.pid = spawnPiped(cfg.workerCmd, extra, w.fd);
        if (w.pid < 0)
            fatal("fleet: cannot spawn worker");
        w.deadline = Clock::now() +
                     std::chrono::milliseconds(cfg.caseTimeoutMs);
        live.push_back(w);
    };

    auto recordCase = [&](const forge::CaseResult &cr) {
        manifest.recordCase(cr);
        if (++sinceCheckpoint >= kCheckpointEvery) {
            manifest.checkpoint();
            sinceCheckpoint = 0;
        }
    };

    // A worker died (signal, unexpected exit, or timeout) — decide
    // retry vs quarantine for the case it was on, and re-queue the
    // rest of its range for the survivors.  The cause is its crash
    // record if it wrote one (that names the signal), else @p status.
    auto handleDeath = [&](Worker &w, const std::string &status) {
        ++tallies.workerDeaths;
        const std::string record = harvestCrashRecord(forensics, w.pid);
        const std::string &cause = record.empty() ? status : record;
        warn("fleet: worker %d (%s..%s attempt %u) died at seed %s: %s",
             w.pid, seedHex(w.item.lo).c_str(),
             seedHex(w.item.hi).c_str(), w.item.attempt,
             w.started ? seedHex(w.curSeed).c_str() : "<none>",
             cause.c_str());

        // A worker that died before starting any case: treat its
        // first seed as the suspect (repeated spawn death must not
        // retry forever).
        const std::uint64_t s = w.started ? w.curSeed : w.item.lo;
        const bool seedDone = manifest.completed().count(s) != 0;

        if (!seedDone) {
            if (w.item.attempt >= 1) {
                PoisonRecord p;
                p.seed = s;
                p.attempts = w.item.attempt + 1;
                p.cause = cause;
                manifest.recordPoison(p);
                ++tallies.quarantined;
                warn("fleet: seed %s quarantined after %u attempts",
                     seedHex(s).c_str(), p.attempts);
            } else {
                WorkItem retry{s, s + 1, w.item.attempt + 1,
                               Clock::now() +
                                   std::chrono::milliseconds(
                                       kRetryBackoffMs)};
                pending.push_front(retry);
                ++tallies.retries;
            }
        }
        if (s + 1 < w.item.hi) {
            pending.push_back({s + 1, w.item.hi, 0, {}});
            ++tallies.reshards;
        }
    };

    auto processLine = [&](Worker &w, const std::string &line) {
        w.deadline = Clock::now() +
                     std::chrono::milliseconds(cfg.caseTimeoutMs);
        std::istringstream in(line);
        std::string tag, seedtok;
        in >> tag >> seedtok;
        const std::uint64_t seed =
            std::strtoull(seedtok.c_str(), nullptr, 16);
        if (tag == "S") {
            w.curSeed = seed;
            w.started = true;
            return;
        }
        if (tag == "D") {
            std::string json;
            std::getline(in, json);
            forge::CaseResult cr;
            std::string why;
            if (!caseResultFromJson(json, cr, &why) ||
                cr.seed != seed) {
                warn("fleet: worker %d: dropping bad case record "
                     "(%s)",
                     w.pid, why.c_str());
                return;
            }
            recordCase(cr);
            return;
        }
        warn("fleet: worker %d: unrecognized line: %.60s", w.pid,
             line.c_str());
    };

    auto reap = [&](std::size_t i, bool timed_out) {
        Worker w = live[i];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        ::close(w.fd);
        int status = 0;
        if (timed_out) {
            ::kill(w.pid, SIGKILL);
            ::waitpid(w.pid, &status, 0);
            ++tallies.timeouts;
            handleDeath(w, "timeout");
            return;
        }
        ::waitpid(w.pid, &status, 0);
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
            return; // range complete
        ++tallies.crashes;
        handleDeath(w, describeStatus(status));
    };

    // Run the scheduler until every pending item (and retries it
    // spawns) has completed or been quarantined.
    auto drain = [&]() {
        while (!pending.empty() || !live.empty()) {
        // Keep the fleet saturated.  Items still in backoff rotate
        // to the back so ready work is never starved behind them.
        const auto now = Clock::now();
        for (std::size_t tries = pending.size();
             tries > 0 && live.size() < maxWorkers && !pending.empty();
             --tries) {
            WorkItem item = pending.front();
            pending.pop_front();
            if (item.notBefore > now) {
                pending.push_back(item);
                continue;
            }
            spawn(item);
        }
        if (live.empty()) {
            // Only backed-off retries remain; sleep the shortest
            // backoff out instead of spinning.
            ::usleep(1000u * kRetryBackoffMs);
            continue;
        }

        // Wait for output, a deadline, or the chaos timer.
        auto wake = live[0].deadline;
        for (const Worker &w : live)
            wake = std::min(wake, w.deadline);
        if (cfg.chaosKillMs)
            wake = std::min(wake, chaosNext);
        const int timeoutMs = static_cast<int>(std::max<std::int64_t>(
            1, std::chrono::duration_cast<std::chrono::milliseconds>(
                   wake - Clock::now())
                   .count()));
        std::vector<struct pollfd> pfds;
        pfds.reserve(live.size());
        for (const Worker &w : live)
            pfds.push_back({w.fd, POLLIN, 0});
        ::poll(pfds.data(), pfds.size(), timeoutMs);

        // Drain readable pipes; collect EOF'd workers.
        std::vector<std::size_t> finished;
        for (std::size_t i = 0; i < live.size(); ++i) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP)))
                continue;
            char buf[4096];
            const ssize_t n = ::read(live[i].fd, buf, sizeof buf);
            if (n > 0) {
                live[i].buf.append(buf,
                                   static_cast<std::size_t>(n));
                std::size_t nl;
                while ((nl = live[i].buf.find('\n')) !=
                       std::string::npos) {
                    const std::string line =
                        live[i].buf.substr(0, nl);
                    live[i].buf.erase(0, nl + 1);
                    if (!line.empty())
                        processLine(live[i], line);
                }
            } else if (n == 0) {
                finished.push_back(i);
            }
        }
        // Reap EOF'd workers back-to-front so indices stay valid.
        for (auto it = finished.rbegin(); it != finished.rend();
             ++it)
            reap(*it, false);

        // Deadlines: a worker silent past its per-case budget is
        // wedged (infinite loop the watchdog missed, a stuck
        // syscall, a crash-handler deadlock) — kill and re-shard.
        for (std::size_t i = live.size(); i-- > 0;)
            if (Clock::now() >= live[i].deadline)
                reap(i, true);

        // Chaos: SIGKILL a random eligible worker.  Retried cases
        // are exempt so injected kills never masquerade as poison.
        if (cfg.chaosKillMs && Clock::now() >= chaosNext) {
            chaosNext = Clock::now() + std::chrono::milliseconds(
                                           cfg.chaosKillMs);
            std::vector<std::size_t> eligible;
            for (std::size_t i = 0; i < live.size(); ++i)
                if (live[i].item.attempt == 0)
                    eligible.push_back(i);
            if (!eligible.empty()) {
                const std::size_t victim =
                    eligible[chaosRng.below(static_cast<std::uint32_t>(
                        eligible.size()))];
                inform("fleet: chaos kill of worker %d",
                       live[victim].pid);
                ::kill(live[victim].pid, SIGKILL);
                // The EOF shows up on the next poll round and runs
                // the ordinary death path.
            }
        }
        }
    };

    // The fleet as a campaign executor: runCampaign derives every
    // batch's scenarios (guided ones under the bank the batch entered
    // with) and folds the weights at the barrier; the fleet runs the
    // batch's uncovered seeds in workers and reads the results back
    // from the manifest — the single source of truth whether this run
    // did the work or resumed someone else's.
    forge::CampaignExecutor exec;
    exec.runBatch = [&](const std::vector<forge::ScenarioSpec> &specs,
                        std::size_t first, std::size_t count,
                        const forge::WeightBank &bank,
                        std::vector<forge::CaseResult> &results) {
        if (camp.guided) {
            // Workers receive the batch's bank via --weights.  The
            // journaled bank lets a resumed campaign check that it is
            // replaying the same trajectory: completed batches
            // re-fold from recorded signatures without running
            // anything.  The checkpoint at each barrier (below)
            // rebroadcasts the bank at exactly those boundaries.
            const std::uint32_t batchIdx = static_cast<std::uint32_t>(
                first / std::max(camp.guidedBatch, 1u));
            const auto prev = manifest.weights().find(batchIdx);
            if (prev != manifest.weights().end() && prev->second != bank)
                fatal("fleet: guided resume diverged at batch %u "
                      "(journal %s, recomputed %s)",
                      batchIdx, prev->second.json().c_str(),
                      bank.json().c_str());
            if (prev == manifest.weights().end())
                manifest.recordWeights(batchIdx, bank);
            extraWorkerArgs = {"--weights=" + bank.json()};
        }
        enqueueUncovered(camp.seed + first, camp.seed + first + count);
        drain();
        manifest.checkpoint();
        sinceCheckpoint = 0;

        // Poison cases never completed: they fill their slot as
        // failed cases and stay out of the weight fold.
        std::vector<bool> ran(count);
        for (std::size_t i = 0; i < count; ++i) {
            const forge::ScenarioSpec &spec = specs[first + i];
            const auto done = manifest.completed().find(spec.seed);
            ran[i] = done != manifest.completed().end();
            if (ran[i]) {
                results[first + i] = done->second;
                continue;
            }
            const auto poisoned = manifest.poisoned().find(spec.seed);
            results[first + i] = forge::failedCase(
                spec, poisoned != manifest.poisoned().end()
                          ? strfmt("quarantined after %u attempts: %s",
                                   poisoned->second.attempts,
                                   poisoned->second.cause.c_str())
                          : "never completed");
        }
        return ran;
    };

    // Failing cases that completed shrink in process, as in any
    // campaign; quarantined ones crash by construction, so their
    // ddmin probes each replay in a sacrificial subprocess.
    exec.failure = [&](const forge::ScenarioSpec &spec,
                       const forge::CaseResult &cr) {
        const auto poisoned = manifest.poisoned().find(cr.seed);
        if (poisoned == manifest.poisoned().end())
            return forge::processFailure(camp, spec, cr, faultsActive);
        forge::CampaignFailure f;
        f.result = cr;
        f.original = spec;
        f.shrunk = spec;
        f.corpusPath = poisoned->second.reproPath;
        if (!f.corpusPath.empty()) {
            // Shrunk by an earlier (killed) run: read the repro back.
            forge::CorpusEntry e;
            std::string why;
            if (forge::readCorpusEntry(f.corpusPath, e, &why))
                f.shrunk = e.spec;
            else
                warn("fleet: cannot read repro '%s': %s",
                     f.corpusPath.c_str(), why.c_str());
            return f;
        }
        if (!camp.shrinkFailures)
            return f;
        inform("fleet: shrinking quarantined seed %s (%zu stmts)...",
               seedHex(cr.seed).c_str(), spec.body.size());
        const std::string candPath = forensics + "/shrink-cand.scenario";
        forge::ShrinkOptions so;
        so.maxProbes = camp.shrinkProbes;
        const forge::ShrinkResult sr = forge::shrinkScenario(
            spec,
            [&](const forge::ScenarioSpec &cand) {
                const forge::CorpusEntry e =
                    forge::makeCorpusEntry(cand, /*with_exit=*/false);
                std::ofstream(candPath) << serializeCorpusEntry(e);
                const int st = runWithTimeout(
                    cfg.workerCmd, {"--worker-replay=" + candPath},
                    cfg.caseTimeoutMs);
                // Crash (signal), timeout (-1) and the explicit
                // failing status all count as "still failing"; clean
                // exit 0 and load errors don't.
                if (st == -1 || WIFSIGNALED(st))
                    return true;
                return WIFEXITED(st) && WEXITSTATUS(st) == 2;
            },
            so);
        std::remove(candPath.c_str());
        // Absolute, so the manifest's repro record reads back from any
        // working directory.
        const std::string dir =
            camp.corpusOut.empty() ? forensics : camp.corpusOut;
        std::error_code cwdErr;
        const std::string absDir =
            std::filesystem::absolute(dir, cwdErr).string();
        const std::string outDir = cwdErr ? dir : absDir;
        f.shrunk = sr.spec;
        f.shrinkProbes = sr.probes;
        f.corpusPath = forge::writeCorpusEntry(
            outDir, forge::makeCorpusEntry(sr.spec, /*with_exit=*/false));
        if (!f.corpusPath.empty())
            manifest.recordRepro(cr.seed, f.corpusPath);
        inform("fleet: seed %s shrunk to %zu stmts: %s",
               seedHex(cr.seed).c_str(), sr.spec.body.size(),
               f.corpusPath.c_str());
        return f;
    };

    forge::CampaignResult res = forge::runCampaign(camp, exec);
    manifest.checkpoint();
    res.fleet = tallies;

    auto &reg = MetricsRegistry::global();
    reg.counter("fleet.worker_deaths").inc(tallies.workerDeaths);
    reg.counter("fleet.retries").inc(tallies.retries);
    reg.counter("fleet.quarantined").inc(tallies.quarantined);
    reg.counter("fleet.reshards").inc(tallies.reshards);
    return res;
}

} // namespace fleet
} // namespace jrpm

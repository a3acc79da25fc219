/**
 * @file
 * Load generator for Jrpm-as-a-service: hundreds of concurrent
 * loopback clients driving an in-process server with open-loop
 * arrivals, measuring end-to-end latency percentiles (p50/p99/p999)
 * and throughput.  The run is its own gate: it exits 1 unless every
 * invariant named in its summary line holds (kMinResults, kMaxP99Ms
 * and the zero-error counts).
 *
 * Open loop: each client fires submissions on a fixed schedule
 * whether or not earlier ones have completed, so queueing delay and
 * the admission-cap "busy" rejects show up in the numbers instead of
 * being masked by a closed loop's self-throttling.
 *
 * Every submission is a forge scenario seed from a small pool; the
 * harness first computes the batch driver's reportJson() for each
 * pool seed, then asserts every service result embeds those exact
 * bytes — the service-vs-driver byte-identity check of the
 * acceptance criteria runs on every response, under full
 * concurrency.  With --repo, a repeat seed is served warm from the
 * crystal repository; a report that says `"warmStart":true` must
 * equal its golden in every member but the ones a warm start changes
 * (kWarmMembers).
 *
 *   --serve[=port]    run only the server (for scripts/jrpm_client.py
 *                     and manual poking); prints the port, blocks
 *                     until a shutdown frame
 *   --clients=<n>     concurrent connections        (default 64)
 *   --duration-ms=<n> open-loop window              (default 10000)
 *   --interval-ms=<n> per-client arrival period     (default 150)
 *   --workers=<n>     server pool width             (default 4)
 *   --cap=<n>         admission cap                 (default 64)
 *   --seeds=<n>       distinct scenario seeds       (default 12)
 *   --repo=<dir>      serve repeat seeds warm from a crystal
 *                     repository (default off)
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>

#include "common/logging.hh"
#include "core/report_json.hh"
#include "driver/driver.hh"
#include "forge/forge.hh"
#include "service/protocol.hh"
#include "service/server.hh"

namespace jrpm
{
namespace
{

using Clock = std::chrono::steady_clock;

/** A load run must complete at least this many requests: a stalled
 *  scheduler or a blocked event loop completes far fewer. */
constexpr std::uint64_t kMinResults = 200;
/** p99 latency ceiling.  Generous, because an open loop queues by
 *  design and the admission cap bounds the queue. */
constexpr double kMaxP99Ms = 10'000;

/** The report members a warm start changes: it charges no profiling
 *  cycles, so its lifecycle total and total speedup move, and it may
 *  demote its entry. */
const std::set<std::string> kWarmMembers = {
    "warmStart", "demoted", "totalSpeedup", "phases.profiling",
    "phases.total"};

/** True when @p a and @p b are the same JSON, ignoring the members
 *  named in kWarmMembers (by dotted path from the report root). */
bool
sameButWarmMembers(const JsonValue &a, const JsonValue &b,
                   const std::string &path = "")
{
    if (a.kind != b.kind || a.b != b.b || a.num != b.num ||
        a.str != b.str || a.items.size() != b.items.size() ||
        a.fields.size() != b.fields.size())
        return false;
    for (std::size_t i = 0; i < a.items.size(); ++i)
        if (!sameButWarmMembers(a.items[i], b.items[i], path))
            return false;
    for (auto ia = a.fields.begin(), ib = b.fields.begin();
         ia != a.fields.end(); ++ia, ++ib) {
        const std::string at =
            path.empty() ? ia->first : path + "." + ia->first;
        if (ia->first != ib->first ||
            (!kWarmMembers.count(at) &&
             !sameButWarmMembers(ia->second, ib->second, at)))
            return false;
    }
    return true;
}

/** One pool seed's batch-driver report: the bytes a cold result
 *  embeds, and their parse for comparing a warm one. */
struct Golden
{
    std::string bytes;
    JsonValue report;
};

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct LoadOptions
{
    bool serveOnly = false;
    std::uint16_t servePort = 0;
    std::uint32_t clients = 64;
    std::uint32_t durationMs = 10'000;
    std::uint32_t intervalMs = 150;
    std::uint32_t workers = 4;
    std::uint32_t cap = 64;
    std::uint32_t seedPool = 12;
    std::string repoDir;
};

/** Per-client tallies, merged after the run. */
struct ClientResult
{
    std::uint64_t sent = 0;
    std::uint64_t results = 0;      ///< kind=result responses
    std::uint64_t busy = 0;         ///< admission rejects
    std::uint64_t protocolErrors = 0;
    std::uint64_t byteMismatches = 0;
    std::vector<double> latencyMs;  ///< submit -> result frames only
    std::vector<double> queueMs;    ///< server-side admission wait
    std::string fatal;              ///< connection-level failure
};

/** One open-loop client: send on schedule, drain responses inline. */
void
clientLoop(std::uint16_t port, const LoadOptions &opt,
           std::uint32_t index,
           const std::vector<std::uint64_t> &seeds,
           const std::map<std::uint64_t, Golden> &golden,
           ClientResult &res)
{
    svc::ServiceClient c;
    std::string err;
    if (!c.connect(port, &err)) {
        res.fatal = err;
        return;
    }

    const auto t0 = Clock::now();
    const auto tEnd =
        t0 + std::chrono::milliseconds(opt.durationMs);
    // Clients start phase-shifted so arrivals spread evenly instead
    // of thundering together every interval.
    auto nextSend = t0 + std::chrono::milliseconds(
                             index * opt.intervalMs / opt.clients);

    std::map<std::uint64_t, Clock::time_point> sendTime;
    std::map<std::uint64_t, std::uint64_t> seedOf;
    std::uint64_t nextId = 1;

    auto handleFrame = [&](const std::string &raw) {
        JsonValue v;
        std::string perr;
        if (!jsonParse(raw, v, &perr)) {
            res.protocolErrors++;
            return;
        }
        const auto id =
            static_cast<std::uint64_t>(v["id"].number());
        const auto sent = sendTime.find(id);
        if (v["kind"].str == "result") {
            if (sent != sendTime.end()) {
                res.latencyMs.push_back(
                    msBetween(sent->second, Clock::now()));
                sendTime.erase(sent);
            }
            res.results++;
            res.queueMs.push_back(v["queueMs"].number());
            // Byte-identity against the batch driver's report; a
            // warm result matches it but for what a warm start
            // changes.
            const auto g = golden.find(seedOf[id]);
            const JsonValue &rep = v["report"];
            if (g == golden.end() ||
                (rep["warmStart"].boolean()
                     ? !sameButWarmMembers(rep, g->second.report)
                     : raw.find(g->second.bytes) == std::string::npos))
                res.byteMismatches++;
        } else if (v["kind"].str == "error") {
            if (sent != sendTime.end())
                sendTime.erase(sent);
            if (v["status"].str == "busy" ||
                v["status"].str == "shutdown")
                res.busy++;
            else
                res.protocolErrors++;
        } else {
            res.protocolErrors++;
        }
        seedOf.erase(id);
    };

    auto drain = [&](bool block) -> bool {
        if (block) {
            pollfd p{c.nativeHandle(), POLLIN, 0};
            ::poll(&p, 1, 100);
        }
        if (!c.pump(&err)) {
            res.fatal = err;
            return false;
        }
        std::string raw;
        while (c.next(raw))
            handleFrame(raw);
        return true;
    };

    while (Clock::now() < tEnd) {
        if (Clock::now() >= nextSend) {
            svc::Request r;
            r.id = nextId++;
            r.kind = svc::ReqKind::Submit;
            r.haveSeed = true;
            r.seed = seeds[(index + r.id) % seeds.size()];
            seedOf[r.id] = r.seed;
            sendTime[r.id] = Clock::now();
            if (!c.send(r, &err)) {
                res.fatal = err;
                return;
            }
            res.sent++;
            nextSend += std::chrono::milliseconds(opt.intervalMs);
        }
        // Wait for socket readability or the next arrival slot,
        // whichever comes first; never past either.
        const auto now = Clock::now();
        const int waitMs = std::max(
            0, static_cast<int>(std::min(
                   msBetween(now, nextSend),
                   msBetween(now, tEnd))));
        pollfd p{c.nativeHandle(), POLLIN, 0};
        ::poll(&p, 1, std::min(waitMs, 20));
        if (!drain(false))
            return;
    }

    // Close the loop: collect every outstanding response.
    const auto tQuit =
        Clock::now() + std::chrono::seconds(30);
    while (!sendTime.empty() && Clock::now() < tQuit)
        if (!drain(true))
            return;
    if (!sendTime.empty())
        res.fatal = strfmt("%zu responses never arrived",
                           sendTime.size());
}

int
runServeOnly(const LoadOptions &opt)
{
    svc::ServiceConfig cfg;
    cfg.port = opt.servePort;
    cfg.workers = opt.workers;
    cfg.admissionCap = opt.cap;
    cfg.cache.dir = opt.repoDir;
    svc::JrpmService srv(cfg);
    std::string err;
    if (!srv.start(&err)) {
        std::fprintf(stderr, "bench_service: %s\n", err.c_str());
        return 1;
    }
    std::printf("jrpm-service listening on 127.0.0.1:%u\n",
                srv.port());
    std::fflush(stdout);
    srv.join(); // a shutdown frame ends the loop
    return 0;
}

int
runLoad(const LoadOptions &opt)
{
    // Golden reports: the batch driver's bytes for every pool seed.
    std::vector<std::uint64_t> seeds;
    for (std::uint32_t i = 0; i < opt.seedPool; ++i)
        seeds.push_back(0xbe7c0ull + i);

    inform("bench_service: computing %zu golden driver reports",
           seeds.size());
    std::map<std::uint64_t, Golden> golden;
    {
        std::vector<DriverJob> jobs;
        for (std::uint64_t s : seeds) {
            Workload w =
                forge::scenarioWorkload(forge::generate(s));
            if (!w.profileArgs.empty()) {
                w.mainArgs = w.profileArgs;
                w.profileArgs.clear();
            }
            jobs.push_back({std::move(w), JrpmConfig{}, {}});
        }
        DriverConfig dc;
        dc.jobs = opt.workers;
        const auto res = BatchDriver(dc).run(std::move(jobs));
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            if (!res[i].ok)
                fatal("golden run for seed %" PRIx64 " failed: %s",
                      seeds[i], res[i].error.c_str());
            Golden &g = golden[seeds[i]];
            g.bytes = reportJson(res[i].report);
            jsonParse(g.bytes, g.report);
            g.bytes = "\"report\":" + g.bytes + "}";
        }
    }

    svc::ServiceConfig cfg;
    cfg.workers = opt.workers;
    cfg.admissionCap = opt.cap;
    cfg.cache.dir = opt.repoDir;
    svc::JrpmService srv(cfg);
    std::string err;
    if (!srv.start(&err))
        fatal("server start: %s", err.c_str());
    inform("bench_service: %u clients x %ums @ every %ums "
           "against :%u (%u workers, cap %u)",
           opt.clients, opt.durationMs, opt.intervalMs, srv.port(),
           opt.workers, opt.cap);

    const auto t0 = Clock::now();
    std::vector<ClientResult> per(opt.clients);
    {
        std::vector<std::thread> threads;
        for (std::uint32_t i = 0; i < opt.clients; ++i)
            threads.emplace_back([&, i] {
                clientLoop(srv.port(), opt, i, seeds, golden,
                           per[i]);
            });
        for (auto &t : threads)
            t.join();
    }
    const double wallMs = msBetween(t0, Clock::now());

    ClientResult sum;
    std::uint32_t fatalClients = 0;
    for (const ClientResult &r : per) {
        sum.sent += r.sent;
        sum.results += r.results;
        sum.busy += r.busy;
        sum.protocolErrors += r.protocolErrors;
        sum.byteMismatches += r.byteMismatches;
        sum.latencyMs.insert(sum.latencyMs.end(),
                             r.latencyMs.begin(),
                             r.latencyMs.end());
        sum.queueMs.insert(sum.queueMs.end(), r.queueMs.begin(),
                           r.queueMs.end());
        if (!r.fatal.empty()) {
            warn("client failed: %s", r.fatal.c_str());
            fatalClients++;
        }
    }

    const svc::ServiceCounters sc = srv.counters();
    const PoolStats ss = srv.schedulerStats();
    srv.shutdown();
    srv.join();

    const PercentileSummary lat =
        summarizePercentiles(sum.latencyMs);
    const PercentileSummary q = summarizePercentiles(sum.queueMs);
    const double throughput =
        1000.0 * static_cast<double>(sum.results) / wallMs;
    inform("bench_service: %" PRIu64 " results (%.1f/s), "
           "p50 %.1fms p99 %.1fms p999 %.1fms, queue p50 %.1fms, "
           "%" PRIu64 " busy",
           sum.results, throughput, lat.p50, lat.p99, lat.p999, q.p50,
           sum.busy);

    struct Check
    {
        std::string what;
        bool ok;
    };
    const Check checks[] = {
        {strfmt("%" PRIu64 " protocol errors", sum.protocolErrors),
         sum.protocolErrors == 0},
        {strfmt("%" PRIu64 " byte mismatches", sum.byteMismatches),
         sum.byteMismatches == 0},
        {strfmt("%u dead clients", fatalClients), fatalClients == 0},
        {strfmt("%" PRIu64 " pipeline errors", sc.pipelineErrors),
         sc.pipelineErrors == 0},
        {strfmt("%" PRIu64 " task faults", ss.taskFaults),
         ss.taskFaults == 0},
        {strfmt("%" PRIu64 " of %" PRIu64 " sent answered",
                sum.results + sum.busy, sum.sent),
         sum.results + sum.busy == sum.sent},
        {strfmt("%" PRIu64 " results >= %" PRIu64, sum.results,
                kMinResults),
         sum.results >= kMinResults},
        {strfmt("p99 %.1fms <= %.0fms", lat.p99, kMaxP99Ms),
         lat.p99 <= kMaxP99Ms},
    };
    std::string summary;
    bool pass = true;
    for (const Check &c : checks) {
        summary += strfmt("%s%s %s", summary.empty() ? "" : ", ",
                          c.what.c_str(), c.ok ? "ok" : "FAILED");
        pass = pass && c.ok;
    }
    inform("bench_service: %s: %s", pass ? "PASS" : "FAIL",
           summary.c_str());
    return pass ? 0 : 1;
}

LoadOptions
parseArgs(int argc, char **argv)
{
    LoadOptions o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&](const char *pfx) -> const char * {
            return a.size() > std::strlen(pfx)
                       ? a.c_str() + std::strlen(pfx)
                       : "";
        };
        if (a == "--serve") {
            o.serveOnly = true;
        } else if (a.rfind("--serve=", 0) == 0) {
            o.serveOnly = true;
            o.servePort = static_cast<std::uint16_t>(
                std::atoi(val("--serve=")));
        } else if (a.rfind("--clients=", 0) == 0) {
            o.clients = std::atoi(val("--clients="));
        } else if (a.rfind("--duration-ms=", 0) == 0) {
            o.durationMs = std::atoi(val("--duration-ms="));
        } else if (a.rfind("--interval-ms=", 0) == 0) {
            o.intervalMs =
                std::max(1, std::atoi(val("--interval-ms=")));
        } else if (a.rfind("--workers=", 0) == 0) {
            o.workers = std::max(1, std::atoi(val("--workers=")));
        } else if (a.rfind("--cap=", 0) == 0) {
            o.cap = std::max(1, std::atoi(val("--cap=")));
        } else if (a.rfind("--seeds=", 0) == 0) {
            o.seedPool = std::max(1, std::atoi(val("--seeds=")));
        } else if (a.rfind("--repo=", 0) == 0) {
            o.repoDir = val("--repo=");
        } else {
            fatal("bench_service: unknown flag '%s'", a.c_str());
        }
    }
    return o;
}

} // namespace
} // namespace jrpm

int
main(int argc, char **argv)
{
    const jrpm::LoadOptions opt = jrpm::parseArgs(argc, argv);
    if (opt.serveOnly)
        return jrpm::runServeOnly(opt);
    return jrpm::runLoad(opt);
}

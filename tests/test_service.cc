/**
 * @file
 * Jrpm-as-a-service coverage: the wire protocol (framing round-trip,
 * torn / oversized / garbage frames, version mismatch), the FIFO
 * job pool (oldest-first order, determinism, fault containment), and
 * the TCP server end to end — loopback clients whose results must be
 * byte-identical to the batch driver's, admission backpressure,
 * cancellation, deadlines, a contained fatal() and graceful
 * shutdown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "core/report_json.hh"
#include "driver/driver.hh"
#include "driver/pool.hh"
#include "forge/forge.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "temp_dir.hh"
#include "workloads/workloads.hh"

namespace jrpm
{
namespace
{

using svc::FrameReader;
using svc::JrpmService;
using svc::ReqKind;
using svc::Request;
using svc::ServiceClient;
using svc::ServiceConfig;

/** Start a server on an ephemeral port or fail the test. */
struct ScopedServer
{
    JrpmService service;

    explicit ScopedServer(ServiceConfig cfg)
        : service(std::move(cfg))
    {
        std::string err;
        if (!service.start(&err))
            ADD_FAILURE() << "server start failed: " << err;
    }
    ~ScopedServer()
    {
        service.shutdown();
        service.join();
    }

    ServiceClient
    client()
    {
        ServiceClient c;
        std::string err;
        EXPECT_TRUE(c.connect(service.port(), &err)) << err;
        return c;
    }
};

// ---- framing ----------------------------------------------------------

TEST(ServiceProtocol, FrameRoundTrip)
{
    FrameReader r;
    const std::string a = "{\"x\":1}";
    const std::string b = std::string(4096, 'y');
    const std::string wire =
        svc::frameEncode(a) + svc::frameEncode("") +
        svc::frameEncode(b);
    r.feed(wire.data(), wire.size());

    std::string out;
    ASSERT_TRUE(r.next(out));
    EXPECT_EQ(out, a);
    ASSERT_TRUE(r.next(out));
    EXPECT_EQ(out, "");
    ASSERT_TRUE(r.next(out));
    EXPECT_EQ(out, b);
    EXPECT_FALSE(r.next(out));
    EXPECT_FALSE(r.broken());
    EXPECT_EQ(r.buffered(), 0u);
}

TEST(ServiceProtocol, TornFramesWaitForMoreBytes)
{
    FrameReader r;
    const std::string wire = svc::frameEncode("{\"torn\":true}");
    std::string out;
    // Byte-at-a-time delivery: only the final byte completes it.
    for (std::size_t i = 0; i < wire.size(); ++i) {
        r.feed(wire.data() + i, 1);
        if (i + 1 < wire.size()) {
            EXPECT_FALSE(r.next(out)) << "early at byte " << i;
        }
    }
    ASSERT_TRUE(r.next(out));
    EXPECT_EQ(out, "{\"torn\":true}");
}

TEST(ServiceProtocol, OversizedFramePoisonsTheReader)
{
    FrameReader r(64);
    const std::string wire = svc::frameEncode(std::string(65, 'z'));
    r.feed(wire.data(), wire.size());
    std::string out;
    EXPECT_FALSE(r.next(out));
    EXPECT_TRUE(r.broken());
    EXPECT_NE(r.error().find("exceeds"), std::string::npos);
    // Poison is permanent: even a well-formed follow-up is refused.
    const std::string ok = svc::frameEncode("{}");
    r.feed(ok.data(), ok.size());
    EXPECT_FALSE(r.next(out));
}

// Pinned: request and response frame bytes, the wire format every
// client speaks.
const char *const kPinnedSubmitJson =
    "{\"v\":1,\"id\":42,\"kind\":\"submit\",\"workload\":\"w\\\"q\\u0002\","
    "\"seed\":\"deadbeef12345678\",\"axes\":3,\"deadlineMs\":1500,"
    "\"warm\":\"cold\",\"debugSleepMs\":9}";
const char *const kPinnedCancelJson =
    "{\"v\":1,\"id\":7,\"kind\":\"cancel\",\"target\":42}";
const char *const kPinnedErrorJson =
    "{\"v\":1,\"id\":5,\"kind\":\"error\",\"status\":\"busy\","
    "\"detail\":\"full \\\"x\\\"\\n\\t\"}";
const char *const kPinnedResultJson =
    "{\"v\":1,\"id\":6,\"kind\":\"result\",\"status\":\"ok\","
    "\"queueMs\":1.235,\"runMs\":7.500,\"report\":{\"a\":1}}";

TEST(ServiceProtocol, ResponseBytesArePinned)
{
    EXPECT_EQ(svc::errorResponseJson(5, "busy", "full \"x\"\n\t"),
              kPinnedErrorJson);
    EXPECT_EQ(svc::resultResponseJson(6, "{\"a\":1}", 1.23456, 7.5),
              kPinnedResultJson);
}

TEST(ServiceProtocol, RequestJsonRoundTrip)
{
    Request r;
    r.id = 42;
    r.kind = ReqKind::Submit;
    r.haveSeed = true;
    r.seed = 0xdeadbeef12345678ull;
    r.axes = 3;
    r.deadlineMs = 1500;
    r.warm = "cold";
    r.workload = "w\"q\x02";
    r.debugSleepMs = 9;
    EXPECT_EQ(svc::requestJson(r), kPinnedSubmitJson);

    Request back;
    std::string err;
    ASSERT_TRUE(svc::requestFromJson(svc::requestJson(r), back,
                                     &err))
        << err;
    EXPECT_EQ(back.id, 42u);
    EXPECT_EQ(back.kind, ReqKind::Submit);
    EXPECT_TRUE(back.haveSeed);
    EXPECT_EQ(back.seed, 0xdeadbeef12345678ull);
    EXPECT_EQ(back.axes, 3u);
    EXPECT_EQ(back.deadlineMs, 1500u);
    EXPECT_EQ(back.warm, "cold");
    EXPECT_EQ(back.workload, r.workload);
    EXPECT_EQ(back.debugSleepMs, 9u);

    Request c;
    c.id = 7;
    c.kind = ReqKind::Cancel;
    c.target = 42;
    EXPECT_EQ(svc::requestJson(c), kPinnedCancelJson);
    ASSERT_TRUE(svc::requestFromJson(svc::requestJson(c), back,
                                     &err))
        << err;
    EXPECT_EQ(back.kind, ReqKind::Cancel);
    EXPECT_EQ(back.target, 42u);
}

TEST(ServiceProtocol, VersionMismatchIsTyped)
{
    Request out;
    std::string err;
    bool mismatch = false;
    EXPECT_FALSE(svc::requestFromJson(
        "{\"v\":99,\"id\":5,\"kind\":\"stats\"}", out, &err,
        &mismatch));
    EXPECT_TRUE(mismatch);
    EXPECT_EQ(out.id, 5u) << "id must survive for the error frame";

    mismatch = true;
    EXPECT_FALSE(svc::requestFromJson("{\"v\":1,\"id\":5}", out,
                                      &err, &mismatch));
    EXPECT_FALSE(mismatch) << "missing kind is not a version issue";
    EXPECT_NE(err.find("member 'kind' is missing"), std::string::npos)
        << err;
}

/** Requests a lenient reader would accept, each with the member its
 *  error must name: numbers out of their field's range (a cast to
 *  unsigned would be undefined behaviour), a fractional version,
 *  mistyped optional members, and a sleep of 49 days. */
const std::pair<const char *, const char *> kMalformedRequests[] = {
    {"{\"v\":1,\"id\":1,\"kind\":\"status\",\"target\":1e30}", "target"},
    {"{\"v\":1,\"id\":2,\"kind\":\"submit\",\"seed\":-5}", "seed"},
    {"{\"v\":1,\"id\":3,\"kind\":\"submit\","
     "\"seed\":\"0000000000000001\",\"axes\":-1}",
     "axes"},
    {"{\"v\":1,\"id\":4,\"kind\":\"submit\",\"workload\":\"BitOps\","
     "\"deadlineMs\":1e300}",
     "deadlineMs"},
    {"{\"v\":1.5,\"id\":5,\"kind\":\"stats\"}", "v"},
    {"{\"v\":1,\"id\":6,\"kind\":\"submit\",\"workload\":7,\"warm\":true}",
     "workload"},
    {"{\"v\":1,\"id\":7,\"kind\":\"submit\",\"workload\":\"BitOps\","
     "\"debugSleepMs\":4294967295}",
     "debugSleepMs"},
};

TEST(ServiceProtocol, MistypedOrOutOfRangeMembersAreRejected)
{
    std::uint64_t id = 0;
    for (const auto &[text, member] : kMalformedRequests) {
        Request out;
        std::string err;
        bool mismatch = true;
        EXPECT_FALSE(svc::requestFromJson(text, out, &err, &mismatch))
            << text;
        EXPECT_FALSE(mismatch) << text;
        EXPECT_NE(err.find(std::string("member '") + member + "'"),
                  std::string::npos)
            << text << ": " << err;
        EXPECT_EQ(out.id, ++id) << "the id survives for the error frame";
    }
}

// ---- job pool ---------------------------------------------------------

TEST(JobPool, ExecutesEverythingAcrossWorkers)
{
    JobPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 200);
    const auto s = pool.stats();
    EXPECT_EQ(s.submitted, 200u);
    EXPECT_EQ(s.executed, 200u);
    EXPECT_EQ(s.queued, 0u);
    EXPECT_EQ(s.inflight, 0u);
}

/** A worker that frees up takes the oldest queued task: with one
 *  worker held to the end and the other freed after six tasks queue
 *  behind both, the freed worker runs all six in submission order. */
TEST(JobPool, QueuedTasksRunOldestFirst)
{
    JobPool pool(2);
    std::mutex mu;
    std::condition_variable cv;
    int holding = 0;
    bool releaseFirst = false, releaseLast = false;
    std::vector<int> order;
    auto hold = [&](const bool &release) {
        std::unique_lock<std::mutex> lk(mu);
        ++holding;
        cv.notify_all();
        cv.wait(lk, [&] { return release; });
    };
    pool.submit([&] { hold(releaseLast); });
    pool.submit([&] { hold(releaseFirst); });
    {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return holding == 2; });
    }
    for (int i = 0; i < 6; ++i)
        pool.submit([&, i] {
            std::lock_guard<std::mutex> lk(mu);
            order.push_back(i);
            cv.notify_all();
        });
    {
        std::unique_lock<std::mutex> lk(mu);
        releaseFirst = true;
        cv.notify_all();
        cv.wait(lk, [&] { return order.size() == 6; });
        releaseLast = true;
        cv.notify_all();
    }
    pool.drain();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(JobPool, FaultsAreContained)
{
    JobPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([] { throw std::runtime_error("poisoned task"); });
    for (int i = 0; i < 16; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 16);
    EXPECT_EQ(pool.stats().taskFaults, 1u);
}

TEST(JobPool, DrainIsReusable)
{
    JobPool pool(3);
    std::atomic<int> ran{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
        pool.drain();
        EXPECT_EQ(ran.load(), 50 * (round + 1));
    }
}

/** Input-indexed result slots make the output independent of the
 *  worker count and of which worker ran which task. */
TEST(JobPool, ResultSlotsAreDeterministicAcrossWorkerCounts)
{
    auto runOnce = [](std::uint32_t workers) {
        std::vector<std::uint64_t> slots(512, 0);
        JobPool pool(workers);
        for (std::uint32_t i = 0; i < 512; ++i)
            pool.submit([&slots, i] {
                // A value derived only from the input index.
                slots[i] = 0x9e3779b97f4a7c15ull * (i + 1);
            });
        pool.drain();
        return slots;
    };
    const auto serial = runOnce(1);
    EXPECT_EQ(serial, runOnce(8));
    EXPECT_EQ(serial, runOnce(4));
}

// ---- server: protocol edges over a real socket ------------------------

ServiceConfig
quickServerConfig(std::uint32_t workers = 2)
{
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.base.maxCycles = 500'000'000ull;
    return cfg;
}

TEST(JrpmService, GarbageFrameGetsTypedErrorAndConnectionSurvives)
{
    ScopedServer srv(quickServerConfig());
    ServiceClient c = srv.client();

    std::string err;
    ASSERT_TRUE(c.sendRaw("this is not json", &err)) << err;
    JsonValue v;
    ASSERT_TRUE(c.recvJson(v, nullptr, &err)) << err;
    EXPECT_EQ(v["kind"].str, "error");
    EXPECT_EQ(v["status"].str, "bad-request");
    EXPECT_NE(v["detail"].str.find("at byte"), std::string::npos)
        << v["detail"].str;

    // Well-formed frames with a bad member: each answered in turn,
    // with its own id and a detail naming the member.
    double id = 0;
    for (const auto &[text, member] : kMalformedRequests) {
        ASSERT_TRUE(c.sendRaw(text, &err)) << err;
        ASSERT_TRUE(c.recvJson(v, nullptr, &err)) << err;
        EXPECT_EQ(v["status"].str, "bad-request") << text;
        EXPECT_EQ(v["id"].number(), ++id) << text;
        EXPECT_NE(v["detail"].str.find(member), std::string::npos)
            << v["detail"].str;
    }

    // The connection is still usable for a well-formed request.
    Request stats;
    stats.id = 99;
    stats.kind = ReqKind::Stats;
    ASSERT_TRUE(c.call(stats, v, nullptr, &err)) << err;
    EXPECT_EQ(v["status"].str, "ok");
    EXPECT_EQ(v["requests"]["protocolErrors"].number(), id + 1);
}

TEST(JrpmService, VersionMismatchRejectedWithTypedStatus)
{
    ScopedServer srv(quickServerConfig());
    ServiceClient c = srv.client();
    std::string err;
    ASSERT_TRUE(c.sendRaw("{\"v\":2,\"id\":9,\"kind\":\"stats\"}",
                          &err))
        << err;
    JsonValue v;
    ASSERT_TRUE(c.recvJson(v, nullptr, &err)) << err;
    EXPECT_EQ(v["status"].str, "bad-version");
    EXPECT_EQ(v["id"].number(), 9.0);
}

TEST(JrpmService, OversizedFrameAnsweredThenClosed)
{
    ServiceConfig cfg = quickServerConfig();
    cfg.maxFrame = 128;
    ScopedServer srv(cfg);
    ServiceClient c = srv.client();

    std::string err;
    ASSERT_TRUE(c.sendRaw(std::string(256, 'x'), &err)) << err;
    JsonValue v;
    ASSERT_TRUE(c.recvJson(v, nullptr, &err)) << err;
    EXPECT_EQ(v["status"].str, "bad-frame");
    // The stream has no resync point: the server hangs up.
    std::string payload;
    EXPECT_FALSE(c.recv(payload, &err));
}

TEST(JrpmService, UnknownWorkloadAndBadWarmAreBadRequests)
{
    ScopedServer srv(quickServerConfig());
    ServiceClient c = srv.client();
    std::string err;
    JsonValue v;

    Request r;
    r.id = 1;
    r.kind = ReqKind::Submit;
    r.workload = "NoSuchBenchmark";
    ASSERT_TRUE(c.call(r, v, nullptr, &err)) << err;
    EXPECT_EQ(v["status"].str, "bad-request");
    EXPECT_NE(v["detail"].str.find("NoSuchBenchmark"),
              std::string::npos);

    Request w;
    w.id = 2;
    w.kind = ReqKind::Submit;
    w.workload = "BitOps";
    w.warm = "lukewarm";
    ASSERT_TRUE(c.call(w, v, nullptr, &err)) << err;
    EXPECT_EQ(v["status"].str, "bad-request");

    Request neither;
    neither.id = 3;
    neither.kind = ReqKind::Submit;
    ASSERT_TRUE(c.call(neither, v, nullptr, &err)) << err;
    EXPECT_EQ(v["status"].str, "bad-request");
}

// ---- server: end-to-end semantics -------------------------------------

/** The batch driver's report for one forge seed, quick inputs. */
std::string
driverReportFor(std::uint64_t seed)
{
    Workload w =
        forge::scenarioWorkload(forge::generate(seed));
    if (!w.profileArgs.empty()) {
        w.mainArgs = w.profileArgs;
        w.profileArgs.clear();
    }
    JrpmConfig jc;
    jc.maxCycles = 500'000'000ull;
    DriverConfig dc;
    dc.jobs = 1;
    auto res = BatchDriver(dc).run({{w, jc, {}}});
    EXPECT_TRUE(res.at(0).ok) << res.at(0).error;
    return reportJson(res.at(0).report);
}

TEST(JrpmService, SubmitBySeedMatchesBatchDriverByteForByte)
{
    ScopedServer srv(quickServerConfig());
    ServiceClient c = srv.client();
    std::string err, raw;
    JsonValue v;

    for (std::uint64_t seed : {101ull, 202ull, 303ull}) {
        Request r;
        r.id = seed;
        r.kind = ReqKind::Submit;
        r.haveSeed = true;
        r.seed = seed;
        ASSERT_TRUE(c.call(r, v, &raw, &err)) << err;
        ASSERT_EQ(v["kind"].str, "result") << raw;
        // Byte-identical: the service embeds the verbatim
        // reportJson() of the same pipeline the driver runs.
        const std::string expect =
            "\"report\":" + driverReportFor(seed) + "}";
        EXPECT_NE(raw.find(expect), std::string::npos)
            << "service result diverges from batch driver for seed "
            << seed;
    }
}

TEST(JrpmService, FourClientLoopbackSmokeByteIdentical)
{
    ScopedServer srv(quickServerConfig(4));
    constexpr int kClients = 4;
    constexpr int kPerClient = 3;

    std::vector<std::string> raws(kClients * kPerClient);
    std::vector<std::string> errs(kClients);
    std::vector<std::thread> clients;
    for (int ci = 0; ci < kClients; ++ci)
        clients.emplace_back([&, ci] {
            ServiceClient c;
            std::string err;
            if (!c.connect(srv.service.port(), &err)) {
                errs[ci] = err;
                return;
            }
            for (int i = 0; i < kPerClient; ++i) {
                Request r;
                r.id = static_cast<std::uint64_t>(i + 1);
                r.kind = ReqKind::Submit;
                r.haveSeed = true;
                r.seed = 1000ull + ci * kPerClient + i;
                JsonValue v;
                std::string raw;
                if (!c.call(r, v, &raw, &err)) {
                    errs[ci] = err;
                    return;
                }
                if (v["kind"].str != "result") {
                    errs[ci] = "non-result: " + raw;
                    return;
                }
                raws[ci * kPerClient + i] = raw;
            }
        });
    for (auto &t : clients)
        t.join();
    for (int ci = 0; ci < kClients; ++ci)
        EXPECT_EQ(errs[ci], "") << "client " << ci;

    // Every response byte-matches the batch driver run of its seed.
    for (int k = 0; k < kClients * kPerClient; ++k) {
        const std::uint64_t seed = 1000ull + k;
        const std::string expect =
            "\"report\":" + driverReportFor(seed) + "}";
        EXPECT_NE(raws[k].find(expect), std::string::npos)
            << "seed " << seed;
    }
}

TEST(JrpmService, BackpressureRejectsBeyondAdmissionCap)
{
    ServiceConfig cfg = quickServerConfig(1);
    cfg.admissionCap = 2;
    ScopedServer srv(cfg);
    ServiceClient c = srv.client();
    std::string err;

    // Two sleepers fill the cap (one running, one queued)...
    for (int i = 0; i < 2; ++i) {
        Request r;
        r.id = static_cast<std::uint64_t>(i + 1);
        r.kind = ReqKind::Submit;
        r.debugSleepMs = 400;
        ASSERT_TRUE(c.send(r, &err)) << err;
    }
    // ... give the event loop a moment to admit both, then the
    // third submission must bounce with "busy" immediately.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Request r3;
    r3.id = 3;
    r3.kind = ReqKind::Submit;
    r3.debugSleepMs = 400;
    ASSERT_TRUE(c.send(r3, &err)) << err;

    bool sawBusy = false;
    int okCount = 0;
    for (int i = 0; i < 3; ++i) {
        JsonValue v;
        ASSERT_TRUE(c.recvJson(v, nullptr, &err)) << err;
        if (v["status"].str == "busy") {
            sawBusy = true;
            EXPECT_EQ(v["id"].number(), 3.0)
                << "the late submission is the one rejected";
        } else if (v["status"].str == "ok") {
            okCount++;
        }
    }
    EXPECT_TRUE(sawBusy);
    EXPECT_EQ(okCount, 2);
    EXPECT_GE(srv.service.counters().rejectedBusy, 1u);
}

TEST(JrpmService, CancelAndDeadlineProduceTypedOutcomes)
{
    ServiceConfig cfg = quickServerConfig(1);
    ScopedServer srv(cfg);
    ServiceClient c = srv.client();
    std::string err;
    JsonValue v;

    // Occupy the single worker, then cancel a queued request.
    Request sleeper;
    sleeper.id = 1;
    sleeper.kind = ReqKind::Submit;
    sleeper.debugSleepMs = 300;
    ASSERT_TRUE(c.send(sleeper, &err)) << err;

    Request victim;
    victim.id = 2;
    victim.kind = ReqKind::Submit;
    victim.haveSeed = true;
    victim.seed = 77;
    ASSERT_TRUE(c.send(victim, &err)) << err;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    Request status;
    status.id = 3;
    status.kind = ReqKind::Status;
    status.target = 2;
    ASSERT_TRUE(c.call(status, v, nullptr, &err)) << err;
    EXPECT_EQ(v["state"].str, "queued");

    Request cancel;
    cancel.id = 4;
    cancel.kind = ReqKind::Cancel;
    cancel.target = 2;
    ASSERT_TRUE(c.call(cancel, v, nullptr, &err)) << err;
    EXPECT_EQ(v["status"].str, "ok");

    // Deadline: a request whose deadline passed while queued.
    Request late;
    late.id = 5;
    late.kind = ReqKind::Submit;
    late.haveSeed = true;
    late.seed = 78;
    late.deadlineMs = 1;
    ASSERT_TRUE(c.send(late, &err)) << err;

    bool sawCancelled = false, sawDeadline = false;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(c.recvJson(v, nullptr, &err)) << err;
        const double id = v["id"].number();
        if (id == 2.0) {
            EXPECT_EQ(v["status"].str, "cancelled");
            sawCancelled = true;
        } else if (id == 5.0) {
            EXPECT_EQ(v["status"].str, "deadline");
            sawDeadline = true;
        }
    }
    EXPECT_TRUE(sawCancelled);
    EXPECT_TRUE(sawDeadline);

    // Cancelling an unknown id is a typed not-found.
    Request nf;
    nf.id = 6;
    nf.kind = ReqKind::Cancel;
    nf.target = 999;
    ASSERT_TRUE(c.call(nf, v, nullptr, &err)) << err;
    EXPECT_EQ(v["status"].str, "not-found");
}

TEST(JrpmService, StatsFrameReportsSchedulerAndCache)
{
    TempDir tmp;
    ServiceConfig cfg = quickServerConfig();
    cfg.cache.dir = tmp.path + "/repo";
    cfg.cache.capacity = 8;
    ScopedServer srv(cfg);
    ServiceClient c = srv.client();
    std::string err;
    JsonValue v;

    Request sub;
    sub.id = 1;
    sub.kind = ReqKind::Submit;
    sub.haveSeed = true;
    sub.seed = 55;
    ASSERT_TRUE(c.call(sub, v, nullptr, &err)) << err;
    ASSERT_EQ(v["kind"].str, "result");

    Request st;
    st.id = 2;
    st.kind = ReqKind::Stats;
    ASSERT_TRUE(c.call(st, v, nullptr, &err)) << err;
    EXPECT_EQ(v["status"].str, "ok");
    EXPECT_EQ(v["requests"]["results"].number(), 1.0);
    EXPECT_GE(v["scheduler"]["executed"].number(), 1.0);
    EXPECT_EQ(v["cache"]["enabled"].b, true);
    EXPECT_EQ(v["cache"]["capacity"].number(), 8.0);
    // The cold submission stored one crystal entry.
    EXPECT_GE(v["cache"]["stores"].number(), 1.0);
}

TEST(JrpmService, WarmResubmissionHitsTheSharedCache)
{
    TempDir tmp;
    ServiceConfig cfg = quickServerConfig();
    cfg.cache.dir = tmp.path + "/repo";
    ScopedServer srv(cfg);
    ServiceClient c = srv.client();
    std::string err;
    JsonValue v;

    for (int round = 0; round < 2; ++round) {
        Request r;
        r.id = static_cast<std::uint64_t>(round + 1);
        r.kind = ReqKind::Submit;
        r.haveSeed = true;
        r.seed = 4242;
        ASSERT_TRUE(c.call(r, v, nullptr, &err)) << err;
        ASSERT_EQ(v["kind"].str, "result") << "round " << round;
        EXPECT_EQ(v["report"]["warmStart"].b, round == 1)
            << "round " << round;
    }

    Request st;
    st.id = 9;
    st.kind = ReqKind::Stats;
    ASSERT_TRUE(c.call(st, v, nullptr, &err)) << err;
    EXPECT_GE(v["cache"]["hits"].number(), 1.0);
}

/** A fatal() inside one request's pipeline fails that request only:
 *  a "warm": "warm" submit against an empty cache gets an error
 *  frame, and the same connection's next submit gets a result. */
TEST(JrpmService, FatalInOneRequestIsContained)
{
    TempDir tmp;
    ServiceConfig cfg = quickServerConfig();
    cfg.cache.dir = tmp.path + "/repo";
    ScopedServer srv(cfg);
    ServiceClient c = srv.client();
    std::string err;
    JsonValue v;

    Request r;
    r.id = 1;
    r.kind = ReqKind::Submit;
    r.haveSeed = true;
    r.seed = 4243;
    r.warm = "warm";
    ASSERT_TRUE(c.call(r, v, nullptr, &err)) << err;
    EXPECT_EQ(v["kind"].str, "error");
    EXPECT_EQ(v["status"].str, "error");
    EXPECT_NE(v["detail"].str.find("--warm=warm"), std::string::npos)
        << v["detail"].str;

    r.id = 2;
    r.warm.clear();
    ASSERT_TRUE(c.call(r, v, nullptr, &err)) << err;
    EXPECT_EQ(v["kind"].str, "result");
    EXPECT_EQ(srv.service.counters().pipelineErrors, 1u);
}

TEST(JrpmService, GracefulShutdownDrainsInflightAndRejectsNew)
{
    ServiceConfig cfg = quickServerConfig(1);
    ScopedServer srv(cfg);
    ServiceClient c = srv.client();
    std::string err;

    // One slow submission in flight...
    Request slow;
    slow.id = 1;
    slow.kind = ReqKind::Submit;
    slow.debugSleepMs = 300;
    ASSERT_TRUE(c.send(slow, &err)) << err;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // ... then shutdown, then a submission that must be refused.
    Request down;
    down.id = 2;
    down.kind = ReqKind::Shutdown;
    ASSERT_TRUE(c.send(down, &err)) << err;
    Request rejected;
    rejected.id = 3;
    rejected.kind = ReqKind::Submit;
    rejected.debugSleepMs = 10;
    ASSERT_TRUE(c.send(rejected, &err)) << err;

    bool slowAnswered = false, downAcked = false,
         newRejected = false;
    for (int i = 0; i < 3; ++i) {
        JsonValue v;
        ASSERT_TRUE(c.recvJson(v, nullptr, &err)) << err;
        const double id = v["id"].number();
        if (id == 1.0) {
            EXPECT_EQ(v["status"].str, "ok");
            slowAnswered = true;
        } else if (id == 2.0) {
            EXPECT_EQ(v["status"].str, "ok");
            downAcked = true;
        } else if (id == 3.0) {
            EXPECT_EQ(v["status"].str, "shutdown");
            newRejected = true;
        }
    }
    EXPECT_TRUE(slowAnswered)
        << "in-flight work must drain, not vanish";
    EXPECT_TRUE(downAcked);
    EXPECT_TRUE(newRejected);

    srv.service.join();
    EXPECT_FALSE(srv.service.running());
}

} // namespace
} // namespace jrpm

/**
 * @file
 * Tests for the host-parallel batch driver and the JrpmSystem
 * warm-start path: parallel batches must reproduce serial results
 * exactly, warm runs must skip profiling yet match the cold pipeline
 * bit-for-bit, and badly mispredicting entries must be demoted.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/logging.hh"
#include "core/report_json.hh"
#include "driver/driver.hh"
#include "workloads/workloads.hh"

namespace jrpm
{
namespace
{

/** A fresh temp directory removed at scope exit. */
struct TempDir
{
    std::filesystem::path path;

    TempDir()
    {
        char tmpl[] = "/tmp/jrpm-driver-XXXXXX";
        path = ::mkdtemp(tmpl);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
};

/** Small, fast workloads: run them on their profiling inputs. */
std::vector<Workload>
quickWorkloads()
{
    std::vector<Workload> out;
    for (const char *name :
         {"Assignment", "BitOps", "Huffman", "NumHeapSort"}) {
        Workload w = wl::workloadByName(name);
        if (!w.profileArgs.empty()) {
            w.mainArgs = w.profileArgs;
            w.profileArgs.clear();
        }
        out.push_back(std::move(w));
    }
    return out;
}

std::vector<DriverJob>
jobsFor(const std::vector<Workload> &ws, const JrpmConfig &cfg)
{
    std::vector<DriverJob> jobs;
    for (const Workload &w : ws)
        jobs.push_back({w, cfg, {}});
    return jobs;
}

TEST(BatchDriver, ParallelMatchesSerial)
{
    const auto ws = quickWorkloads();
    JrpmConfig cfg;
    cfg.oracle.mode = OracleMode::Strict;

    DriverConfig serial;
    serial.jobs = 1;
    const auto one = BatchDriver(serial).run(jobsFor(ws, cfg));

    DriverConfig parallel;
    parallel.jobs = 4;
    const auto four = BatchDriver(parallel).run(jobsFor(ws, cfg));

    ASSERT_EQ(one.size(), ws.size());
    ASSERT_EQ(four.size(), ws.size());
    for (std::size_t i = 0; i < ws.size(); ++i) {
        SCOPED_TRACE(ws[i].name);
        ASSERT_TRUE(one[i].ok) << one[i].error;
        ASSERT_TRUE(four[i].ok) << four[i].error;
        const JrpmReport &a = one[i].report;
        const JrpmReport &b = four[i].report;
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.seqMain.cycles, b.seqMain.cycles);
        EXPECT_EQ(a.seqMain.exitValue, b.seqMain.exitValue);
        EXPECT_EQ(a.tls.cycles, b.tls.cycles);
        EXPECT_EQ(a.tls.exitValue, b.tls.exitValue);
        EXPECT_EQ(a.selections.size(), b.selections.size());
        EXPECT_EQ(a.totalSpeedup, b.totalSpeedup);
        EXPECT_TRUE(b.oracle.match());
    }
}

TEST(BatchDriver, WarmStartRoundTrip)
{
    TempDir td;
    const auto ws = quickWorkloads();
    JrpmConfig cfg;
    cfg.oracle.mode = OracleMode::Strict;

    DriverConfig cold;
    cold.jobs = 4;
    cold.repoDir = td.path.string();
    cold.warm = WarmMode::Cold;
    const auto first = BatchDriver(cold).run(jobsFor(ws, cfg));
    for (std::size_t i = 0; i < ws.size(); ++i) {
        ASSERT_TRUE(first[i].ok) << first[i].error;
        EXPECT_FALSE(first[i].report.warmStart);
    }

    DriverConfig warm = cold;
    warm.warm = WarmMode::Warm; // a miss would be fatal
    const auto second = BatchDriver(warm).run(jobsFor(ws, cfg));
    for (std::size_t i = 0; i < ws.size(); ++i) {
        SCOPED_TRACE(ws[i].name);
        ASSERT_TRUE(second[i].ok) << second[i].error;
        const JrpmReport &a = first[i].report;
        const JrpmReport &b = second[i].report;
        EXPECT_TRUE(b.warmStart);
        EXPECT_FALSE(b.demoted);
        // Steps 2-3 skipped: zero profiling cycles charged.
        EXPECT_EQ(b.phases.profiling, 0u);
        // Yet the run is bit-identical to the cold pipeline.
        EXPECT_EQ(b.tls.cycles, a.tls.cycles);
        EXPECT_EQ(b.tls.exitValue, a.tls.exitValue);
        EXPECT_EQ(b.seqMain.cycles, a.seqMain.cycles);
        EXPECT_EQ(b.predictedTlsCycles, a.predictedTlsCycles);
        EXPECT_EQ(b.profilingSlowdown, a.profilingSlowdown);
        EXPECT_EQ(b.actualSpeedup, a.actualSpeedup);
        ASSERT_EQ(b.selections.size(), a.selections.size());
        for (std::size_t s = 0; s < a.selections.size(); ++s)
            EXPECT_EQ(b.selections[s].loopId, a.selections[s].loopId);
        EXPECT_TRUE(b.oracle.match());
        // Warm totals beat cold ones: profiling is free.
        EXPECT_GE(b.totalSpeedup, a.totalSpeedup);
    }
}

TEST(BatchDriver, DemotesWildMispredictions)
{
    TempDir td;
    Workload w = wl::workloadByName("Huffman");
    if (!w.profileArgs.empty()) {
        w.mainArgs = w.profileArgs;
        w.profileArgs.clear();
    }
    JrpmConfig cfg;

    CrystalRepo repo(td.path.string());
    cfg.crystal.repo = &repo;
    cfg.crystal.warm = WarmMode::Cold;
    JrpmReport coldRep = JrpmSystem(w, cfg).run();
    ASSERT_FALSE(coldRep.warmStart);

    // Poison the stored prediction so the warm run must demote it.
    CrystalEntry entry;
    ASSERT_TRUE(repo.lookup(coldRep.fingerprint, entry));
    entry.predictedSpeedup = 1000.0;
    ASSERT_TRUE(repo.store(entry));

    cfg.crystal.warm = WarmMode::Auto;
    JrpmReport warmRep = JrpmSystem(w, cfg).run();
    EXPECT_TRUE(warmRep.warmStart);
    EXPECT_TRUE(warmRep.demoted);

    // The entry is gone; the next Auto run goes cold again.
    CrystalEntry gone;
    EXPECT_FALSE(repo.lookup(coldRep.fingerprint, gone));
    JrpmReport third = JrpmSystem(w, cfg).run();
    EXPECT_FALSE(third.warmStart);
}

TEST(BatchDriver, OneFailingJobDoesNotAbortTheBatch)
{
    // Job 1 throws, job 2 hits a fatal() path (a --warm=warm miss
    // on an empty repository).  Both must come back as per-case
    // error results while every sibling still completes.
    TempDir td;
    const auto ws = quickWorkloads();
    JrpmConfig cfg;

    std::vector<DriverJob> jobs = jobsFor(ws, cfg);
    jobs[1].custom = []() -> JrpmReport {
        throw std::runtime_error("scenario exploded");
    };
    CrystalRepo emptyRepo(td.path.string());
    jobs[2].cfg.crystal.repo = &emptyRepo;
    jobs[2].cfg.crystal.warm = WarmMode::Warm;

    DriverConfig dc;
    dc.jobs = 4;
    const auto res = BatchDriver(dc).run(std::move(jobs));

    ASSERT_EQ(res.size(), ws.size());
    EXPECT_FALSE(res[1].ok);
    EXPECT_NE(res[1].error.find("scenario exploded"),
              std::string::npos);
    EXPECT_FALSE(res[2].ok);
    EXPECT_NE(res[2].error.find("--warm=warm"), std::string::npos)
        << res[2].error;
    for (std::size_t i : {std::size_t(0), std::size_t(3)}) {
        SCOPED_TRACE(i);
        EXPECT_TRUE(res[i].ok) << res[i].error;
        EXPECT_TRUE(res[i].report.seqMain.halted);
    }
}

TEST(FatalCapture, ThrowsInsteadOfExitingAndUnwinds)
{
    EXPECT_THROW(
        {
            ScopedFatalCapture capture;
            fatal("captured %d", 42);
        },
        FatalError);
    try {
        ScopedFatalCapture capture;
        fatal("captured %d", 42);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "captured 42");
    }
}

TEST(BatchDriver, EmptyBatchAndOwnedRepo)
{
    TempDir td;
    DriverConfig dc;
    dc.jobs = 8;
    dc.repoDir = td.path.string();
    BatchDriver driver(dc);
    EXPECT_TRUE(driver.run({}).empty());
    ASSERT_NE(driver.repo(), nullptr);
    EXPECT_EQ(driver.repo()->dir(), td.path.string());
}

TEST(BatchDriver, PreCancelledBatchSkipsEveryCase)
{
    const auto ws = quickWorkloads();
    DriverConfig dc;
    dc.jobs = 2;
    dc.cancel = CancelToken::make();
    dc.cancel.cancel();
    const auto res = BatchDriver(dc).run(jobsFor(ws, JrpmConfig{}));
    ASSERT_EQ(res.size(), ws.size());
    for (const DriverResult &r : res) {
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error, "cancelled");
    }
}

TEST(BatchDriver, MidBatchCancelStopsRemainingCases)
{
    // 12 copies of one workload, 1 worker: the first case's custom
    // body fires the token, so later cases must be skipped at the
    // batch-case boundary.
    Workload w = wl::workloadByName("BitOps");
    if (!w.profileArgs.empty()) {
        w.mainArgs = w.profileArgs;
        w.profileArgs.clear();
    }
    DriverConfig dc;
    dc.jobs = 1;
    dc.cancel = CancelToken::make();
    CancelToken token = dc.cancel;

    std::vector<DriverJob> jobs = jobsFor({w, w, w}, JrpmConfig{});
    for (int i = 0; i < 9; ++i)
        jobs.push_back(jobs.back());
    jobs[0].custom = [token]() mutable -> JrpmReport {
        token.cancel();
        return JrpmReport{};
    };

    const auto res = BatchDriver(dc).run(std::move(jobs));
    ASSERT_EQ(res.size(), 12u);
    EXPECT_TRUE(res[0].ok);
    for (std::size_t i = 1; i < res.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_FALSE(res[i].ok);
        EXPECT_EQ(res[i].error, "cancelled");
    }
}

TEST(BatchDriver, ExpiredDeadlineReportsDeadline)
{
    const auto ws = quickWorkloads();
    DriverConfig dc;
    dc.jobs = 2;
    dc.cancel = CancelToken::make();
    dc.cancel.setDeadlineAfterMs(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto res = BatchDriver(dc).run(jobsFor(ws, JrpmConfig{}));
    for (const DriverResult &r : res) {
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error, "deadline");
    }
}

/** The job pool must not perturb output bytes: any worker count
 *  yields the serial batch, report for report. */
TEST(BatchDriver, OutputIndependentOfWorkerCount)
{
    const auto ws = quickWorkloads();
    JrpmConfig cfg;

    DriverConfig serial;
    serial.jobs = 1;
    const auto base = BatchDriver(serial).run(jobsFor(ws, cfg));

    for (std::uint32_t jobs : {2u, 3u, 8u}) {
        SCOPED_TRACE(jobs);
        DriverConfig dc;
        dc.jobs = jobs;
        const auto got = BatchDriver(dc).run(jobsFor(ws, cfg));
        ASSERT_EQ(got.size(), base.size());
        for (std::size_t i = 0; i < base.size(); ++i) {
            SCOPED_TRACE(ws[i].name);
            EXPECT_EQ(reportJson(got[i].report),
                      reportJson(base[i].report));
        }
    }
}

} // namespace
} // namespace jrpm

/**
 * @file
 * Fleet orchestrator tests: the wire format, the crash-consistent
 * campaign manifest (torn journals, corrupt checkpoints, config
 * conflicts, idempotent double-loads), the obs crash-signal
 * failsafe, and — through the real bench binary (JRPM_FLEET_EXE) —
 * the end-to-end guarantees: multi-process campaigns complete, and a
 * poison case is quarantined with a shrunk repro while the rest of
 * the campaign finishes.
 */

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/fault.hh"
#include "common/hostprof.hh"
#include "common/obs.hh"
#include "common/seal.hh"
#include "fleet/fleet.hh"
#include "fleet/manifest.hh"
#include "fleet/wire.hh"
#include "forge/campaign.hh"
#include "forge/corpus.hh"
#include "forge/weights.hh"
#include "member_mutants.hh"
#include "temp_dir.hh"

namespace jrpm
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
append(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::app);
    out << text;
}

/** A CaseResult with every wire field populated distinctly. */
forge::CaseResult
sampleCase(std::uint64_t seed)
{
    forge::CaseResult cr;
    cr.seed = seed;
    cr.axes = 0x1a5;
    cr.stmts = 17;
    cr.ok = true;
    cr.error = "quote\" and \\slash";
    cr.pipelineDiverged = true;
    cr.forcedLoops = 4;
    cr.forcedDiverged = 1;
    cr.watchdog = true;
    cr.silent = true;
    cr.faultsInjected = 3;
    cr.detail = "loop 2: mem[0x10] differs";
    cr.speedup = 1.75;
    cr.seqCycles = 123456789;
    cr.tlsCycles = 987654321;
    cr.violations = 42;
    cr.commits = 17;
    cr.overflowStalls = 5;
    cr.specWindows = 9;
    cr.specWindowInsts = 9000;
    cr.specSlowSteps = 11;
    cr.specFastMem = 4400;
    cr.sigHits = 77;
    cr.sigFalsePositives = 13;
    cr.forwardedLoads = 23;
    cr.meanBurst = 812.5;
    for (std::size_t i = 0; i < cr.squashCauses.size(); ++i)
        cr.squashCauses[i] = 100 + i;
    for (std::size_t i = 0; i < cr.violationsByClass.size(); ++i)
        cr.violationsByClass[i] = 200 + i;
    cr.loopSquashes = {{0, 7}, {3, 1}};
    cr.governorAborts = 6;
    cr.soloEntries = 2;
    cr.stlEntries = 8;
    cr.syncLockPlans = 1;
    cr.multilevelPlans = 2;
    cr.demoted = true;
    cr.wallMs = 333.25;
    cr.sigHash = 0xabcdef0123456789ull;
    return cr;
}

void
expectSameCase(const forge::CaseResult &a, const forge::CaseResult &b)
{
    EXPECT_EQ(a.seed, b.seed);
    // Doubles travel at 17 significant digits, so they round-trip
    // exactly too.
#define JRPM_EXPECT_SAME(type, member, ...)                                  \
    EXPECT_EQ(a.member, b.member) << #member;
    JRPM_CASE_OUTCOME(JRPM_EXPECT_SAME)
    JRPM_CASE_TELEMETRY(JRPM_EXPECT_SAME)
#undef JRPM_EXPECT_SAME
    EXPECT_EQ(a.squashCauses, b.squashCauses);
    EXPECT_EQ(a.violationsByClass, b.violationsByClass);
    EXPECT_EQ(a.loopSquashes, b.loopSquashes);
    EXPECT_EQ(a.sigHash, b.sigHash);
}

// Pinned: the wire bytes of the sample case.  Manifests written by
// older workers must stay readable, so the record format is fixed.
const char *const kPinnedCaseJson =
    "{\"seed\":\"deadbeefcafe1234\",\"axes\":421,\"stmts\":17,\"ok\":true,"
    "\"error\":\"quote\\\" and \\\\slash\",\"pipelineDiverged\":true,"
    "\"forcedLoops\":4,\"forcedDiverged\":1,\"watchdog\":true,"
    "\"silent\":true,\"faultsInjected\":3,\"detail\":\"loop 2: mem["
    "0x10] differs\",\"speedup\":1.75,\"seqCycles\":123456789,"
    "\"tlsCycles\":987654321,\"violations\":42,\"commits\":17,"
    "\"overflowStalls\":5,\"specWindows\":9,\"specWindowInsts\":9000,"
    "\"specSlowSteps\":11,\"specFastMem\":4400,\"sigHits\":77,"
    "\"sigFalsePositives\":13,\"forwardedLoads\":23,\"meanBurst\":812.5,"
    "\"wallMs\":333.25,\"squashCauses\":[100,101,102,103,104],"
    "\"violationsByClass\":[200,201,202,203,204],\"loopSquashes\":[[0,7],[3,"
    "1]],\"governorAborts\":6,\"soloEntries\":2,\"stlEntries\":8,"
    "\"syncLockPlans\":1,\"multilevelPlans\":2,\"demoted\":true,"
    "\"sigHash\":\"abcdef0123456789\"}";

TEST(FleetWire, CaseResultRoundTripsEveryField)
{
    const forge::CaseResult in = sampleCase(0xdeadbeefcafe1234ull);
    const std::string json = fleet::caseResultJson(in);
    EXPECT_EQ(json, kPinnedCaseJson);
    EXPECT_EQ(json.find('\n'), std::string::npos)
        << "wire records must be single lines";

    forge::CaseResult out;
    std::string err;
    ASSERT_TRUE(fleet::caseResultFromJson(json, out, &err)) << err;
    expectSameCase(in, out);
}

// Pinned: the analytics document of a two-case campaign with the
// host profiler off (every slot reads zero); scripts/obs_report.py
// reads this format.
const char *const kPinnedAnalyticsJson =
    "{\"schema\":\"jrpm-campaign-analytics-v1\","
    "\"seed\":\"0000000000005eed\",\"axes\":421,\"cases\":2,\"failures\":1,"
    "\"pipelineErrors\":2,\"divergences\":3,\"oracleDetected\":4,"
    "\"watchdogs\":5,\"forcedRuns\":6,\"distinctSignatures\":7,\"metrics\":{"
    "\"speedup\":{\"n\":2,\"min\":0.80000000000000004,\"p50\":1.75,"
    "\"p90\":1.75,\"p99\":1.75,\"p999\":1.75,\"max\":1.75,"
    "\"mean\":1.2749999999999999},\"seqCycles\":{\"n\":2,\"min\":1000,"
    "\"p50\":123456789,\"p90\":123456789,\"p99\":123456789,"
    "\"p999\":123456789,\"max\":123456789,\"mean\":61728894.5},"
    "\"tlsCycles\":{\"n\":2,\"min\":987654321,\"p50\":987654321,"
    "\"p90\":987654321,\"p99\":987654321,\"p999\":987654321,"
    "\"max\":987654321,\"mean\":987654321},\"violations\":{\"n\":2,\"min\":5,"
    "\"p50\":42,\"p90\":42,\"p99\":42,\"p999\":42,\"max\":42,\"mean\":23.5},"
    "\"commits\":{\"n\":2,\"min\":17,\"p50\":17,\"p90\":17,\"p99\":17,"
    "\"p999\":17,\"max\":17,\"mean\":17},\"overflowStalls\":{\"n\":2,"
    "\"min\":5,\"p50\":5,\"p90\":5,\"p99\":5,\"p999\":5,\"max\":5,"
    "\"mean\":5},\"specWindows\":{\"n\":2,\"min\":9,\"p50\":9,\"p90\":9,"
    "\"p99\":9,\"p999\":9,\"max\":9,\"mean\":9},\"specWindowInsts\":{\"n\":2,"
    "\"min\":9000,\"p50\":9000,\"p90\":9000,\"p99\":9000,\"p999\":9000,"
    "\"max\":9000,\"mean\":9000},\"specSlowSteps\":{\"n\":2,\"min\":3,"
    "\"p50\":11,\"p90\":11,\"p99\":11,\"p999\":11,\"max\":11,\"mean\":7},"
    "\"specFastMem\":{\"n\":2,\"min\":4400,\"p50\":4400,\"p90\":4400,"
    "\"p99\":4400,\"p999\":4400,\"max\":4400,\"mean\":4400},\"sigHits\":{"
    "\"n\":2,\"min\":77,\"p50\":77,\"p90\":77,\"p99\":77,\"p999\":77,"
    "\"max\":77,\"mean\":77},\"sigFalsePositives\":{\"n\":2,\"min\":13,"
    "\"p50\":13,\"p90\":13,\"p99\":13,\"p999\":13,\"max\":13,\"mean\":13},"
    "\"forwardedLoads\":{\"n\":2,\"min\":23,\"p50\":23,\"p90\":23,\"p99\":23,"
    "\"p999\":23,\"max\":23,\"mean\":23},\"meanBurst\":{\"n\":2,"
    "\"min\":0.33333333333333331,\"p50\":812.5,\"p90\":812.5,\"p99\":812.5,"
    "\"p999\":812.5,\"max\":812.5,\"mean\":406.41666666666669},\"wallMs\":{"
    "\"n\":2,\"min\":12.5,\"p50\":333.25,\"p90\":333.25,\"p99\":333.25,"
    "\"p999\":333.25,\"max\":333.25,\"mean\":172.875}},\"perAxis\":{"
    "\"baseline\":{\"cases\":0,\"speedup\":{\"n\":2,"
    "\"min\":0.80000000000000004,\"p50\":1.75,\"p90\":1.75,\"p99\":1.75,"
    "\"p999\":1.75,\"max\":1.75,\"mean\":1.2749999999999999},\"violations\":{"
    "\"n\":2,\"min\":5,\"p50\":42,\"p90\":42,\"p99\":42,\"p999\":42,"
    "\"max\":42,\"mean\":23.5},\"specSlowSteps\":{\"n\":2,\"min\":3,"
    "\"p50\":11,\"p90\":11,\"p99\":11,\"p999\":11,\"max\":11,\"mean\":7}},"
    "\"nested\":{\"cases\":1,\"speedup\":{\"n\":1,"
    "\"min\":0.80000000000000004,\"p50\":0.80000000000000004,"
    "\"p90\":0.80000000000000004,\"p99\":0.80000000000000004,"
    "\"p999\":0.80000000000000004,\"max\":0.80000000000000004,"
    "\"mean\":0.80000000000000004},\"violations\":{\"n\":1,\"min\":5,"
    "\"p50\":5,\"p90\":5,\"p99\":5,\"p999\":5,\"max\":5,\"mean\":5},"
    "\"specSlowSteps\":{\"n\":1,\"min\":3,\"p50\":3,\"p90\":3,\"p99\":3,"
    "\"p999\":3,\"max\":3,\"mean\":3}},\"calls\":{\"cases\":2,\"speedup\":{"
    "\"n\":1,\"min\":1.75,\"p50\":1.75,\"p90\":1.75,\"p99\":1.75,"
    "\"p999\":1.75,\"max\":1.75,\"mean\":1.75},\"violations\":{\"n\":1,"
    "\"min\":42,\"p50\":42,\"p90\":42,\"p99\":42,\"p999\":42,\"max\":42,"
    "\"mean\":42},\"specSlowSteps\":{\"n\":1,\"min\":11,\"p50\":11,"
    "\"p90\":11,\"p99\":11,\"p999\":11,\"max\":11,\"mean\":11}},"
    "\"condcarried\":{\"cases\":0,\"speedup\":{\"n\":0,\"min\":0,\"p50\":0,"
    "\"p90\":0,\"p99\":0,\"p999\":0,\"max\":0,\"mean\":0},\"violations\":{"
    "\"n\":0,\"min\":0,\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0,\"max\":0,"
    "\"mean\":0},\"specSlowSteps\":{\"n\":0,\"min\":0,\"p50\":0,\"p90\":0,"
    "\"p99\":0,\"p999\":0,\"max\":0,\"mean\":0}},\"reduction\":{\"cases\":1,"
    "\"speedup\":{\"n\":0,\"min\":0,\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0,"
    "\"max\":0,\"mean\":0},\"violations\":{\"n\":0,\"min\":0,\"p50\":0,"
    "\"p90\":0,\"p99\":0,\"p999\":0,\"max\":0,\"mean\":0},\"specSlowSteps\":{"
    "\"n\":0,\"min\":0,\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0,\"max\":0,"
    "\"mean\":0}},\"resetind\":{\"cases\":2,\"speedup\":{\"n\":1,"
    "\"min\":1.75,\"p50\":1.75,\"p90\":1.75,\"p99\":1.75,\"p999\":1.75,"
    "\"max\":1.75,\"mean\":1.75},\"violations\":{\"n\":1,\"min\":42,"
    "\"p50\":42,\"p90\":42,\"p99\":42,\"p999\":42,\"max\":42,\"mean\":42},"
    "\"specSlowSteps\":{\"n\":1,\"min\":11,\"p50\":11,\"p90\":11,\"p99\":11,"
    "\"p999\":11,\"max\":11,\"mean\":11}},\"sync\":{\"cases\":0,\"speedup\":{"
    "\"n\":0,\"min\":0,\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0,\"max\":0,"
    "\"mean\":0},\"violations\":{\"n\":0,\"min\":0,\"p50\":0,\"p90\":0,"
    "\"p99\":0,\"p999\":0,\"max\":0,\"mean\":0},\"specSlowSteps\":{\"n\":0,"
    "\"min\":0,\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0,\"max\":0,"
    "\"mean\":0}},\"exception\":{\"cases\":1,\"speedup\":{\"n\":1,"
    "\"min\":1.75,\"p50\":1.75,\"p90\":1.75,\"p99\":1.75,\"p999\":1.75,"
    "\"max\":1.75,\"mean\":1.75},\"violations\":{\"n\":1,\"min\":42,"
    "\"p50\":42,\"p90\":42,\"p99\":42,\"p999\":42,\"max\":42,\"mean\":42},"
    "\"specSlowSteps\":{\"n\":1,\"min\":11,\"p50\":11,\"p90\":11,\"p99\":11,"
    "\"p999\":11,\"max\":11,\"mean\":11}},\"alloc\":{\"cases\":2,"
    "\"speedup\":{\"n\":1,\"min\":1.75,\"p50\":1.75,\"p90\":1.75,"
    "\"p99\":1.75,\"p999\":1.75,\"max\":1.75,\"mean\":1.75},\"violations\":{"
    "\"n\":1,\"min\":42,\"p50\":42,\"p90\":42,\"p99\":42,\"p999\":42,"
    "\"max\":42,\"mean\":42},\"specSlowSteps\":{\"n\":1,\"min\":11,"
    "\"p50\":11,\"p90\":11,\"p99\":11,\"p999\":11,\"max\":11,\"mean\":11}}},"
    "\"squashCauses\":{\"raw_violation\":200,\"spurious_fault\":202,"
    "\"stl_switch\":204,\"watchdog\":206,\"governor\":208},"
    "\"violationsByClass\":{\"unknown\":400,\"stack\":402,\"heap\":404,"
    "\"static\":406,\"scratch\":408},\"topSquashLoops\":[{"
    "\"seed\":\"0000000000000002\",\"loopId\":1,\"squashes\":9},{"
    "\"seed\":\"0000000000000001\",\"loopId\":0,\"squashes\":7},{"
    "\"seed\":\"0000000000000002\",\"loopId\":4,\"squashes\":7},{"
    "\"seed\":\"0000000000000001\",\"loopId\":3,\"squashes\":1}],\"fleet\":{"
    "\"resumed\":true,\"workerDeaths\":8,\"crashes\":9,\"timeouts\":10,"
    "\"retries\":11,\"quarantined\":12,\"reshards\":13,\"tornRecords\":14},"
    "\"hostprof\":[{\"slot\":\"pipeline\",\"parent\":null,\"ticks\":0,"
    "\"selfTicks\":0,\"scopes\":0,\"totalSec\":0.000000000,"
    "\"selfSec\":0.000000000},{\"slot\":\"jit_compile\","
    "\"parent\":\"pipeline\",\"ticks\":0,\"selfTicks\":0,\"scopes\":0,"
    "\"totalSec\":0.000000000,\"selfSec\":0.000000000},{"
    "\"slot\":\"machine_run\",\"parent\":\"pipeline\",\"ticks\":0,"
    "\"selfTicks\":0,\"scopes\":0,\"totalSec\":0.000000000,"
    "\"selfSec\":0.000000000},{\"slot\":\"seq_dispatch\","
    "\"parent\":\"machine_run\",\"ticks\":0,\"selfTicks\":0,\"scopes\":0,"
    "\"totalSec\":0.000000000,\"selfSec\":0.000000000},{"
    "\"slot\":\"spec_dispatch\",\"parent\":\"machine_run\",\"ticks\":0,"
    "\"selfTicks\":0,\"scopes\":0,\"totalSec\":0.000000000,"
    "\"selfSec\":0.000000000},{\"slot\":\"event_horizon\","
    "\"parent\":\"machine_run\",\"ticks\":0,\"selfTicks\":0,\"scopes\":0,"
    "\"totalSec\":0.000000000,\"selfSec\":0.000000000},{"
    "\"slot\":\"step_exact\",\"parent\":\"machine_run\",\"ticks\":0,"
    "\"selfTicks\":0,\"scopes\":0,\"totalSec\":0.000000000,"
    "\"selfSec\":0.000000000},{\"slot\":\"forward_scan\","
    "\"parent\":\"step_exact\",\"ticks\":0,\"selfTicks\":0,\"scopes\":0,"
    "\"totalSec\":0.000000000,\"selfSec\":0.000000000},{"
    "\"slot\":\"dep_check\",\"parent\":\"step_exact\",\"ticks\":0,"
    "\"selfTicks\":0,\"scopes\":0,\"totalSec\":0.000000000,"
    "\"selfSec\":0.000000000},{\"slot\":\"commit\",\"parent\":\"step_exact\","
    "\"ticks\":0,\"selfTicks\":0,\"scopes\":0,\"totalSec\":0.000000000,"
    "\"selfSec\":0.000000000},{\"slot\":\"squash\",\"parent\":\"step_exact\","
    "\"ticks\":0,\"selfTicks\":0,\"scopes\":0,\"totalSec\":0.000000000,"
    "\"selfSec\":0.000000000},{\"slot\":\"buffer_drain\","
    "\"parent\":\"commit\",\"ticks\":0,\"selfTicks\":0,\"scopes\":0,"
    "\"totalSec\":0.000000000,\"selfSec\":0.000000000},{"
    "\"slot\":\"spec_state_clear\",\"parent\":\"squash\",\"ticks\":0,"
    "\"selfTicks\":0,\"scopes\":0,\"totalSec\":0.000000000,"
    "\"selfSec\":0.000000000},{"
    "\"slot\":\"trap_runtime\",\"parent\":\"step_exact\",\"ticks\":0,"
    "\"selfTicks\":0,\"scopes\":0,\"totalSec\":0.000000000,"
    "\"selfSec\":0.000000000},{\"slot\":\"oracle_check\","
    "\"parent\":\"pipeline\",\"ticks\":0,\"selfTicks\":0,\"scopes\":0,"
    "\"totalSec\":0.000000000,\"selfSec\":0.000000000},{"
    "\"slot\":\"metrics_publish\",\"parent\":\"pipeline\",\"ticks\":0,"
    "\"selfTicks\":0,\"scopes\":0,\"totalSec\":0.000000000,"
    "\"selfSec\":0.000000000},{\"slot\":\"sig_check\","
    "\"parent\":\"step_exact\",\"ticks\":0,\"selfTicks\":0,\"scopes\":0,"
    "\"totalSec\":0.000000000,\"selfSec\":0.000000000}]}";

TEST(CampaignAnalytics, BytesArePinned)
{
    hostprof::reset();
    forge::CampaignConfig cfg;
    cfg.seed = 0x5eed;
    cfg.axes = 0x1a5;
    forge::CaseResult b = sampleCase(0x2);
    b.axes = 0x3;
    b.speedup = 0.8;
    b.seqCycles = 1000;
    b.violations = 5;
    b.specSlowSteps = 3;
    b.meanBurst = 1.0 / 3.0;
    b.wallMs = 12.5;
    b.loopSquashes = {{1, 9}, {4, 7}};
    forge::CampaignResult res;
    res.cases = 2;
    res.results = {sampleCase(0x1), b};
    res.failures = 1;
    res.pipelineErrors = 2;
    res.divergences = 3;
    res.oracleDetected = 4;
    res.watchdogs = 5;
    res.forcedRuns = 6;
    res.distinctSignatures = 7;
    for (std::size_t a = 0; a < res.axisScenarios.size(); ++a)
        res.axisScenarios[a] = static_cast<std::uint32_t>(a % 3);
    res.fleet = {true, true, 8, 9, 10, 11, 12, 13, 14};
    EXPECT_EQ(forge::campaignAnalyticsJson(cfg, res),
              kPinnedAnalyticsJson);
}

TEST(FleetWire, MissingOrMistypedMemberIsRejected)
{
    // Every worker is the supervisor's own binary and writes every
    // member, sigHash included, so a record short of one is no
    // record: it must fail, not read as zeros.
    const auto mutants = memberMutants(
        sealDocument(fleet::caseResultJson(sampleCase(0x51))));
    std::size_t members = 5; // seed, the three arrays, sigHash
#define JRPM_COUNT_MEMBER(...) ++members;
    JRPM_CASE_OUTCOME(JRPM_COUNT_MEMBER)
    JRPM_CASE_TELEMETRY(JRPM_COUNT_MEMBER)
#undef JRPM_COUNT_MEMBER
    EXPECT_EQ(mutants.size(), 2 * members);
    for (const auto &[what, sealed] : mutants) {
        std::string doc, err;
        ASSERT_TRUE(unsealDocument(sealed, doc)) << what;
        forge::CaseResult out = sampleCase(0x7);
        EXPECT_FALSE(fleet::caseResultFromJson(doc, out, &err)) << what;
        EXPECT_NE(err.find("member '"), std::string::npos)
            << what << ": " << err;
        expectSameCase(out, sampleCase(0x7)); // untouched on failure
    }
}

TEST(FleetWire, RejectsGarbageAndStructuralMismatch)
{
    forge::CaseResult out;
    std::string err;
    EXPECT_FALSE(fleet::caseResultFromJson("not json", out, &err));
    EXPECT_FALSE(fleet::caseResultFromJson("[1,2,3]", out, &err));
    // A syntactically valid object missing the required fields.
    EXPECT_FALSE(fleet::caseResultFromJson("{\"seed\":5}", out,
                                           &err));

    // Well-formed records whose values do not fit their fields.
    const std::string good = fleet::caseResultJson(sampleCase(0x51));
    ASSERT_TRUE(fleet::caseResultFromJson(good, out, &err)) << err;
    auto with = [&](const std::string &from, const std::string &to) {
        std::string s = good;
        const std::size_t at = s.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return at == std::string::npos ? s : s.replace(at, from.size(), to);
    };
    for (const std::string &bad :
         {with("\"stmts\":17", "\"stmts\":-1"),
          with("\"axes\":421", "\"axes\":4294967296"),
          with("\"seqCycles\":123456789", "\"seqCycles\":1.5"),
          with("\"seqCycles\":123456789", "\"seqCycles\":1e300"),
          with("\"stmts\":17", "\"stmts\":17,\"stmts\":18"),
          with("\"seed\":\"0000000000000051\"", "\"seed\":\"51\""),
          with("\"squashCauses\":[100,", "\"squashCauses\":[-100,"),
          with("\"squashCauses\":[100,", "\"squashCauses\":["),
          with("\"loopSquashes\":[[0,7]", "\"loopSquashes\":[[0,7,1]"),
          with("\"loopSquashes\":[[0,7]", "\"loopSquashes\":[[2147483648,7]"),
          with("\"loopSquashes\":[[0,7]", "\"loopSquashes\":[7]")})
        EXPECT_FALSE(fleet::caseResultFromJson(bad, out, &err)) << bad;
}

TEST(FleetManifest, SealedRecordsDetectTearing)
{
    const std::string sealed = sealRecord("{\"case\":{\"x\":1}}");
    std::string body;
    ASSERT_TRUE(unsealRecord(sealed, body));
    EXPECT_EQ(body, "{\"case\":{\"x\":1}}");

    // Any truncation (the only tear a crashed append can produce)
    // must be detected.
    for (std::size_t n = 1; n < sealed.size(); ++n)
        EXPECT_FALSE(unsealRecord(sealed.substr(0, n), body))
            << "accepted a record torn at byte " << n;
    EXPECT_FALSE(unsealRecord("no checksum here", body));
}

TEST(FleetManifest, EveryRecordTypeRoundTripsThroughJournalAndCheckpoint)
{
    const TempDir td;
    const std::string &dir = td.path;
    const std::string path = dir + "/manifest";
    const std::string config = "seed 5eed cases 4 plan \"a b\"";
    const std::string repro = dir + "/my repros/forge-3.scenario";
    fleet::PoisonRecord poison;
    poison.seed = 3;
    poison.attempts = 2;
    poison.cause = "signal 6 — \"abort\" in \\dir\\";
    forge::WeightBank bank;
    bank.update(/*novel=*/0x13, /*appeared=*/0x1f);

    auto expectEveryRecord = [&](const fleet::CampaignManifest &m) {
        EXPECT_TRUE(m.resumed());
        EXPECT_EQ(m.tornRecords(), 0u);
        ASSERT_EQ(m.completed().size(), 2u);
        expectSameCase(m.completed().at(1), sampleCase(1));
        expectSameCase(m.completed().at(2), sampleCase(2));
        ASSERT_EQ(m.poisoned().size(), 1u);
        const fleet::PoisonRecord &p = m.poisoned().at(3);
        EXPECT_EQ(p.seed, 3u);
        EXPECT_EQ(p.attempts, 2u);
        EXPECT_EQ(p.cause, poison.cause);
        EXPECT_EQ(p.reproPath, repro);
        ASSERT_EQ(m.weights().size(), 2u);
        EXPECT_TRUE(m.weights().at(0) == forge::WeightBank());
        EXPECT_TRUE(m.weights().at(1) == bank);
    };
    {
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load(config, &err)) << err;
        EXPECT_FALSE(m.resumed());
        m.recordCase(sampleCase(1));
        m.recordCase(sampleCase(2));
        m.recordPoison(poison);
        m.recordRepro(3, repro);
        m.recordWeights(0, forge::WeightBank());
        m.recordWeights(1, bank);
        // No checkpoint(): everything must survive via the journal.
    }
    {
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load(config, &err)) << err;
        expectEveryRecord(m);
        // Checkpoint moves the state into the snapshot and empties
        // the journal.
        m.checkpoint();
    }
    const std::string journal = slurp(path + ".journal");
    EXPECT_EQ(std::count(journal.begin(), journal.end(), '\n'), 1)
        << "checkpoint() must leave only the journal's header: "
        << journal;
    {
        // Load after the checkpoint: same state, no torn records,
        // still exactly one record per seed.
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load(config, &err)) << err;
        expectEveryRecord(m);
    }
}

TEST(FleetManifest, FreshJournalHoldsOneConfigHeader)
{
    const TempDir td;
    const std::string path = td.path + "/manifest";
    {
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load("seed 3 cases 2", &err)) << err;
        m.recordCase(sampleCase(1));
    }
    // The header, then the case.
    const std::string journal = slurp(path + ".journal");
    std::istringstream lines(journal);
    std::size_t total = 0, headers = 0;
    for (std::string line; std::getline(lines, line); ++total)
        headers += line.rfind("{\"config\":", 0) == 0;
    EXPECT_EQ(headers, 1u) << journal;
    EXPECT_EQ(total, 2u) << journal;
}

TEST(FleetManifest, UnreadableJournalLinesAreSkippedAndCounted)
{
    const TempDir td;
    const std::string &dir = td.path;
    const std::string path = dir + "/manifest";
    const std::string config = "seed 1 cases 8";

    {
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load(config, &err)) << err;
        m.recordCase(sampleCase(0x10));
        m.recordCase(sampleCase(0x11));
    }
    // Simulate a crash mid-append: a record cut off before its
    // checksum, plus outright garbage.
    const std::string sealed = sealRecord(
        "{\"case\":" + fleet::caseResultJson(sampleCase(0x12)) + "}");
    append(path + ".journal", sealed.substr(0, sealed.size() / 2));
    append(path + ".journal", "\n@@#garbage line#@@\n");
    std::size_t unreadable = 2;

    // Sealed records that do not read: every record type as the
    // manifest writes it, with each member in turn missing or of
    // another kind...
    {
        fleet::CampaignManifest m(dir + "/source");
        std::string err;
        ASSERT_TRUE(m.load(config, &err)) << err;
        m.recordCase(sampleCase(0x13));
        m.recordPoison({0x14, 2, "signal 6", ""});
        m.recordRepro(0x14, dir + "/r.scenario");
        m.recordWeights(0, forge::WeightBank());
    }
    std::istringstream source(slurp(dir + "/source.journal"));
    for (std::string line; std::getline(source, line);)
        for (const auto &[what, mutant] : memberMutants(line + "\n")) {
            append(path + ".journal", mutant);
            ++unreadable;
        }
    EXPECT_GT(unreadable, 80u) << "every member of every record type";
    // ...and a campaign's records in the old positional syntax.
    for (const std::string &old :
         {"config " + config,
          "case " + fleet::caseResultJson(sampleCase(0x15)),
          std::string("poison 0000000000000016 2 signal 6"),
          std::string("repro 0000000000000016 /tmp/r.scenario"),
          std::string("weights 0 400 400 400 400 400 400 400 400 400 "
                      "400 400")}) {
        append(path + ".journal", sealRecord(old) + "\n");
        ++unreadable;
    }

    fleet::CampaignManifest m(path);
    std::string err;
    ASSERT_TRUE(m.load(config, &err)) << err;
    EXPECT_EQ(m.completed().size(), 2u)
        << "an unreadable record must not surface as a completed case";
    EXPECT_TRUE(m.poisoned().empty());
    EXPECT_TRUE(m.weights().empty());
    EXPECT_EQ(m.tornRecords(), unreadable);
}

TEST(FleetManifest, TruncatedCheckpointDegradesToJournal)
{
    const TempDir td;
    const std::string &dir = td.path;
    const std::string path = dir + "/manifest";
    const std::string config = "seed 2 cases 8";

    {
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load(config, &err)) << err;
        m.recordCase(sampleCase(0x20));
        m.checkpoint();
        m.recordCase(sampleCase(0x21)); // journal only
    }
    // Tear the checkpoint mid-file (torn snapshot lines are skipped
    // like torn journal lines; the journaled record must survive).
    const std::string snap = slurp(path);
    std::ofstream(path, std::ios::trunc)
        << snap.substr(0, snap.size() - 8);

    fleet::CampaignManifest m(path);
    std::string err;
    ASSERT_TRUE(m.load(config, &err)) << err;
    EXPECT_GE(m.tornRecords(), 1u);
    EXPECT_EQ(m.completed().count(0x21), 1u)
        << "journal must restore what the torn checkpoint lost";
}

TEST(FleetManifest, RefusesConfigConflict)
{
    const TempDir td;
    const std::string &dir = td.path;
    const std::string path = dir + "/manifest";
    {
        fleet::CampaignManifest m(path);
        std::string err;
        ASSERT_TRUE(m.load("seed aa cases 16", &err)) << err;
        m.recordCase(sampleCase(7));
    }
    fleet::CampaignManifest m(path);
    std::string err;
    EXPECT_FALSE(m.load("seed bb cases 16", &err))
        << "a different campaign must not absorb this manifest";
    EXPECT_NE(err.find("seed aa"), std::string::npos)
        << "conflict error should name the stored config: " << err;
}

TEST(FleetConfigIdentity, CoversTheCaseShapingKnobs)
{
    forge::CampaignConfig a;
    const std::string base = fleet::fleetConfigIdentity(a);

    forge::CampaignConfig b = a;
    b.seed ^= 1;
    EXPECT_NE(fleet::fleetConfigIdentity(b), base);
    b = a;
    b.cases += 1;
    EXPECT_NE(fleet::fleetConfigIdentity(b), base);
    b = a;
    b.base.faultPlan = FaultPlan::parse("corrupt@0");
    EXPECT_NE(fleet::fleetConfigIdentity(b), base);
    // Guided generation derives different scenarios from the same
    // seeds, so it shapes cases and must split the identity.
    b = a;
    b.guided = true;
    EXPECT_NE(fleet::fleetConfigIdentity(b), base);
    b.guidedBatch = 16;
    EXPECT_NE(fleet::fleetConfigIdentity(b),
              [&] {
                  forge::CampaignConfig c = a;
                  c.guided = true;
                  return fleet::fleetConfigIdentity(c);
              }());
    // Supervisor-only knobs must NOT change identity, or resuming
    // with a different worker count would refuse its own manifest.
    b = a;
    b.jobs += 3;
    EXPECT_EQ(fleet::fleetConfigIdentity(b), base);
}

TEST(ObsCrashFailsafe, WritesSignalRecordFromDyingChild)
{
    const TempDir td;
    const std::string &dir = td.path;
    const std::string crash = dir + "/child.crash";

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        obs::armCrashSignals(crash);
        std::raise(SIGSEGV);
        _exit(0); // not reached
    }
    int st = 0;
    ASSERT_EQ(waitpid(pid, &st, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(st))
        << "handler must re-raise, not swallow";
    EXPECT_EQ(WTERMSIG(st), SIGSEGV);

    const std::string rec = slurp(crash);
    EXPECT_EQ(rec.find("signal 11 pid "), 0u)
        << "crash record was: '" << rec << "'";
}

#ifdef JRPM_FLEET_EXE

int
runCmd(const std::string &cmd)
{
    const int st = std::system(cmd.c_str());
    return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

/** End to end through the real bench binary: a small fleet campaign
 *  completes cleanly and covers every seed exactly once. */
TEST(FleetEndToEnd, SmallCampaignCoversEverySeedOnce)
{
    const TempDir td;
    const std::string &dir = td.path;
    const std::string manifest = dir + "/m";
    const int rc = runCmd(std::string(JRPM_FLEET_EXE) +
                          " --fleet --manifest=" + manifest +
                          " --cases=4 --jobs=2 --seed=0x5eed"
                          " >" + dir + "/log 2>&1");
    EXPECT_EQ(rc, 0) << slurp(dir + "/log");

    fleet::CampaignManifest m(manifest);
    forge::CampaignConfig cc;
    cc.cases = 4;
    cc.seed = 0x5eed;
    cc.base.oracle.mode = OracleMode::Strict; // the bench default
    std::string err;
    ASSERT_TRUE(m.load(fleet::fleetConfigIdentity(cc), &err)) << err;
    EXPECT_EQ(m.tornRecords(), 0u);
    ASSERT_EQ(m.completed().size(), 4u);
    for (std::uint64_t s = 0x5eed; s < 0x5eed + 4; ++s)
        EXPECT_EQ(m.completed().count(s), 1u) << "seed " << s;
}

/** The host profiler is per process and fleet cases run in worker
 *  processes, so a fleet campaign refuses --hostprof instead of
 *  writing an all-zero profile. */
TEST(FleetEndToEnd, HostprofIsRefused)
{
    const TempDir td;
    const std::string &dir = td.path;
    const int rc = runCmd(std::string(JRPM_FLEET_EXE) +
                          " --fleet --hostprof --manifest=" + dir +
                          "/m --cases=2 --jobs=1 >" + dir +
                          "/log 2>&1");
    const std::string log = slurp(dir + "/log");
    EXPECT_EQ(rc, 1) << log;
    EXPECT_NE(log.find("--hostprof"), std::string::npos) << log;
}

/** The acceptance experiment: one scenario patched to abort() ends
 *  quarantined with a minimized repro while the rest of the campaign
 *  completes, and a resume reads that repro back. */
TEST(FleetEndToEnd, AbortingCaseIsQuarantinedWithShrunkRepro)
{
    const TempDir td;
    const std::string &dir = td.path;
    const std::uint64_t poison = 0x5eed + 2;
    // Run from the temporary directory with a relative repro
    // directory whose name holds a space: the manifest must record
    // the repro's absolute path, whole.
    auto campaign = [&](const std::string &log) {
        return runCmd("cd " + dir + " && JRPM_FLEET_ABORT_SEED=5eef " +
                      std::string(JRPM_FLEET_EXE) +
                      " --fleet --manifest=m --cases=4 --jobs=2"
                      " --seed=0x5eed --corpus-out='my repros' >" +
                      log + " 2>&1");
    };
    EXPECT_EQ(campaign("log"), 1)
        << "a quarantined case must fail the campaign: "
        << slurp(dir + "/log");

    fleet::PoisonRecord p;
    {
        fleet::CampaignManifest m(dir + "/m");
        forge::CampaignConfig cc;
        cc.cases = 4;
        cc.seed = 0x5eed;
        cc.base.oracle.mode = OracleMode::Strict; // the bench default
        std::string err;
        ASSERT_TRUE(m.load(fleet::fleetConfigIdentity(cc), &err)) << err;

        // Every healthy seed completed; the poison seed did not.
        EXPECT_EQ(m.completed().size(), 3u);
        EXPECT_EQ(m.completed().count(poison), 0u);
        ASSERT_EQ(m.poisoned().count(poison), 1u);
        p = m.poisoned().at(poison);
    }
    EXPECT_EQ(p.attempts, 2u) << "must retry once before poisoning";
    // The crash record names the signal; the exit status adds nothing.
    const std::size_t sig = p.cause.find("signal 6");
    ASSERT_NE(sig, std::string::npos) << p.cause;
    EXPECT_EQ(p.cause.find("signal 6", sig + 1), std::string::npos)
        << p.cause;
    ASSERT_FALSE(p.reproPath.empty()) << "no shrunk repro recorded";
    EXPECT_EQ(p.reproPath.front(), '/') << p.reproPath;
    EXPECT_NE(p.reproPath.find("/my repros/forge-"), std::string::npos)
        << p.reproPath;
    forge::CorpusEntry repro;
    std::string err;
    ASSERT_TRUE(forge::readCorpusEntry(p.reproPath, repro, &err))
        << p.reproPath << ": " << err;

    // The summary names the repro, in full, with its (shrunk) size.
    auto expectSummaryNamesRepro = [&](const std::string &log) {
        const std::string tail = "stmts): " + p.reproPath + "\n";
        const std::size_t at = log.find(tail);
        ASSERT_NE(at, std::string::npos) << log;
        const std::size_t open = log.rfind("repro (", at);
        ASSERT_NE(open, std::string::npos) << log;
        EXPECT_EQ(std::stoul(log.substr(open + 7, at - open - 7)),
                  repro.spec.body.size())
            << log;
    };
    expectSummaryNamesRepro(slurp(dir + "/log"));

    // A resume runs nothing and reads the same repro back.
    EXPECT_EQ(campaign("resume.log"), 1) << slurp(dir + "/resume.log");
    const std::string resumed = slurp(dir + "/resume.log");
    EXPECT_NE(resumed.find("resumed from manifest"), std::string::npos)
        << resumed;
    EXPECT_EQ(resumed.find("cannot read repro"), std::string::npos)
        << resumed;
    expectSummaryNamesRepro(resumed);
}

/** Guided determinism across the process boundary: a guided fleet
 *  campaign must journal the same per-case behaviour signatures as
 *  the in-process guided campaign with the same config, and the
 *  weight bank entering each batch must be byte-identical to the
 *  in-process bank at the same barrier. */
TEST(FleetEndToEnd, GuidedFleetMatchesInProcessCampaign)
{
    const TempDir td;
    const std::string &dir = td.path;
    const std::string manifest = dir + "/m";
    const int rc = runCmd(std::string(JRPM_FLEET_EXE) +
                          " --fleet --manifest=" + manifest +
                          " --guided --guided-batch=8"
                          " --cases=16 --jobs=3 --seed=0x5eed"
                          " --axes=baseline,nested,sync"
                          " --no-forced-sweep"
                          " >" + dir + "/log 2>&1");
    EXPECT_EQ(rc, 0) << slurp(dir + "/log");

    forge::CampaignConfig cc;
    cc.cases = 16;
    cc.seed = 0x5eed;
    cc.axes = forge::parseAxes("baseline,nested,sync");
    cc.guided = true;
    cc.guidedBatch = 8;
    cc.forcedSweep = false;
    cc.jobs = 2;
    // The workers' case config, so per-case telemetry (and with it
    // the signatures) matches theirs.
    cc.base = forge::caseConfig();
    const forge::CampaignResult ref = forge::runCampaign(cc);

    fleet::CampaignManifest m(manifest);
    std::string err;
    ASSERT_TRUE(m.load(fleet::fleetConfigIdentity(cc), &err)) << err;
    ASSERT_EQ(m.completed().size(), 16u);
    for (const forge::CaseResult &cr : ref.results)
        EXPECT_EQ(m.completed().at(cr.seed).sigHash, cr.sigHash)
            << "seed " << cr.seed;

    // The bank entering batch 1 is the bank after batch 0 — which is
    // exactly the final bank of an in-process campaign that stops at
    // the batch-0 barrier.
    ASSERT_EQ(m.weights().size(), 2u);
    EXPECT_TRUE(m.weights().at(0) == forge::WeightBank());
    forge::CampaignConfig first = cc;
    first.cases = 8;
    EXPECT_EQ(m.weights().at(1).json(),
              forge::runCampaign(first).weightBank);
}
#endif // JRPM_FLEET_EXE

} // namespace
} // namespace jrpm

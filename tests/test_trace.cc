/**
 * @file
 * Tests of the observability stack: flight-recorder ring mechanics,
 * span reconstruction with violated-window recoloring, Chrome JSON
 * export (re-parsed by jsonParse()), the violation ledger
 * against a hand-assembled STL that is guaranteed to squash (and
 * read by the oracle while it grows), the metrics registry, and an
 * end-to-end check that per-CPU span accounting reproduces the
 * Fig. 10 ExecStats buckets.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hostprof.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/obs.hh"
#include "common/trace.hh"
#include "core/jrpm.hh"
#include "core/oracle.hh"
#include "core/report_json.hh"
#include "cpu/stats.hh"
#include "tls/machine.hh"
#include "workloads/workloads.hh"

namespace jrpm
{
namespace
{

constexpr Addr kStackTop = 0x80000;
constexpr Addr kArrayBase = 0x1000;
constexpr std::int32_t kLoopId = 7;

SystemConfig
testConfig()
{
    SystemConfig cfg;
    cfg.memBytes = 1u << 20;
    return cfg;
}

// ---------------------------------------------------------------------
// Ring-buffer mechanics.
// ---------------------------------------------------------------------

class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Trace::global().configure(4, 64);
        Trace::global().setEnabled(true);
    }

    void
    TearDown() override
    {
        Trace::global().setEnabled(false);
        Trace::global().clear();
    }
};

TEST_F(TraceTest, RecordsAndReadsBackInOrder)
{
    Trace &tr = Trace::global();
    for (Cycle ts = 0; ts < 10; ++ts)
        tr.record(2, TraceEvt::VmTrap, ts,
                  static_cast<std::int32_t>(ts));
    const auto evs = tr.events(2);
    ASSERT_EQ(evs.size(), 10u);
    for (std::size_t k = 0; k < evs.size(); ++k) {
        EXPECT_EQ(evs[k].ts, k);
        EXPECT_EQ(evs[k].kind, TraceEvt::VmTrap);
        EXPECT_EQ(evs[k].track, 2u);
    }
    EXPECT_EQ(tr.totalRecorded(), 10u);
    EXPECT_EQ(tr.dropped(), 0u);
    EXPECT_TRUE(tr.events(0).empty());
}

TEST_F(TraceTest, WraparoundKeepsNewestEvents)
{
    Trace &tr = Trace::global();
    for (Cycle ts = 0; ts < 100; ++ts)
        tr.record(1, TraceEvt::MemStall, ts);
    const auto evs = tr.events(1);
    ASSERT_EQ(evs.size(), 64u);       // ring capacity
    EXPECT_EQ(evs.front().ts, 36u);   // oldest surviving event
    EXPECT_EQ(evs.back().ts, 99u);
    for (std::size_t k = 1; k < evs.size(); ++k)
        EXPECT_EQ(evs[k].ts, evs[k - 1].ts + 1);
    EXPECT_EQ(tr.totalRecorded(), 100u);
    EXPECT_EQ(tr.dropped(), 36u);
}

TEST_F(TraceTest, DisabledAndUnknownTracksRecordNothing)
{
    Trace &tr = Trace::global();
    tr.setEnabled(false);
    tr.record(0, TraceEvt::VmTrap, 1);
    EXPECT_EQ(tr.totalRecorded(), 0u);
    tr.setEnabled(true);
    tr.record(200, TraceEvt::VmTrap, 1); // no such cpu track
    EXPECT_EQ(tr.totalRecorded(), 0u);
    tr.record(Trace::kHostTrack, TraceEvt::VmTrap, 1);
    EXPECT_EQ(tr.events(Trace::kHostTrack).size(), 1u);
}

TEST_F(TraceTest, PhasesOffsetLaterRunsPastEarlierOnes)
{
    Trace &tr = Trace::global();
    tr.beginPhase("first");
    tr.record(0, TraceEvt::StateChange, 0,
              static_cast<std::int32_t>(TraceState::Serial));
    tr.record(0, TraceEvt::StateChange, 10,
              static_cast<std::int32_t>(TraceState::Idle));
    // A second machine run restarts its cycle counter at 0; the
    // phase offset must keep it past everything recorded so far.
    tr.beginPhase("second");
    tr.record(0, TraceEvt::StateChange, 0,
              static_cast<std::int32_t>(TraceState::Serial));
    const auto evs = tr.events(0);
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].ts, 0u);
    EXPECT_EQ(evs[1].ts, 10u);
    EXPECT_EQ(evs[2].ts, 11u);
    ASSERT_EQ(tr.phases().size(), 2u);
    EXPECT_EQ(tr.phases()[0].second, "first");
    EXPECT_EQ(tr.phases()[1].first, 11u);
}

TEST_F(TraceTest, MacroRecordsWhileEnabled)
{
    JRPM_TRACE(0, TraceEvt::VmTrap, 5, 1);
    EXPECT_TRUE(JRPM_TRACE_ON());
    EXPECT_EQ(Trace::global().totalRecorded(), 1u);
}

// ---------------------------------------------------------------------
// Span reconstruction.
// ---------------------------------------------------------------------

void
recordState(std::uint8_t track, Cycle ts, TraceState s)
{
    Trace::global().record(track, TraceEvt::StateChange, ts,
                           static_cast<std::int32_t>(s));
}

TEST_F(TraceTest, SpansFollowStateChanges)
{
    recordState(0, 0, TraceState::Serial);
    recordState(0, 40, TraceState::SpecRun);
    recordState(0, 70, TraceState::Serial);
    recordState(1, 40, TraceState::SpecWait);
    const auto spans = Trace::global().spans();
    std::vector<TraceSpan> t0, t1;
    for (const auto &s : spans)
        (s.track == 0 ? t0 : t1).push_back(s);
    ASSERT_EQ(t0.size(), 3u);
    EXPECT_EQ(t0[0].state, TraceState::Serial);
    EXPECT_EQ(t0[0].begin, 0u);
    EXPECT_EQ(t0[0].end, 40u);
    EXPECT_EQ(t0[1].state, TraceState::SpecRun);
    EXPECT_EQ(t0[1].length(), 30u);
    // Final open span closed at the last recorded timestamp + 1.
    EXPECT_EQ(t0[2].end, 71u);
    ASSERT_EQ(t1.size(), 1u);
    EXPECT_EQ(t1[0].state, TraceState::SpecWait);
    EXPECT_EQ(t1[0].begin, 40u);
}

TEST_F(TraceTest, ViolatedWindowRecolorsAndSplitsSpans)
{
    // run [0,10) wait [10,15), then the thread is squashed with a
    // window covering [5,15): the run span must split at 5.
    recordState(0, 0, TraceState::SpecRun);
    recordState(0, 10, TraceState::SpecWait);
    Trace::global().record(0, TraceEvt::ViolatedWindow, 15, 0, 10);
    recordState(0, 15, TraceState::SpecRun);
    recordState(0, 20, TraceState::Idle);
    auto spans = Trace::global().spans();
    std::vector<TraceSpan> t0;
    for (const auto &s : spans)
        if (s.track == 0)
            t0.push_back(s);
    ASSERT_EQ(t0.size(), 5u);
    EXPECT_EQ(t0[0].state, TraceState::SpecRun);
    EXPECT_EQ(t0[0].end, 5u);
    EXPECT_EQ(t0[1].state, TraceState::SpecRunViolated);
    EXPECT_EQ(t0[1].begin, 5u);
    EXPECT_EQ(t0[1].end, 10u);
    EXPECT_EQ(t0[2].state, TraceState::SpecWaitViolated);
    EXPECT_EQ(t0[2].end, 15u);
    EXPECT_EQ(t0[3].state, TraceState::SpecRun);
    EXPECT_EQ(t0[3].begin, 15u);
    EXPECT_EQ(t0[4].state, TraceState::Idle);
}

// ---------------------------------------------------------------------
// Chrome JSON export.
// ---------------------------------------------------------------------

// Pinned: the export's exact bytes (layout, escaping, key order);
// trace viewers and scripts read this file.
const char *const kPinnedChromeJson =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
    "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\"args\":{"
    "\"name\":\"cpu0\"}},\n"
    "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\"args\":{"
    "\"name\":\"cpu1\"}},\n"
    "{\"ph\":\"M\",\"pid\":0,\"tid\":2,\"name\":\"thread_name\",\"args\":{"
    "\"name\":\"cpu2\"}},\n"
    "{\"ph\":\"M\",\"pid\":0,\"tid\":3,\"name\":\"thread_name\",\"args\":{"
    "\"name\":\"cpu3\"}},\n"
    "{\"ph\":\"M\",\"pid\":0,\"tid\":4,\"name\":\"thread_name\",\"args\":{"
    "\"name\":\"host\"}},\n"
    "{\"name\":\"serial\",\"cat\":\"state\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
    "\"ts\":0,\"dur\":50},\n"
    "{\"name\":\"run\",\"cat\":\"state\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
    "\"ts\":50,\"dur\":30},\n"
    "{\"name\":\"wait\",\"cat\":\"state\",\"ph\":\"X\",\"pid\":0,\"tid\":1,"
    "\"ts\":10,\"dur\":20},\n"
    "{\"name\":\"mem_stall\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\","
    "\"pid\":0,\"tid\":1,\"ts\":12,\"args\":{\"arg0\":-3,\"arg1\":4096,"
    "\"arg2\":50}},\n"
    "{\"name\":\"phase:tls \\\"q\\\"\",\"cat\":\"event\",\"ph\":\"i\","
    "\"s\":\"t\",\"pid\":0,\"tid\":4,\"ts\":0,\"args\":{\"arg0\":0,"
    "\"arg1\":0,\"arg2\":0}},\n"
    "{\"name\":\"jit_compile\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\","
    "\"pid\":0,\"tid\":4,\"ts\":5,\"args\":{\"arg0\":0,\"arg1\":99,"
    "\"arg2\":3}}\n"
    "],\"violationLedger\":[\n"
    "{\"cycle\":33,\"addr\":\"0x2a\",\"storeSite\":7,\"loopId\":7,"
    "\"storeCpu\":2,\"victimCpu\":3,\"victimIteration\":5,"
    "\"victimProgress\":17}\n"
    "],\"droppedEvents\":0,\"droppedViolations\":0}\n";

TEST_F(TraceTest, ChromeJsonParsesBackWithLedgerAndSpans)
{
    Trace &tr = Trace::global();
    tr.beginPhase("tls \"q\"");
    recordState(0, 0, TraceState::Serial);
    recordState(0, 50, TraceState::SpecRun);
    recordState(0, 80, TraceState::Idle);
    recordState(1, 10, TraceState::SpecWait);
    recordState(1, 30, TraceState::Idle);
    tr.record(1, TraceEvt::MemStall, 12, -3, kArrayBase, 50);
    tr.record(Trace::kHostTrack, TraceEvt::JitCompile, 5, 0, 99, 3);
    ViolationRecord rec;
    rec.cycle = 33;
    rec.addr = 0x2a;
    rec.storeSite = 7;
    rec.loopId = kLoopId;
    rec.storeCpu = 2;
    rec.victimCpu = 3;
    rec.victimIteration = 5;
    rec.victimProgress = 17;
    tr.recordViolation(rec);

    // One thread_name record per track (4 cpus + host); one flat
    // lane per tid whose spans abut without overlapping (Idle spans
    // are not exported); three instants; the ledger record.
    const std::string json = tr.exportChromeJson();
    EXPECT_EQ(json, kPinnedChromeJson);
    JsonValue root;
    std::string err;
    EXPECT_TRUE(jsonParse(json, root, &err)) << err;
}

// ---------------------------------------------------------------------
// Machine integration: a hand-assembled STL whose iterations
// communicate the inductor through memory, guaranteeing RAW squashes.
// ---------------------------------------------------------------------

/**
 * `void f(int *a, int n)`: a[i]++ with i carried through the stack
 * (the pre-§4.2.2 decomposition, Fig. 4), so every speculative
 * iteration violates on the inductor store.
 */
std::uint32_t
buildCommunicatedStl(CodeSpace &cs)
{
    Asm a("stl_comm");
    const int FRAME = 64;
    auto SLAVE = a.newLabel();
    auto RESTART = a.newLabel();
    auto INIT = a.newLabel();
    auto TOP = a.newLabel();
    auto SHUTDOWN = a.newLabel();

    a.aluRI(Op::ADDIU, R_SP, R_SP, -FRAME);
    a.store(Op::SW, R_RA, R_SP, FRAME - 4);
    a.store(Op::SW, R_FP, R_SP, FRAME - 8);
    a.aluRI(Op::ADDIU, R_FP, R_SP, FRAME);
    a.store(Op::SW, R_A0, R_FP, -16);
    a.store(Op::SW, R_A1, R_FP, -20);
    a.store(Op::SW, R_ZERO, R_FP, -12);

    a.mtc2(R_FP, Cp2Reg::SavedFp);
    a.scopT(ScopCmd::EnableSpec, RESTART, kLoopId);
    a.scopT(ScopCmd::WakeSlaves, SLAVE);
    a.jump(INIT);

    a.bind(SLAVE);
    a.mfc2(R_FP, Cp2Reg::SavedFp);
    a.aluRI(Op::ADDIU, R_SP, R_FP, -FRAME);
    a.jump(INIT);

    a.bind(RESTART);
    a.scop(ScopCmd::ResetCache);
    a.smem(SmemCmd::KillBuffer);
    a.mfc2(R_FP, Cp2Reg::SavedFp);
    a.aluRI(Op::ADDIU, R_SP, R_FP, -FRAME);
    a.jump(INIT);

    a.bind(INIT);
    a.load(Op::LW, R_S0, R_FP, -16);
    a.load(Op::LW, R_S2, R_FP, -20);
    a.load(Op::LW, R_S1, R_FP, -12); // carried i: the violation source

    a.bind(TOP);
    a.branch(Op::BGE, R_S1, R_S2, SHUTDOWN);
    a.aluRI(Op::SLL, R_T0, R_S1, 2);
    a.aluRR(Op::ADDU, R_T0, R_T0, R_S0);
    a.load(Op::LW, R_T1, R_T0, 0);
    a.aluRI(Op::ADDIU, R_T1, R_T1, 1);
    a.store(Op::SW, R_T1, R_T0, 0);

    a.aluRI(Op::ADDIU, R_S1, R_S1, 1);
    a.store(Op::SW, R_S1, R_FP, -12);
    a.scop(ScopCmd::WaitHead);
    a.smem(SmemCmd::CommitBufferAndHead);
    a.scop(ScopCmd::AdvanceCache);
    a.jump(INIT);

    a.bind(SHUTDOWN);
    a.scop(ScopCmd::WaitHead);
    a.smem(SmemCmd::CommitBuffer);
    a.scop(ScopCmd::DisableSpec);
    a.scop(ScopCmd::KillSlaves);

    a.load(Op::LW, R_RA, R_FP, -4);
    a.load(Op::LW, R_T0, R_FP, -8);
    a.move(R_SP, R_FP);
    a.move(R_FP, R_T0);
    a.jr(R_RA);

    a.setFrameBytes(FRAME);
    return cs.install(a.finish());
}

TEST(TraceMachine, ViolationLedgerAttributesSquashes)
{
    Trace &tr = Trace::global();
    tr.configure(4, 1u << 16);
    tr.setEnabled(true);

    Machine m(testConfig());
    const std::uint32_t id = buildCommunicatedStl(m.codeSpace());
    const int n = 40;
    for (int i = 0; i < n; ++i)
        m.memory().writeWord(kArrayBase + 4 * i, 0);
    m.start(id, {kArrayBase, n}, kStackTop);
    ASSERT_TRUE(m.run(1'000'000));
    for (int i = 0; i < n; ++i)
        ASSERT_EQ(m.memory().readWord(kArrayBase + 4 * i), 1u);

    tr.setEnabled(false);

    EXPECT_GT(m.stats().violations, 0u);
    EXPECT_EQ(tr.dropped(), 0u);

    ASSERT_FALSE(tr.violations().empty());
    EXPECT_EQ(tr.violations().size() + tr.violationsDropped(),
              m.stats().violations);
    for (const ViolationRecord &v : tr.violations()) {
        EXPECT_EQ(v.loopId, kLoopId);
        EXPECT_LT(v.storeCpu, 4u);
        EXPECT_LT(v.victimCpu, 4u);
        EXPECT_NE(v.storeSite, 0u);
        // Squashes come from the loop's data: either the carried
        // inductor's stack slot or an a[i] element.
        const bool frameSlot = v.addr == kStackTop - 12;
        const bool arrayElem =
            v.addr >= kArrayBase && v.addr < kArrayBase + 4 * 40;
        EXPECT_TRUE(frameSlot || arrayElem)
            << "unexpected violation addr " << v.addr;
    }

    // Event streams line up with the architectural counters.
    std::uint64_t commits = 0, violatedEvts = 0, stlEntries = 0;
    for (std::uint8_t t = 0; t < 4; ++t) {
        for (const TraceEvent &e : tr.events(t)) {
            if (e.kind == TraceEvt::ThreadCommit)
                ++commits;
            else if (e.kind == TraceEvt::ThreadViolated)
                ++violatedEvts;
            else if (e.kind == TraceEvt::StlEntry)
                ++stlEntries;
        }
    }
    EXPECT_EQ(commits, m.stats().commits);
    EXPECT_EQ(violatedEvts, m.stats().violations);
    EXPECT_EQ(stlEntries, m.stats().stlEntries);
    tr.clear();
}

TEST(TraceLedger, OracleAttributesWhileAnotherPipelineRecords)
{
    // Other batch-driver pipelines append to the process-wide ledger
    // while this one's oracle compares.  The oracle blames only the
    // run under test's own ledger, so another pipeline's record never
    // becomes its suspect; and every readout of the global ledger is
    // a copy taken under the recorder's lock (ThreadSanitizer checks
    // the concurrent phases() reads below).
    Trace &tr = Trace::global();
    tr.configure(4, 64);
    tr.setEnabled(true);

    OracleConfig oc;
    oc.mode = OracleMode::Strict;
    constexpr Addr kDiff = 0x40;
    MainMemory mem(256);
    RunDigest golden;
    golden.memImage = std::make_shared<const MemImage>(mem.image());
    mem.writeByte(kDiff, 1);
    RunDigest actual;
    actual.memImage = std::make_shared<const MemImage>(mem.image());

    constexpr int kRecords = 4000; // inside the ledger bound
    std::atomic<bool> done{false};
    std::thread writer([&] {
        for (int i = 0; i < kRecords; ++i) {
            if (i % 500 == 0)
                tr.beginPhase("phase");
            ViolationRecord v;
            v.addr = 0x1000 + 32 * static_cast<Addr>(i); // not kDiff's
            v.loopId = 1;
            tr.recordViolation(v);
        }
        done = true;
    });
    do {
        const OracleReport rep =
            Oracle::compare(oc, golden, actual, {});
        EXPECT_FALSE(rep.memMatch);
        EXPECT_EQ(rep.suspectLoop, -1);
        EXPECT_LE(tr.phases().size(), kRecords / 500u);
    } while (!done);
    writer.join();

    ViolationRecord hit;
    hit.addr = kDiff;
    hit.loopId = 9;
    tr.recordViolation(hit);
    EXPECT_EQ(tr.violations().size(), kRecords + 1u);
    EXPECT_EQ(tr.violationsDropped(), 0u);
    EXPECT_EQ(Oracle::compare(oc, golden, actual, {}).suspectLoop, -1);
    actual.violations.push_back(hit);
    EXPECT_EQ(Oracle::compare(oc, golden, actual, {}).suspectLoop, 9);
    tr.setEnabled(false);
    tr.clear();
}

/** With the flight recorder off, a strict compare still blames a
 *  divergence on the TLS run's own squashes: bench_robustness's
 *  explicit fault plan on Assignment's quick input. */
TEST(TraceLedger, StrictOracleBlamesWithTheRecorderOff)
{
    ASSERT_FALSE(Trace::global().enabled());
    Workload w = wl::workloadByName("Assignment");
    w.mainArgs = w.profileArgs;
    w.profileArgs.clear();
    JrpmConfig cfg;
    cfg.oracle.mode = OracleMode::Strict;
    cfg.sys.watchdog.noProgressCycles = 500'000;
    cfg.faultPlan =
        FaultPlan::parse("suppress@1000,corrupt@0,corrupt@5000");
    const JrpmReport rep = JrpmSystem(w, cfg).run();
    ASSERT_FALSE(rep.oracle.match());
    EXPECT_EQ(rep.oracle.suspectLoop, 0);
    EXPECT_EQ(rep.oracle.suspectSite, 0xc4u);
}

// ---------------------------------------------------------------------
// End-to-end: spans must reproduce the Fig. 10 ExecStats buckets.
// ---------------------------------------------------------------------

TEST(TraceMachine, SpanAccountingMatchesExecStats)
{
    Workload w = wl::workloadByName("IDEA");
    w.mainArgs = {300};
    JrpmSystem sys(w);
    // Profile + select with the recorder off: only the TLS run below
    // must land in the trace.
    auto sels = sys.selectOnly();
    ASSERT_FALSE(sels.empty());

    Trace &tr = Trace::global();
    tr.configure(sys.config().sys.numCpus, 1u << 20);
    tr.setEnabled(true);
    RunOutcome out = sys.runTls({300}, sels);
    tr.setEnabled(false);
    ASSERT_TRUE(out.halted);
    ASSERT_EQ(tr.dropped(), 0u);

    const double share = 1.0 / sys.config().sys.numCpus;
    double serial = 0, runUsed = 0, waitUsed = 0, overhead = 0,
           runViolated = 0, waitViolated = 0;
    for (const TraceSpan &s : tr.spans()) {
        const double len = static_cast<double>(s.length());
        switch (s.state) {
          case TraceState::Idle: break;
          case TraceState::Serial: serial += len; break;
          case TraceState::SerialOverhead: overhead += len; break;
          case TraceState::SpecRun: runUsed += len * share; break;
          case TraceState::SpecWait: waitUsed += len * share; break;
          case TraceState::SpecOverhead:
            overhead += len * share;
            break;
          case TraceState::SpecRunViolated:
            runViolated += len * share;
            break;
          case TraceState::SpecWaitViolated:
            waitViolated += len * share;
            break;
        }
    }
    tr.clear();

    const ExecStats &st = out.stats;
    const double tol = 0.01 * st.total();
    EXPECT_NEAR(serial, st.serial, tol);
    EXPECT_NEAR(runUsed, st.runUsed, tol);
    EXPECT_NEAR(waitUsed, st.waitUsed, tol);
    EXPECT_NEAR(overhead, st.overhead, tol);
    EXPECT_NEAR(runViolated, st.runViolated, tol);
    EXPECT_NEAR(waitViolated, st.waitViolated, tol);
    const double sum = serial + runUsed + waitUsed + overhead +
                       runViolated + waitViolated;
    EXPECT_NEAR(sum, st.total(), tol);
}

// ---------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------

TEST(Metrics, GetOrCreateReturnsStableReferences)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.clear();
    Counter &c = reg.counter("tls.commits");
    c.inc();
    c.inc(4);
    EXPECT_EQ(reg.counter("tls.commits").value(), 5u);
    EXPECT_EQ(&reg.counter("tls.commits"), &c);

    reg.gauge("vm.live_objects").set(12.5);
    EXPECT_DOUBLE_EQ(reg.gauge("vm.live_objects").value(), 12.5);

    HistogramMetric &h = reg.histogram("tls.loop7.thread_cycles");
    h.sample(10.0);
    h.sample(30.0);
    EXPECT_EQ(h.summary().count(), 2u);
    EXPECT_DOUBLE_EQ(h.summary().mean(), 20.0);

    EXPECT_EQ(reg.size(), 3u);
    reg.reset();
    EXPECT_EQ(reg.size(), 3u); // registrations survive a reset
    EXPECT_EQ(reg.counter("tls.commits").value(), 0u);
    reg.clear();
}

// Pinned: dumpJson()'s exact bytes (the --metrics-out=*.json
// format).
const char *const kPinnedMetricsJson =
    "{\n"
    "\"a.count\":{\"kind\":\"counter\",\"value\":12345678901},\n"
    "\"b.gauge\":{\"kind\":\"gauge\",\"value\":2.5},\n"
    "\"c.hist\":{\"kind\":\"histogram\",\"count\":3,\"mean\":3.2,"
    "\"stddev\":2.27596134,\"min\":0.1,\"max\":5.5}\n"
    "}\n";

TEST(Metrics, DumpJsonParsesBack)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.clear();
    EXPECT_EQ(reg.dumpJson(), "{\n}\n");
    reg.counter("a.count").inc(12345678901ull);
    reg.gauge("b.gauge").set(2.5);
    for (double v : {4.0, 5.5, 0.1})
        reg.histogram("c.hist").sample(v);

    const std::string json = reg.dumpJson();
    EXPECT_EQ(json, kPinnedMetricsJson);
    JsonValue root;
    std::string err;
    EXPECT_TRUE(jsonParse(json, root, &err)) << err;

    const std::string text = reg.dumpText();
    EXPECT_NE(text.find("a.count"), std::string::npos);
    EXPECT_NE(text.find("12345678901"), std::string::npos);
    reg.clear();
}

// Pinned: every tls.* / cache.* metric one small TLS run publishes,
// name and value, as a --metrics-out dump lists them.
const char *const kPinnedTlsMetrics =
    "cache.l1.cpu0.hits 18531\ncache.l1.cpu0.misses 987\n"
    "cache.l1.cpu1.hits 8636\ncache.l1.cpu1.misses 584\n"
    "cache.l1.cpu2.hits 8638\ncache.l1.cpu2.misses 584\n"
    "cache.l1.cpu3.hits 8640\ncache.l1.cpu3.misses 584\ncache.l2.hits 13245\n"
    "cache.l2.misses 133\ntls.commits 1032\ntls.cycles 164772\n"
    "tls.forwarded_loads 5524\ntls.governor_aborts 1\ntls.insts 401785\n"
    "tls.loop0.burst_insts 137345\ntls.loop0.burst_windows 22534\n"
    "tls.loop0.commits 8\ntls.loop0.cycles_inside 153941\n"
    "tls.loop0.entries 1\ntls.loop0.forwarded_loads 5524\n"
    "tls.loop0.governor_aborts 1\ntls.loop0.overflow_stalls 0\n"
    "tls.loop0.sig_false_positives 11080\ntls.loop0.sig_hits 16652\n"
    "tls.loop0.slow_steps 16596\ntls.loop0.solo_entries 1\n"
    "tls.loop0.spec_fast_mem 31146\n"
    "tls.loop0.thread_cycles count=8 mean=21797 stddev=1317.49 min=20021 max="
    "22875\ntls.loop0.violations 48\ntls.loop2.burst_insts 4426\n"
    "tls.loop2.burst_windows 433\ntls.loop2.commits 512\n"
    "tls.loop2.cycles_inside 5711\ntls.loop2.entries 1\n"
    "tls.loop2.forwarded_loads 0\ntls.loop2.governor_aborts 0\n"
    "tls.loop2.overflow_stalls 0\ntls.loop2.sig_false_positives 1\n"
    "tls.loop2.sig_hits 1\ntls.loop2.slow_steps 1285\n"
    "tls.loop2.solo_entries 0\ntls.loop2.spec_fast_mem 2063\n"
    "tls.loop2.thread_cycles count=512 mean=38.4004 stddev=3.04809 min=38 max"
    "=85\ntls.loop2.violations 0\ntls.loop3.burst_insts 3515\n"
    "tls.loop3.burst_windows 781\ntls.loop3.commits 512\n"
    "tls.loop3.cycles_inside 4852\ntls.loop3.entries 1\n"
    "tls.loop3.forwarded_loads 0\ntls.loop3.governor_aborts 0\n"
    "tls.loop3.overflow_stalls 0\ntls.loop3.sig_false_positives 0\n"
    "tls.loop3.sig_hits 0\ntls.loop3.slow_steps 1337\n"
    "tls.loop3.solo_entries 0\ntls.loop3.spec_fast_mem 1549\n"
    "tls.loop3.thread_cycles count=512 mean=31.7187 stddev=3.57386 min=29 max"
    "=65\ntls.loop3.violations 0\ntls.mem_ops 59625\ntls.overflow_stalls 0\n"
    "tls.sig_false_positives 11081\ntls.sig_hits 16653\n"
    "tls.spec_fast_mem 34758\ntls.spec_slow_steps 19218\n"
    "tls.spec_window_insts 145286\ntls.spec_windows 23748\n"
    "tls.squash.governor 1\ntls.squash.raw_violation 48\n"
    "tls.squash.spurious_fault 0\ntls.squash.stl_switch 0\n"
    "tls.squash.watchdog 0\ntls.stl_entries 3\ntls.violations 48\n"
    "tls.violations_by_class.heap 48\ntls.violations_by_class.scratch 0\n"
    "tls.violations_by_class.stack 0\ntls.violations_by_class.static 0\n"
    "tls.violations_by_class.unknown 0\ntls.violations_suppressed 0\n"
    "tls.watchdog_fires 0\n";

TEST(Metrics, TlsRunPublishesPinnedCounters)
{
    // deltaBlue's quick input squashes and trips the governor, so
    // the squash and violation counters are non-zero too.
    Workload w = wl::workloadByName("deltaBlue");
    w.mainArgs = w.profileArgs;
    JrpmSystem sys(w);
    const std::vector<SelectedStl> sels = sys.selectOnly();
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.clear();
    sys.runTls(w.mainArgs, sels);
    std::string got;
    std::istringstream dump(reg.dumpText());
    for (std::string line; std::getline(dump, line);) {
        if (line.rfind("tls.", 0) != 0 && line.rfind("cache.", 0) != 0)
            continue;
        std::istringstream words(line);
        for (std::string word; words >> word;)
            got += word + ' ';
        got.back() = '\n';
    }
    reg.clear();
    EXPECT_EQ(got, kPinnedTlsMetrics);
}

TEST(Metrics, PipelineNamesAreBoundedAcrossWorkloadNames)
{
    // A long-running server runs one pipeline per request (forge
    // scenarios are named after their seeds): the set of published
    // names must not grow with the workload name.
    Workload w = wl::workloadByName("IDEA");
    w.mainArgs = w.profileArgs;
    MetricsRegistry &reg = MetricsRegistry::global();
    w.name = "first";
    JrpmSystem(w).run();
    const std::size_t names = reg.size();
    w.name = "second";
    JrpmSystem(w).run();
    EXPECT_EQ(reg.size(), names);
}

// ---------------------------------------------------------------------
// ExecStats violation-address diagnostics.
// ---------------------------------------------------------------------

TEST(ExecStatsViolations, AddressTableIsBounded)
{
    ExecStats st;
    for (std::uint64_t a = 0; a < 200; ++a)
        st.noteViolation(a);
    EXPECT_EQ(st.violations, 200u);
    EXPECT_EQ(st.violationAddrs.size(), ExecStats::kMaxViolationAddrs);
    EXPECT_EQ(st.violationAddrsDropped,
              200 - ExecStats::kMaxViolationAddrs);

    // Re-hitting a tracked address still counts after the cap.
    st.noteViolation(5);
    st.noteViolation(5);
    st.noteViolation(9);
    EXPECT_EQ(st.violationAddrs.at(5), 3u);
    EXPECT_EQ(st.violationAddrs.at(9), 2u);
    EXPECT_EQ(st.violationAddrs.count(200), 0u);
    EXPECT_EQ(st.violationAddrsDropped,
              200 - ExecStats::kMaxViolationAddrs);
}

// ---------------------------------------------------------------------
// Host-side self-profiler.
// ---------------------------------------------------------------------

/** Burn host time until the TSC has advanced by `ticks`. */
void
spinTicks(std::uint64_t ticks)
{
    const std::uint64_t t0 = hostprof::now();
    while (hostprof::now() - t0 < ticks) {
    }
}

const hostprof::SlotSnapshot &
slotByName(const std::vector<hostprof::SlotSnapshot> &snap,
           const std::string &name)
{
    for (const auto &s : snap)
        if (s.name == name)
            return s;
    static const hostprof::SlotSnapshot missing;
    ADD_FAILURE() << "no slot named " << name;
    return missing;
}

TEST(HostProf, NestedScopesSplitSelfAndChildTime)
{
    constexpr std::uint64_t kSpin = 200'000;
    hostprof::reset();
    hostprof::setEnabled(true);
    {
        hostprof::ScopedHostTimer outer(hostprof::HostSlot::MachineRun);
        spinTicks(kSpin);
        {
            hostprof::ScopedHostTimer inner(hostprof::HostSlot::Commit);
            spinTicks(kSpin);
        }
    }
    hostprof::setEnabled(false);
    hostprof::flushThread();

    const auto snap = hostprof::snapshot();
    const auto &run = slotByName(snap, "machine_run");
    const auto &commit = slotByName(snap, "commit");
    EXPECT_EQ(run.count, 1u);
    EXPECT_EQ(commit.count, 1u);
    EXPECT_GE(commit.tsc, kSpin);
    EXPECT_GE(run.tsc, commit.tsc + kSpin);
    // The inner scope's whole time is the outer's child time, so the
    // split is exact, not approximate.
    EXPECT_EQ(run.self, run.tsc - commit.tsc);
    EXPECT_EQ(commit.self, commit.tsc);
    hostprof::reset();
}

TEST(HostProf, DisabledTimersRecordNothing)
{
    hostprof::reset();
    hostprof::setEnabled(false);
    {
        JRPM_HPROF(MachineRun);
        JRPM_HPROF(Commit);
        spinTicks(10'000);
    }
    hostprof::flushThread();
    for (const auto &s : hostprof::snapshot()) {
        EXPECT_EQ(s.count, 0u) << s.name;
        EXPECT_EQ(s.tsc, 0u) << s.name;
    }
}

TEST(HostProf, PipelineAttributionCoversRunWallTime)
{
    hostprof::tscHz(); // calibrate outside the measured window
    hostprof::reset();

    Workload w = wl::workloadByName("IDEA");
    w.mainArgs = {300};
    JrpmSystem sys(w);
    hostprof::setEnabled(true);
    const auto t0 = std::chrono::steady_clock::now();
    const JrpmReport rep = sys.run();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    hostprof::setEnabled(false);
    EXPECT_TRUE(rep.tls.halted);

    double pipeline = 0.0, sumSelf = 0.0;
    for (const auto &s : hostprof::snapshot()) {
        if (s.name == "pipeline")
            pipeline = s.totalSec;
        sumSelf += s.selfSec;
    }
    // The observatory's acceptance bar: attributed host time covers
    // at least 95% of the measured wall time of run().
    EXPECT_GE(pipeline, 0.95 * wall)
        << "pipeline " << pipeline << "s of wall " << wall << "s";
    EXPECT_LE(pipeline, 1.10 * wall); // gross TSC miscalibration
    // Exclusive times partition the single root exactly; allow 1%
    // for tick-to-seconds rounding per slot.
    EXPECT_NEAR(sumSelf, pipeline, 0.01 * pipeline + 1e-9);
    hostprof::reset();
}

TEST(HostProf, RunLeavesTheProcessSwitchAlone)
{
    // The profiler switch belongs to the process: a pipeline run
    // neither turns it on nor off.
    Workload w = wl::workloadByName("IDEA");
    w.mainArgs = {300};
    hostprof::setEnabled(true);
    JrpmSystem(w).run();
    EXPECT_TRUE(hostprof::enabled());
    hostprof::setEnabled(false);
    JrpmSystem(w).run();
    EXPECT_FALSE(hostprof::enabled());
    hostprof::reset();
}

// ---------------------------------------------------------------------
// Throttled-warning suppression counts through the metrics registry.
// ---------------------------------------------------------------------

TEST(LogMetrics, ThrottledWarningsExportSuppressionCounts)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.clear();
    setQuiet(true); // metrics must count even when silenced
    for (int i = 0; i < 25; ++i)
        warnThrottled("unit.noisy", "synthetic warning %d", i);
    warnThrottled("unit.rare", "one-off warning");
    EXPECT_EQ(reg.counter("log.throttled.unit.noisy").value(), 25u);
    EXPECT_EQ(reg.counter("log.throttled.unit.rare").value(), 1u);

    logReportSuppressed();
    // 5 printed verbatim, 20 suppressed; a key under the verbatim
    // budget publishes no suppression count.
    EXPECT_EQ(reg.counter("log.suppressed.unit.noisy").value(), 20u);
    EXPECT_EQ(reg.counter("log.suppressed.unit.rare").value(), 0u);

    // Reporting drains the throttle table: a fresh burst is verbatim
    // again and adds nothing to the suppression count.
    warnThrottled("unit.noisy", "after drain");
    EXPECT_EQ(reg.counter("log.throttled.unit.noisy").value(), 26u);
    logReportSuppressed();
    EXPECT_EQ(reg.counter("log.suppressed.unit.noisy").value(), 20u);

    setQuiet(false);
    reg.clear();
}

// ---------------------------------------------------------------------
// The process's one trace/metrics export (obs::flush).
// ---------------------------------------------------------------------

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(ObsFailsafe, FlushWritesPartialOutputsOnceThenDisarms)
{
    Trace &tr = Trace::global();
    tr.configure(2, 64);
    tr.setEnabled(true);
    tr.record(0, TraceEvt::VmTrap, 3, 1);
    tr.setEnabled(false);
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.clear();
    reg.counter("obs.partial").inc(9);

    const std::string tpath = "obs_failsafe_trace.json";
    const std::string mpath = "obs_failsafe_metrics.json";
    std::remove(tpath.c_str());
    std::remove(mpath.c_str());

    obs::setOutputs(tpath, mpath);
    obs::flush();

    JsonValue troot, mroot;
    std::string err;
    ASSERT_TRUE(jsonParse(slurp(tpath), troot, &err)) << err;
    EXPECT_EQ(troot["traceEvents"].kind, JsonValue::Kind::Array);
    ASSERT_TRUE(jsonParse(slurp(mpath), mroot, &err)) << err;
    EXPECT_EQ(mroot["obs.partial"]["value"].number(), 9.0);

    // A second flush is a no-op: the first one disarmed.
    std::remove(tpath.c_str());
    std::remove(mpath.c_str());
    obs::flush();
    EXPECT_TRUE(slurp(tpath).empty());
    EXPECT_TRUE(slurp(mpath).empty());

    tr.clear();
    reg.clear();
}

} // namespace
} // namespace jrpm

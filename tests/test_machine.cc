/**
 * @file
 * Integration tests of the Hydra machine: sequential execution, calls,
 * exceptions, and hand-assembled speculative thread loops exercising
 * the full TLS protocol (forwarding, violations, ordered commit,
 * buffer overflow, synchronizing locks).
 */

#include <gtest/gtest.h>

#include "tls/machine.hh"

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

/** Kinds of STL loop bodies the builder below can produce. */
enum class StlKind
{
    IncrementCommunicated, ///< a[i]++ with i communicated via stack
    IncrementLocalInductor, ///< a[i]++ with the §4.2.2 inductor opt
    PrefixChain,           ///< a[i] = a[i-1] + 1 (true carried dep)
    LockedSum,             ///< sum += a[i] under a Fig. 6 sync lock
    WideStores,            ///< touches many lines to overflow buffers
};

/**
 * Build a method `void f(int *a, int n)` whose loop is compiled as a
 * speculative thread loop of the requested kind.  The code mirrors
 * what the Jrpm JIT emits (Figs. 4-6 of the paper).
 *
 * Frame (64 bytes): fp-4 ra, fp-8 old fp, fp-12 i (carried),
 * fp-16 base, fp-20 n, fp-24 lock, fp-28 sum.
 */
std::uint32_t
buildStl(CodeSpace &cs, StlKind kind, int body_padding = 0)
{
    Asm a("stl_test");
    const int FRAME = 64;
    auto SLAVE = a.newLabel();
    auto RESTART = a.newLabel();
    auto INIT = a.newLabel();
    auto TOP = a.newLabel();
    auto SHUTDOWN = a.newLabel();

    // Sequential prologue.
    a.aluRI(Op::ADDIU, R_SP, R_SP, -FRAME);
    a.store(Op::SW, R_RA, R_SP, FRAME - 4);
    a.store(Op::SW, R_FP, R_SP, FRAME - 8);
    a.aluRI(Op::ADDIU, R_FP, R_SP, FRAME);
    a.store(Op::SW, R_A0, R_FP, -16);
    a.store(Op::SW, R_A1, R_FP, -20);
    a.store(Op::SW, R_ZERO, R_FP, -12);
    a.store(Op::SW, R_ZERO, R_FP, -24);
    a.store(Op::SW, R_ZERO, R_FP, -28);

    // STL_STARTUP (master).
    a.mtc2(R_FP, Cp2Reg::SavedFp);
    a.scopT(ScopCmd::EnableSpec, RESTART, kLoopId);
    a.scopT(ScopCmd::WakeSlaves, SLAVE);
    a.jump(INIT);

    // Slave entry.
    a.bind(SLAVE);
    a.mfc2(R_FP, Cp2Reg::SavedFp);
    a.aluRI(Op::ADDIU, R_SP, R_FP, -FRAME);
    a.jump(INIT);

    // STL_RESTART.
    a.bind(RESTART);
    a.scop(ScopCmd::ResetCache);
    a.smem(SmemCmd::KillBuffer);
    a.mfc2(R_FP, Cp2Reg::SavedFp);
    a.aluRI(Op::ADDIU, R_SP, R_FP, -FRAME);
    a.jump(INIT);

    // STL_INIT: reload invariants (and carried locals).
    a.bind(INIT);
    a.load(Op::LW, R_S0, R_FP, -16);  // base
    a.load(Op::LW, R_S2, R_FP, -20);  // n
    const bool localInductor = kind != StlKind::IncrementCommunicated;
    if (localInductor) {
        a.mfc2(R_S1, Cp2Reg::Iteration);
    } else {
        a.load(Op::LW, R_S1, R_FP, -12); // carried i
    }

    // STL_TOP.
    a.bind(TOP);
    a.branch(Op::BGE, R_S1, R_S2, SHUTDOWN);
    for (int p = 0; p < body_padding; ++p)
        a.aluRI(Op::ADDIU, R_T7, R_T7, 1); // stand-in for real work
    switch (kind) {
      case StlKind::IncrementCommunicated:
      case StlKind::IncrementLocalInductor:
        a.aluRI(Op::SLL, R_T0, R_S1, 2);
        a.aluRR(Op::ADDU, R_T0, R_T0, R_S0);
        a.load(Op::LW, R_T1, R_T0, 0);
        a.aluRI(Op::ADDIU, R_T1, R_T1, 1);
        a.store(Op::SW, R_T1, R_T0, 0);
        break;
      case StlKind::PrefixChain: {
        // a[i] = a[i-1] + 1 for i >= 1 (iterations start at 1 via n
        // offset handled by caller: we simply skip i == 0).
        auto skip = a.newLabel();
        a.branch(Op::BEQ, R_S1, R_ZERO, skip);
        a.aluRI(Op::SLL, R_T0, R_S1, 2);
        a.aluRR(Op::ADDU, R_T0, R_T0, R_S0);
        a.load(Op::LW, R_T1, R_T0, -4);
        a.aluRI(Op::ADDIU, R_T1, R_T1, 1);
        a.store(Op::SW, R_T1, R_T0, 0);
        a.bind(skip);
        break;
      }
      case StlKind::LockedSum: {
        // Fig. 6: spin on the lock with lwnv until it equals our
        // iteration number, update sum, release.
        auto spin = a.newLabel();
        a.mfc2(R_T2, Cp2Reg::Iteration);
        a.bind(spin);
        a.emit({Op::LWNV, R_T3, R_FP, 0, -24, 0});
        a.branch(Op::BNE, R_T2, R_T3, spin);
        a.aluRI(Op::SLL, R_T0, R_S1, 2);
        a.aluRR(Op::ADDU, R_T0, R_T0, R_S0);
        a.load(Op::LW, R_T1, R_T0, 0);
        a.load(Op::LW, R_T4, R_FP, -28);
        a.aluRR(Op::ADDU, R_T4, R_T4, R_T1);
        a.store(Op::SW, R_T4, R_FP, -28);
        a.aluRI(Op::ADDIU, R_T2, R_T2, 1);
        a.store(Op::SW, R_T2, R_FP, -24);
        break;
      }
      case StlKind::WideStores: {
        // Touch 72 distinct lines: overflows the 64-line store
        // buffer and forces the overflow-stall/write-through path.
        // a[i*72*8 + k*8] = i for k in 0..71 (word stride 8 = one
        // line apart).
        a.li(R_T2, 72 * 32);
        a.aluRR(Op::MUL, R_T0, R_S1, R_T2);
        a.aluRR(Op::ADDU, R_T0, R_T0, R_S0);
        a.aluRI(Op::ADDIU, R_T3, R_ZERO, 72);
        auto wloop = a.newLabel();
        a.bind(wloop);
        a.store(Op::SW, R_S1, R_T0, 0);
        a.aluRI(Op::ADDIU, R_T0, R_T0, 32);
        a.aluRI(Op::ADDIU, R_T3, R_T3, -1);
        a.branch(Op::BGTZ, R_T3, R_ZERO, wloop);
        break;
      }
    }

    // STL_EOI.
    if (localInductor) {
        a.aluRI(Op::ADDIU, R_S1, R_S1, 4); // + numCpus
    } else {
        a.aluRI(Op::ADDIU, R_S1, R_S1, 1);
        a.store(Op::SW, R_S1, R_FP, -12);
    }
    a.scop(ScopCmd::WaitHead);
    a.smem(SmemCmd::CommitBufferAndHead);
    a.scop(ScopCmd::AdvanceCache);
    if (localInductor)
        a.jump(TOP);
    else
        a.jump(INIT); // reload carried i

    // STL_SHUTDOWN.
    a.bind(SHUTDOWN);
    a.scop(ScopCmd::WaitHead);
    a.smem(SmemCmd::CommitBuffer);
    a.scop(ScopCmd::DisableSpec);
    a.scop(ScopCmd::KillSlaves);

    // Sequential epilogue: return sum in $v0.
    a.load(Op::LW, R_V0, R_FP, -28);
    a.load(Op::LW, R_RA, R_FP, -4);
    a.load(Op::LW, R_T0, R_FP, -8);
    a.move(R_SP, R_FP);
    a.move(R_FP, R_T0);
    a.jr(R_RA);

    a.setFrameBytes(FRAME);
    return cs.install(a.finish());
}

/** Build the plain sequential version of the increment loop. */
std::uint32_t
buildSeqIncrement(CodeSpace &cs, int body_padding = 0)
{
    Asm a("seq_inc");
    auto TOP = a.newLabel();
    auto EXIT = a.newLabel();
    a.move(R_T0, R_ZERO);
    a.bind(TOP);
    a.branch(Op::BGE, R_T0, R_A1, EXIT);
    for (int p = 0; p < body_padding; ++p)
        a.aluRI(Op::ADDIU, R_T7, R_T7, 1); // stand-in for real work
    a.aluRI(Op::SLL, R_T1, R_T0, 2);
    a.aluRR(Op::ADDU, R_T1, R_T1, R_A0);
    a.load(Op::LW, R_T2, R_T1, 0);
    a.aluRI(Op::ADDIU, R_T2, R_T2, 1);
    a.store(Op::SW, R_T2, R_T1, 0);
    a.aluRI(Op::ADDIU, R_T0, R_T0, 1);
    a.jump(TOP);
    a.bind(EXIT);
    a.jr(R_RA);
    return cs.install(a.finish());
}

TEST(MachineSequential, ArithmeticAndReturn)
{
    Machine m(testConfig());
    Asm a("arith");
    a.li(R_T0, 10);
    a.li(R_T1, 32);
    a.aluRR(Op::MUL, R_T2, R_T0, R_T1);   // 320
    a.aluRI(Op::ADDIU, R_T2, R_T2, -20);  // 300
    a.aluRI(Op::SRA, R_T2, R_T2, 2);      // 75
    a.move(R_V0, R_T2);
    a.jr(R_RA);
    std::uint32_t id = m.codeSpace().install(a.finish());
    m.start(id, {}, kStackTop);
    ASSERT_TRUE(m.run(10000));
    EXPECT_EQ(m.exitValue(), 75u);
    EXPECT_FALSE(m.uncaughtException());
}

// Overflowing products wrap to their low 32 bits; the host multiply
// must not overflow a signed type (undefined behaviour).
TEST(MachineSequential, MulWrapsOnOverflow)
{
    auto mul = [](Word x, Word y) {
        Machine m(testConfig());
        Asm a("mul");
        a.li(R_T0, x);
        a.li(R_T1, y);
        a.aluRR(Op::MUL, R_V0, R_T0, R_T1);
        a.jr(R_RA);
        m.start(m.codeSpace().install(a.finish()), {}, kStackTop);
        EXPECT_TRUE(m.run(10000));
        return m.exitValue();
    };
    EXPECT_EQ(mul(0x40000000u, 4u), 0u);
    EXPECT_EQ(mul(0x80000000u, 0xffffffffu), 0x80000000u);
    EXPECT_EQ(mul(0xfffffffeu, 3u), 0xfffffffau); // -2 * 3
    EXPECT_EQ(mul(0x10001u, 0x10001u), 0x20001u);
}

TEST(MachineSequential, FloatingPointOps)
{
    Machine m(testConfig());
    Asm a("fp");
    a.li(R_T0, 3);
    a.aluRR(Op::CVTSW, R_T0, R_T0, 0);    // 3.0f
    a.li(R_T1, floatToWord(2.5f));
    a.aluRR(Op::FMUL, R_T2, R_T0, R_T1);  // 7.5f
    a.aluRR(Op::FADD, R_T2, R_T2, R_T1);  // 10.0f
    a.aluRR(Op::CVTWS, R_V0, R_T2, 0);    // 10
    a.jr(R_RA);
    std::uint32_t id = m.codeSpace().install(a.finish());
    m.start(id, {}, kStackTop);
    ASSERT_TRUE(m.run(10000));
    EXPECT_EQ(m.exitValue(), 10u);
}

TEST(MachineSequential, CallAndReturnThroughFrames)
{
    Machine m(testConfig());
    // callee: v0 = a0 * 2
    Asm callee("dbl");
    callee.aluRR(Op::ADDU, R_V0, R_A0, R_A0);
    callee.jr(R_RA);
    std::uint32_t dbl = m.codeSpace().install(callee.finish());

    Asm a("caller");
    a.aluRI(Op::ADDIU, R_SP, R_SP, -16);
    a.store(Op::SW, R_RA, R_SP, 12);
    a.li(R_A0, 21);
    a.jal(dbl);
    a.move(R_A0, R_V0);
    a.jal(dbl);               // 84
    a.load(Op::LW, R_RA, R_SP, 12);
    a.aluRI(Op::ADDIU, R_SP, R_SP, 16);
    a.jr(R_RA);
    std::uint32_t caller = m.codeSpace().install(a.finish());
    m.start(caller, {}, kStackTop);
    ASSERT_TRUE(m.run(10000));
    EXPECT_EQ(m.exitValue(), 84u);
}

TEST(MachineSequential, MemoryLatencyCharged)
{
    SystemConfig cfg = testConfig();
    Machine timed(cfg);
    cfg.cacheTiming = false;
    Machine untimed(cfg);

    // Sum a large array (forces cold misses in the timed machine).
    auto build = [](Machine &m) {
        Asm a("sum");
        auto TOP = a.newLabel();
        auto EXIT = a.newLabel();
        a.move(R_T0, R_ZERO);
        a.move(R_V0, R_ZERO);
        a.bind(TOP);
        a.branch(Op::BGE, R_T0, R_A1, EXIT);
        a.aluRI(Op::SLL, R_T1, R_T0, 2);
        a.aluRR(Op::ADDU, R_T1, R_T1, R_A0);
        a.load(Op::LW, R_T2, R_T1, 0);
        a.aluRR(Op::ADDU, R_V0, R_V0, R_T2);
        a.aluRI(Op::ADDIU, R_T0, R_T0, 1);
        a.jump(TOP);
        a.bind(EXIT);
        a.jr(R_RA);
        return m.codeSpace().install(a.finish());
    };
    const int n = 1024;
    std::uint32_t i1 = build(timed), i2 = build(untimed);
    for (int i = 0; i < n; ++i) {
        timed.memory().writeWord(kArrayBase + 4 * i, 1);
        untimed.memory().writeWord(kArrayBase + 4 * i, 1);
    }
    timed.start(i1, {kArrayBase, n}, kStackTop);
    untimed.start(i2, {kArrayBase, n}, kStackTop);
    ASSERT_TRUE(timed.run(10'000'000));
    ASSERT_TRUE(untimed.run(10'000'000));
    EXPECT_EQ(timed.exitValue(), static_cast<Word>(n));
    EXPECT_EQ(untimed.exitValue(), static_cast<Word>(n));
    // 1024 words = 128 cold lines, each costing the 50-cycle memory
    // latency in the timed machine.
    EXPECT_GT(timed.now(), untimed.now() + 128 * 45);
}

TEST(MachineExceptions, UncaughtDivideByZeroHalts)
{
    Machine m(testConfig());
    Asm a("div0");
    a.li(R_T0, 5);
    a.move(R_T1, R_ZERO);
    a.aluRR(Op::DIV, R_V0, R_T0, R_T1);
    a.jr(R_RA);
    std::uint32_t id = m.codeSpace().install(a.finish());
    m.start(id, {}, kStackTop);
    ASSERT_TRUE(m.run(10000));
    EXPECT_TRUE(m.uncaughtException());
}

TEST(MachineExceptions, CatchHandlerReceivesControl)
{
    Machine m(testConfig());
    Asm a("catch");
    auto tryBegin = a.newLabel();
    auto tryEnd = a.newLabel();
    auto handler = a.newLabel();
    a.bind(tryBegin);
    a.li(R_T0, 5);
    a.move(R_T1, R_ZERO);
    a.aluRR(Op::DIV, R_T2, R_T0, R_T1); // traps
    a.bind(tryEnd);
    a.li(R_V0, 111); // skipped
    a.jr(R_RA);
    a.bind(handler);
    a.li(R_V0, 222);
    a.jr(R_RA);
    a.addCatch(tryBegin, tryEnd, handler,
               static_cast<std::int32_t>(ExcKind::Arithmetic));
    std::uint32_t id = m.codeSpace().install(a.finish());
    m.start(id, {}, kStackTop);
    ASSERT_TRUE(m.run(10000));
    EXPECT_FALSE(m.uncaughtException());
    EXPECT_EQ(m.exitValue(), 222u);
}

TEST(MachineExceptions, UnwindsThroughCallerFrames)
{
    Machine m(testConfig());
    // Leaf: divides by zero.
    Asm leaf("leaf");
    leaf.move(R_T1, R_ZERO);
    leaf.aluRR(Op::DIV, R_V0, R_A0, R_T1);
    leaf.jr(R_RA);
    std::uint32_t leafId = m.codeSpace().install(leaf.finish());

    // Caller with a handler around the call.
    Asm a("outer");
    auto tryBegin = a.newLabel();
    auto tryEnd = a.newLabel();
    auto handler = a.newLabel();
    auto out = a.newLabel();
    a.aluRI(Op::ADDIU, R_SP, R_SP, -16);
    a.store(Op::SW, R_RA, R_SP, 12);
    a.store(Op::SW, R_FP, R_SP, 8);
    a.aluRI(Op::ADDIU, R_FP, R_SP, 16);
    a.bind(tryBegin);
    a.li(R_A0, 9);
    a.jal(leafId);
    a.bind(tryEnd);
    a.li(R_V0, 111); // not reached: the call always throws
    a.jump(out);
    a.bind(handler);
    a.li(R_V0, 333);
    a.bind(out);
    a.load(Op::LW, R_RA, R_FP, -4);
    a.load(Op::LW, R_FP, R_FP, -8);
    a.aluRI(Op::ADDIU, R_SP, R_SP, 16);
    a.jr(R_RA);
    a.addCatch(tryBegin, tryEnd, handler, -1);
    std::uint32_t id = m.codeSpace().install(a.finish());
    m.start(id, {}, kStackTop);
    ASSERT_TRUE(m.run(10000));
    EXPECT_FALSE(m.uncaughtException());
    EXPECT_EQ(m.exitValue(), 333u);
}

// ---------------------------------------------------------------------
// TLS tests
// ---------------------------------------------------------------------

class MachineTls : public ::testing::Test
{
  protected:
    void
    runStl(Machine &m, StlKind kind, int n)
    {
        std::uint32_t id = buildStl(m.codeSpace(), kind);
        m.start(id, {kArrayBase, static_cast<Word>(n)}, kStackTop);
        ASSERT_TRUE(m.run(50'000'000));
        ASSERT_FALSE(m.uncaughtException());
    }
};

TEST_F(MachineTls, CommunicatedInductorCorrectWithViolations)
{
    Machine m(testConfig());
    const int n = 64;
    for (int i = 0; i < n; ++i)
        m.memory().writeWord(kArrayBase + 4 * i, 100 + i);
    runStl(m, StlKind::IncrementCommunicated, n);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(m.memory().readWord(kArrayBase + 4 * i),
                  static_cast<Word>(101 + i)) << "i=" << i;
    // The carried induction variable serializes and forces restarts.
    EXPECT_GT(m.stats().violations, 0u);
    EXPECT_GE(m.stats().commits, static_cast<std::uint64_t>(n) - 4);
}

TEST_F(MachineTls, LocalInductorCorrectAndViolationFree)
{
    Machine m(testConfig());
    const int n = 64;
    for (int i = 0; i < n; ++i)
        m.memory().writeWord(kArrayBase + 4 * i, 100 + i);
    runStl(m, StlKind::IncrementLocalInductor, n);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(m.memory().readWord(kArrayBase + 4 * i),
                  static_cast<Word>(101 + i)) << "i=" << i;
    EXPECT_EQ(m.stats().violations, 0u);
}

TEST_F(MachineTls, LocalInductorFasterThanSequential)
{
    // Pad the loop body so each thread is ~50 cycles: the paper's
    // benchmark threads are hundreds of cycles; tiny bodies drown in
    // the fixed per-iteration overheads (§3, Table 1).
    const int n = 256;
    const int pad = 40;
    Machine seq(testConfig());
    std::uint32_t seqId = buildSeqIncrement(seq.codeSpace(), pad);
    for (int i = 0; i < n; ++i)
        seq.memory().writeWord(kArrayBase + 4 * i, 0);
    seq.start(seqId, {kArrayBase, n}, kStackTop);
    ASSERT_TRUE(seq.run(50'000'000));

    Machine tls(testConfig());
    for (int i = 0; i < n; ++i)
        tls.memory().writeWord(kArrayBase + 4 * i, 0);
    std::uint32_t id =
        buildStl(tls.codeSpace(), StlKind::IncrementLocalInductor, pad);
    tls.start(id, {kArrayBase, static_cast<Word>(n)}, kStackTop);
    ASSERT_TRUE(tls.run(50'000'000));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(tls.memory().readWord(kArrayBase + 4 * i), 1u);

    const double speedup =
        static_cast<double>(seq.now()) / static_cast<double>(tls.now());
    EXPECT_GT(speedup, 2.0) << "seq=" << seq.now()
                            << " tls=" << tls.now();
}

TEST_F(MachineTls, PrefixChainSerializesButStaysCorrect)
{
    Machine m(testConfig());
    const int n = 48;
    m.memory().writeWord(kArrayBase, 5);
    for (int i = 1; i < n; ++i)
        m.memory().writeWord(kArrayBase + 4 * i, 0);
    runStl(m, StlKind::PrefixChain, n);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(m.memory().readWord(kArrayBase + 4 * i),
                  static_cast<Word>(5 + i)) << "i=" << i;
    EXPECT_GT(m.stats().violations, 0u);
}

TEST_F(MachineTls, LockedSumCorrectWithoutViolations)
{
    Machine m(testConfig());
    const int n = 40;
    Word expect = 0;
    for (int i = 0; i < n; ++i) {
        m.memory().writeWord(kArrayBase + 4 * i, 3 * i + 1);
        expect += 3 * i + 1;
    }
    runStl(m, StlKind::LockedSum, n);
    EXPECT_EQ(m.exitValue(), expect);
    // The lock delays consumers until the value is ready, so no RAW
    // violations occur (§4.2.4).
    EXPECT_EQ(m.stats().violations, 0u);
}

TEST_F(MachineTls, StoreBufferOverflowHandledCorrectly)
{
    Machine m(testConfig());
    const int n = 8;
    runStl(m, StlKind::WideStores, n);
    for (int i = 0; i < n; ++i)
        for (int k = 0; k < 72; ++k)
            EXPECT_EQ(m.memory().readWord(
                          kArrayBase + i * 72 * 32 + k * 32),
                      static_cast<Word>(i))
                << "i=" << i << " k=" << k;
    EXPECT_GT(m.stats().bufferOverflowStalls, 0u);
}

TEST_F(MachineTls, StatsBucketsSumToWallClock)
{
    Machine m(testConfig());
    const int n = 64;
    for (int i = 0; i < n; ++i)
        m.memory().writeWord(kArrayBase + 4 * i, 0);
    runStl(m, StlKind::IncrementCommunicated, n);
    const ExecStats &s = m.stats();
    EXPECT_NEAR(s.total(), static_cast<double>(m.now()),
                static_cast<double>(m.now()) * 0.01 + 2);
    EXPECT_GT(s.runUsed, 0.0);
    EXPECT_GT(s.overhead, 0.0);
}

TEST_F(MachineTls, StlRuntimeStatsPopulated)
{
    Machine m(testConfig());
    const int n = 64;
    runStl(m, StlKind::IncrementLocalInductor, n);
    const auto &map = m.stlStats();
    ASSERT_EQ(map.count(kLoopId), 1u);
    const StlRuntimeStats &ls = map.at(kLoopId);
    EXPECT_EQ(ls.entries, 1u);
    EXPECT_GE(ls.commits, static_cast<std::uint64_t>(n) - 4);
    EXPECT_GT(ls.threadCycles.mean(), 0.0);
    EXPECT_GT(ls.cyclesInside, 0u);
}

TEST_F(MachineTls, ZeroIterationLoopEntersAndExitsCleanly)
{
    Machine m(testConfig());
    runStl(m, StlKind::IncrementLocalInductor, 0);
    EXPECT_EQ(m.stats().violations, 0u);
    EXPECT_TRUE(m.halted());
}

} // namespace
} // namespace jrpm

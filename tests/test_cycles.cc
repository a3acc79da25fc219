/**
 * @file
 * Golden cycle-count regression tests: exact `RunOutcome::cycles`,
 * `ExecStats` buckets and instruction counts for three small workloads
 * in sequential, profiled and TLS modes, pinned to the values the
 * cycle-accurate reference loop produced before the event-horizon
 * fast path landed.  Every row holds in both dispatch tiers: Exact
 * (Machine::step() every cycle) and Fast.
 *
 * These numbers ARE the paper's figures: Fig. 9/10 and Tables 3-4 are
 * derived from exactly these counters, so any simulator change that
 * shifts them — however plausibly — silently changes every reported
 * result.  A legitimate cost-model change must update the goldens
 * deliberately: run any one test with JRPM_GOLDEN_REGEN=1 in the
 * environment and paste the emitted table over `kGolden` below.
 */

#include <cstdio>
#include <cstdlib>
#include <tuple>

#include <gtest/gtest.h>

#include "workloads/workloads.hh"

namespace jrpm
{
namespace
{

/** Exact expected counters of one (workload, mode) run. */
struct Golden
{
    const char *workload;
    const char *mode;         ///< "seq" | "prof" | "tls"
    std::uint64_t cycles;
    std::uint64_t insts;
    double serial;
    double runUsed;
    double waitUsed;
    double overhead;
    double runViolated;
    double waitViolated;
    std::uint64_t commits;
    std::uint64_t violations;
};

/**
 * Captured from the per-cycle reference implementation (seed of this
 * PR) with default JrpmConfig; regenerate with JRPM_GOLDEN_REGEN=1.
 */
const Golden kGolden[] = {
    // clang-format off
    {"Assignment", "seq", 67396ull, 67219ull, 67396, 0, 0, 0, 0, 0, 0ull, 0ull},
    {"Assignment", "prof", 74941ull, 74764ull, 74941, 0, 0, 0, 0, 0, 0ull, 0ull},
    {"Assignment", "tls", 25584ull, 72984ull, 234.75, 21681.5, 1462.75, 449, 826, 930, 296ull, 5ull},
    {"Huffman", "seq", 176221ull, 171181ull, 176221, 0, 0, 0, 0, 0, 0ull, 0ull},
    {"Huffman", "prof", 183435ull, 178395ull, 183435, 0, 0, 0, 0, 0, 0ull, 0ull},
    {"Huffman", "tls", 149739ull, 196582ull, 123569.5, 20111, 2999.25, 3043.5, 15.75, 0, 2400ull, 0ull},
    {"IDEA", "seq", 217934ull, 217063ull, 217934, 0, 0, 0, 0, 0, 0ull, 0ull},
    {"IDEA", "prof", 271075ull, 270204ull, 271075, 0, 0, 0, 0, 0, 0ull, 0ull},
    {"IDEA", "tls", 60798ull, 230906ull, 275.75, 58314.25, 244.75, 1958, 5.25, 0, 1516ull, 0ull},
    // clang-format on
};

/** Small inputs keep the three runs per workload under a second. */
std::vector<Word>
smallArgs(const std::string &name)
{
    if (name == "Assignment")
        return {12};
    if (name == "Huffman")
        return {1200};
    return {300}; // IDEA
}

RunOutcome
runMode(const std::string &workload, const std::string &mode,
        Dispatch dispatch)
{
    Workload w = wl::workloadByName(workload);
    const std::vector<Word> args = smallArgs(workload);
    w.mainArgs = args;
    JrpmConfig cfg;
    cfg.sys.dispatch = dispatch;
    JrpmSystem sys(w, cfg);
    if (mode == "seq")
        return sys.runSequential(args, false, nullptr);
    if (mode == "prof") {
        TestProfiler prof;
        return sys.runSequential(args, true, &prof);
    }
    return sys.runTls(args, sys.selectOnly());
}

bool
regenRequested()
{
    const char *env = std::getenv("JRPM_GOLDEN_REGEN");
    return env && *env && *env != '0';
}

/** Print one row in source form, ready to paste into kGolden. */
void
printRow(const char *workload, const char *mode, const RunOutcome &out)
{
    const ExecStats &st = out.stats;
    std::printf("    {\"%s\", \"%s\", %lluull, %lluull, %.17g, %.17g, "
                "%.17g, %.17g, %.17g, %.17g, %lluull, %lluull},\n",
                workload, mode,
                static_cast<unsigned long long>(out.cycles),
                static_cast<unsigned long long>(out.insts), st.serial,
                st.runUsed, st.waitUsed, st.overhead, st.runViolated,
                st.waitViolated,
                static_cast<unsigned long long>(st.commits),
                static_cast<unsigned long long>(st.violations));
}

class GoldenCycles
    : public ::testing::TestWithParam<std::tuple<Golden, Dispatch>>
{
};

TEST_P(GoldenCycles, ExactMatch)
{
    const auto &[g, dispatch] = GetParam();
    const RunOutcome out = runMode(g.workload, g.mode, dispatch);
    ASSERT_TRUE(out.halted) << g.workload << "/" << g.mode;
    ASSERT_FALSE(out.uncaught) << g.workload << "/" << g.mode;

    if (regenRequested()) {
        if (dispatch == Dispatch::Exact)
            printRow(g.workload, g.mode, out);
        GTEST_SKIP() << "golden regeneration mode";
    }

    const ExecStats &st = out.stats;
    EXPECT_EQ(out.cycles, g.cycles);
    EXPECT_EQ(out.insts, g.insts);
    // Bit-exact double comparisons on purpose: the Fig. 10 accounting
    // must be deterministic, not merely close.
    EXPECT_EQ(st.serial, g.serial);
    EXPECT_EQ(st.runUsed, g.runUsed);
    EXPECT_EQ(st.waitUsed, g.waitUsed);
    EXPECT_EQ(st.overhead, g.overhead);
    EXPECT_EQ(st.runViolated, g.runViolated);
    EXPECT_EQ(st.waitViolated, g.waitViolated);
    EXPECT_EQ(st.commits, g.commits);
    EXPECT_EQ(st.violations, g.violations);
}

TEST_P(GoldenCycles, RepeatableAcrossRuns)
{
    const auto &[g, dispatch] = GetParam();
    if (regenRequested())
        GTEST_SKIP() << "golden regeneration mode";
    const RunOutcome a = runMode(g.workload, g.mode, dispatch);
    const RunOutcome b = runMode(g.workload, g.mode, dispatch);
    EXPECT_EQ(outcomeDiff(a, b), "");
}

std::string
goldenName(const ::testing::TestParamInfo<std::tuple<Golden, Dispatch>>
               &info)
{
    const auto &[g, dispatch] = info.param;
    return std::string(g.workload) + "_" + g.mode +
           (dispatch == Dispatch::Fast ? "_Fast" : "_Exact");
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GoldenCycles,
    ::testing::Combine(::testing::ValuesIn(kGolden),
                       ::testing::Values(Dispatch::Fast, Dispatch::Exact)),
    goldenName);

// ---------------------------------------------------------------------
// Dependence-telemetry goldens.  The observatory counters must be pure
// observers of the same deterministic execution the cycle goldens pin,
// so their values are pinned the same way: bit-exact, regenerated only
// deliberately (JRPM_GOLDEN_REGEN=1).
// ---------------------------------------------------------------------

/** Exact expected telemetry counters of one TLS run. */
struct TelemetryGolden
{
    const char *workload;
    std::uint64_t specWindows;     ///< burstSpans.count
    std::uint64_t specWindowInsts; ///< burstSpans.sum
    std::uint64_t specSlowSteps;
    std::uint64_t specFastMem;     ///< mem ops retired in-window
    std::uint64_t sigHits;
    std::uint64_t forwardedLoads;
    std::uint64_t occupancySamples; ///< storeBufOccupancy.count
    std::uint64_t rawSquashes;      ///< squashCauses[RawViolation]
    std::uint64_t stackViolations;  ///< violationsByClass[Stack]
};

/**
 * Telemetry of the fast tier, dispatch shape included: memory ops
 * whose signatures prove them core-local retire inside burst
 * windows.  The exact tier opens no window and must match the fast
 * run under outcomeDiff().
 */
const TelemetryGolden kTelemetry[] = {
    // clang-format off
    {"Assignment", 4922ull, 21017ull, 4282ull, 3677ull, 3841ull, 1558ull, 1440ull, 5ull, 0ull},
    {"Huffman", 3038ull, 20039ull, 6097ull, 6416ull, 1ull, 0ull, 2400ull, 0ull, 0ull},
    {"IDEA", 2464ull, 56525ull, 3947ull, 18194ull, 13ull, 0ull, 2716ull, 0ull, 0ull},
    // clang-format on
};

/** Print one row in source form, ready to paste into kTelemetry. */
void
printTelemetryRow(const char *workload, const ExecStats &st)
{
    std::printf("    {\"%s\", %lluull, %lluull, %lluull, %lluull, "
                "%lluull, %lluull, %lluull, %lluull, %lluull},\n",
                workload,
                static_cast<unsigned long long>(st.burstSpans.count),
                static_cast<unsigned long long>(st.burstSpans.sum),
                static_cast<unsigned long long>(st.specSlowSteps),
                static_cast<unsigned long long>(st.specFastMem),
                static_cast<unsigned long long>(st.sigHits),
                static_cast<unsigned long long>(st.forwardedLoads),
                static_cast<unsigned long long>(
                    st.storeBufOccupancy.count),
                static_cast<unsigned long long>(st.squashCauses[
                    static_cast<std::size_t>(
                        SquashCause::RawViolation)]),
                static_cast<unsigned long long>(st.violationsByClass[
                    static_cast<std::size_t>(AddrClass::Stack)]));
}

TEST(TelemetryGoldens, TlsCountersExactMatch)
{
    for (const TelemetryGolden &g : kTelemetry) {
        const RunOutcome out = runMode(g.workload, "tls", Dispatch::Fast);
        ASSERT_TRUE(out.halted) << g.workload;
        const ExecStats &st = out.stats;

        if (regenRequested()) {
            printTelemetryRow(g.workload, st);
            continue;
        }

        EXPECT_EQ(st.burstSpans.count, g.specWindows) << g.workload;
        EXPECT_EQ(st.burstSpans.sum, g.specWindowInsts) << g.workload;
        EXPECT_EQ(st.specSlowSteps, g.specSlowSteps) << g.workload;
        EXPECT_EQ(st.specFastMem, g.specFastMem) << g.workload;
        EXPECT_EQ(st.sigHits, g.sigHits) << g.workload;
        EXPECT_EQ(st.forwardedLoads, g.forwardedLoads) << g.workload;
        EXPECT_EQ(st.storeBufOccupancy.count, g.occupancySamples)
            << g.workload;
        EXPECT_EQ(st.squashCauses[static_cast<std::size_t>(
                      SquashCause::RawViolation)],
                  g.rawSquashes)
            << g.workload;
        EXPECT_EQ(st.violationsByClass[static_cast<std::size_t>(
                      AddrClass::Stack)],
                  g.stackViolations)
            << g.workload;

        // Internal consistency: every violation has exactly one
        // squash cause and one address class.
        std::uint64_t causes = 0, classes = 0;
        for (std::size_t k = 0; k < kNumSquashCauses; ++k)
            causes += st.squashCauses[k];
        for (std::size_t k = 0; k < kNumAddrClasses; ++k)
            classes += st.violationsByClass[k];
        EXPECT_EQ(classes, st.violations) << g.workload;
        EXPECT_GE(causes, st.violations) << g.workload;

        const RunOutcome exact =
            runMode(g.workload, "tls", Dispatch::Exact);
        EXPECT_EQ(outcomeDiff(out, exact), "") << g.workload;
        EXPECT_EQ(exact.stats.burstSpans.count, 0u) << g.workload;
        EXPECT_EQ(exact.stats.specSlowSteps, 0u) << g.workload;
        EXPECT_EQ(exact.stats.specFastMem, 0u) << g.workload;
    }
    if (regenRequested())
        GTEST_SKIP() << "golden regeneration mode";
}

} // namespace
} // namespace jrpm

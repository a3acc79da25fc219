/**
 * @file
 * Round-trip coverage for the JSON report export: serialize a fully
 * populated JrpmReport, parse it back with the in-tree parser, and
 * assert field equality — so CI scripts consuming --report-out files
 * can rely on the schema, and the parser rejects malformed input.
 */

#include <gtest/gtest.h>

#include "core/report_json.hh"

namespace jrpm
{
namespace
{

JrpmReport
populatedReport()
{
    JrpmReport rep;
    rep.name = "quoted \"name\"\twith\nescapes";
    rep.fingerprint = 0x0123456789abcdefull;
    rep.warmStart = true;
    rep.demoted = false;

    rep.seqMain.halted = true;
    rep.seqMain.uncaught = false;
    rep.seqMain.exitValue = 0xdead0001u;
    rep.seqMain.cycles = 123456789;
    rep.seqMain.insts = 987654321;
    rep.seqMain.stats.violations = 0;

    rep.tls.halted = true;
    rep.tls.exitValue = 0xdead0001u;
    rep.tls.cycles = 23456789;
    rep.tls.insts = 987654321;
    rep.tls.stats.violations = 17;
    rep.tls.watchdogFired = false;
    rep.tls.faultsInjected = 3;

    rep.profilingSlowdown = 1.875;
    rep.predictedTlsCycles = 0.40625;
    rep.actualSpeedup = 2.5;
    rep.totalSpeedup = 1.75;
    rep.outputsMatch = true;
    rep.oracle.mode = OracleMode::Strict;
    rep.oracle.compared = true;

    rep.phases.compile = 1000;
    rep.phases.profiling = 2000;
    rep.phases.recompile = 3000;
    rep.phases.application = 4000;
    rep.phases.gc = 500;

    SelectedStl s0;
    s0.loopId = 4;
    s0.prediction.predictedSpeedup = 3.125;
    s0.prediction.coverageCycles = 65536.0;
    s0.prediction.itersPerEntry = 12.5;
    s0.plan.syncLock = true;
    SelectedStl s1;
    s1.loopId = 9;
    s1.plan.multilevel = true;
    s1.plan.hoistHandlers = true;
    rep.selections = {s0, s1};
    return rep;
}

TEST(ReportJson, SerializeParseFieldEquality)
{
    const JrpmReport rep = populatedReport();
    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(reportJson(rep), v, &err)) << err;
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);

    EXPECT_EQ(v["name"].str, rep.name);
    EXPECT_EQ(v["fingerprint"].str, "0123456789abcdef");
    EXPECT_TRUE(v["warmStart"].boolean());
    EXPECT_FALSE(v["demoted"].boolean());

    const JsonValue &seq = v["seqMain"];
    EXPECT_TRUE(seq["halted"].boolean());
    EXPECT_FALSE(seq["uncaught"].boolean());
    EXPECT_EQ(seq["exitValue"].number(),
              static_cast<double>(rep.seqMain.exitValue));
    EXPECT_EQ(seq["cycles"].number(), 123456789.0);
    EXPECT_EQ(seq["insts"].number(), 987654321.0);

    const JsonValue &tls = v["tls"];
    EXPECT_EQ(tls["violations"].number(), 17.0);
    EXPECT_EQ(tls["faultsInjected"].number(), 3.0);
    EXPECT_FALSE(tls["watchdog"].boolean());

    // %.17g round-trips doubles exactly through strtod.
    EXPECT_EQ(v["profilingSlowdown"].number(), rep.profilingSlowdown);
    EXPECT_EQ(v["predictedTlsCycles"].number(),
              rep.predictedTlsCycles);
    EXPECT_EQ(v["actualSpeedup"].number(), rep.actualSpeedup);
    EXPECT_EQ(v["totalSpeedup"].number(), rep.totalSpeedup);
    EXPECT_TRUE(v["outputsMatch"].boolean());
    EXPECT_TRUE(v["oracle"]["compared"].boolean());
    EXPECT_TRUE(v["oracle"]["match"].boolean());

    const JsonValue &ph = v["phases"];
    EXPECT_EQ(ph["compile"].number(), 1000.0);
    EXPECT_EQ(ph["profiling"].number(), 2000.0);
    EXPECT_EQ(ph["recompile"].number(), 3000.0);
    EXPECT_EQ(ph["application"].number(), 4000.0);
    EXPECT_EQ(ph["gc"].number(), 500.0);
    EXPECT_EQ(ph["total"].number(),
              static_cast<double>(rep.phases.total()));

    const JsonValue &sels = v["selections"];
    ASSERT_EQ(sels.kind, JsonValue::Kind::Array);
    ASSERT_EQ(sels.items.size(), 2u);
    EXPECT_EQ(sels.at(0)["loopId"].number(), 4.0);
    EXPECT_EQ(sels.at(0)["predictedSpeedup"].number(), 3.125);
    EXPECT_EQ(sels.at(0)["coverageCycles"].number(), 65536.0);
    EXPECT_EQ(sels.at(0)["itersPerEntry"].number(), 12.5);
    EXPECT_TRUE(sels.at(0)["plan"]["syncLock"].boolean());
    EXPECT_FALSE(sels.at(0)["plan"]["multilevel"].boolean());
    EXPECT_EQ(sels.at(1)["loopId"].number(), 9.0);
    EXPECT_TRUE(sels.at(1)["plan"]["multilevel"].boolean());
    EXPECT_TRUE(sels.at(1)["plan"]["hoistHandlers"].boolean());

    // Out-of-range and missing-key lookups yield the shared Null.
    EXPECT_TRUE(sels.at(2).isNull());
    EXPECT_TRUE(v["no-such-key"].isNull());
}

/** Every ExecStats field non-zero and distinct. */
ExecStats
distinctStats()
{
    const std::uint64_t base = 1000;
    ExecStats st;
    st.serial = base + 0.5;
    st.runUsed = base + 1.25;
    st.waitUsed = base + 2.125;
    st.overhead = base + 3.0625;
    st.runViolated = base + 4.5;
    st.waitViolated = base + 5.75;
    st.noteViolation(0x1000 + base);
    st.violations = base + 1;
    st.violationAddrsDropped = base + 6;
    st.commits = base + 7;
    st.stlEntries = base + 8;
    st.bufferOverflowStalls = base + 9;
    st.watchdogFires = base + 10;
    st.governorAborts = base + 11;
    st.violationsSuppressed = base + 12;
    st.specSlowSteps = base + 13;
    st.specFastMem = base + 14;
    st.sigHits = base + 15;
    st.sigFalsePositives = base + 16;
    st.forwardedLoads = base + 17;
    for (std::uint64_t v : {base + 1, base + 40, 3 * base + 900})
        st.burstSpans.sample(v);
    for (std::uint64_t v : {base + 2, base + 5})
        st.forwardDistance.sample(v);
    for (std::uint64_t v : {base + 3, base + 70, base + 6000})
        st.storeBufOccupancy.sample(v);
    for (std::size_t i = 0; i < kNumSquashCauses; ++i)
        st.squashCauses[i] = base + 20 + i;
    for (std::size_t i = 0; i < kNumAddrClasses; ++i)
        st.violationsByClass[i] = base + 30 + i;
    return st;
}

/** Every StlRuntimeStats field non-zero and distinct. */
StlRuntimeStats
distinctLoopStats(std::uint64_t base)
{
    StlRuntimeStats ls;
    ls.entries = base + 1;
    ls.commits = base + 2;
    ls.violations = base + 3;
    ls.threadCycles.sample(base + 4.0);
    ls.loadLines.sample(base + 5.0);
    ls.storeLines.sample(base + 6.0);
    ls.cyclesInside = base + 7;
    ls.overflowStalls = base + 8;
    ls.soloEntries = base + 9;
    ls.governorAborts = base + 10;
    ls.slowSteps = base + 11;
    ls.specFastMem = base + 12;
    ls.sigHits = base + 13;
    ls.sigFalsePositives = base + 14;
    ls.forwardedLoads = base + 15;
    ls.burstSpans.sample(base + 16);
    ls.forwardDistance.sample(base + 17);
    ls.storeBufOccupancy.sample(base + 18);
    for (std::size_t i = 0; i < kNumSquashCauses; ++i)
        ls.squashCauses[i] = base + 20 + i;
    for (std::size_t i = 0; i < kNumAddrClasses; ++i)
        ls.violationsByClass[i] = base + 30 + i;
    return ls;
}

// Pinned: the exact bytes reportJson() emits (--report-out files and
// service result frames are compared byte for byte).  Every TLS
// telemetry field is distinct, so a swapped or dropped key shows;
// the all-zero sequential run pins the empty maps and histograms.
const char *const kPinnedReportJson =
    "{\"name\":\"pin \\\"q\\\" \\u0001 ctl\","
    "\"fingerprint\":\"0123456789abcdef\",\"warmStart\":true,"
    "\"demoted\":false,\"seqMain\":{\"halted\":true,\"uncaught\":false,"
    "\"exitValue\":3735879681,\"cycles\":123456789,\"insts\":987654321,"
    "\"violations\":0,\"watchdog\":false,\"faultsInjected\":0,\"telemetry\":{"
    "\"specWindows\":0,\"specWindowInsts\":0,\"specSlowSteps\":0,"
    "\"specFastMem\":0,\"sigHits\":0,\"sigFalsePositives\":0,"
    "\"forwardedLoads\":0,\"commits\":0,\"stlEntries\":0,"
    "\"overflowStalls\":0,\"squashCauses\":{},\"violationsByClass\":{},"
    "\"burstSpans\":{\"count\":0,\"sum\":0,\"max\":0,\"mean\":0,"
    "\"log2Buckets\":[]},\"forwardDistance\":{\"count\":0,\"sum\":0,"
    "\"max\":0,\"mean\":0,\"log2Buckets\":[]},\"storeBufOccupancy\":{"
    "\"count\":0,\"sum\":0,\"max\":0,\"mean\":0,\"log2Buckets\":[]}}},"
    "\"tls\":{\"halted\":true,\"uncaught\":false,\"exitValue\":3735879681,"
    "\"cycles\":23456789,\"insts\":987654321,\"violations\":1001,"
    "\"watchdog\":false,\"faultsInjected\":3,\"telemetry\":{"
    "\"specWindows\":3,\"specWindowInsts\":5941,\"specSlowSteps\":1013,"
    "\"specFastMem\":1014,\"sigHits\":1015,\"sigFalsePositives\":1016,"
    "\"forwardedLoads\":1017,\"commits\":1007,\"stlEntries\":1008,"
    "\"overflowStalls\":1009,\"squashCauses\":{\"raw_violation\":1020,"
    "\"spurious_fault\":1021,\"stl_switch\":1022,\"watchdog\":1023,"
    "\"governor\":1024},\"violationsByClass\":{\"unknown\":1030,"
    "\"stack\":1031,\"heap\":1032,\"static\":1033,\"scratch\":1034},"
    "\"burstSpans\":{\"count\":3,\"sum\":5941,\"max\":3900,"
    "\"mean\":1980.3333333333333,\"log2Buckets\":[0,0,0,0,0,0,0,0,0,0,1,1,"
    "1]},\"forwardDistance\":{\"count\":2,\"sum\":2007,\"max\":1005,"
    "\"mean\":1003.5,\"log2Buckets\":[0,0,0,0,0,0,0,0,0,0,2]},"
    "\"storeBufOccupancy\":{\"count\":3,\"sum\":9073,\"max\":7000,"
    "\"mean\":3024.3333333333335,\"log2Buckets\":[0,0,0,0,0,0,0,0,0,0,1,1,0,"
    "1]}}},\"profilingSlowdown\":1.875,\"predictedTlsCycles\":0.40625,"
    "\"actualSpeedup\":0.33333333333333331,\"totalSpeedup\":1.75,"
    "\"outputsMatch\":true,\"oracle\":{\"compared\":true,\"match\":true},"
    "\"phases\":{\"compile\":1000,\"profiling\":2000,\"recompile\":3000,"
    "\"application\":4000,\"gc\":500,\"total\":10500},\"selections\":[{"
    "\"loopId\":4,\"predictedSpeedup\":3.125,\"coverageCycles\":65536,"
    "\"itersPerEntry\":12.5,\"plan\":{\"syncLock\":true,\"multilevel\":false,"
    "\"hoistHandlers\":false}},{\"loopId\":9,\"predictedSpeedup\":1,"
    "\"coverageCycles\":0,\"itersPerEntry\":0,\"plan\":{\"syncLock\":false,"
    "\"multilevel\":true,\"hoistHandlers\":true}}],\"loops\":[{\"loopId\":3,"
    "\"entries\":201,\"commits\":202,\"violations\":203,\"cyclesInside\":207,"
    "\"overflowStalls\":208,\"soloEntries\":209,\"slowSteps\":211,"
    "\"specFastMem\":212,\"sigHits\":213,\"sigFalsePositives\":214,"
    "\"forwardedLoads\":215,\"squashCauses\":{\"raw_violation\":220,"
    "\"spurious_fault\":221,\"stl_switch\":222,\"watchdog\":223,"
    "\"governor\":224},\"violationsByClass\":{\"unknown\":230,\"stack\":231,"
    "\"heap\":232,\"static\":233,\"scratch\":234},\"burstSpans\":{"
    "\"count\":1,\"sum\":216,\"max\":216,\"mean\":216,\"log2Buckets\":[0,0,0,"
    "0,0,0,0,0,1]},\"forwardDistance\":{\"count\":1,\"sum\":217,\"max\":217,"
    "\"mean\":217,\"log2Buckets\":[0,0,0,0,0,0,0,0,1]},"
    "\"storeBufOccupancy\":{\"count\":1,\"sum\":218,\"max\":218,\"mean\":218,"
    "\"log2Buckets\":[0,0,0,0,0,0,0,0,1]}},{\"loopId\":11,\"entries\":301,"
    "\"commits\":302,\"violations\":303,\"cyclesInside\":307,"
    "\"overflowStalls\":308,\"soloEntries\":309,\"slowSteps\":311,"
    "\"specFastMem\":312,\"sigHits\":313,\"sigFalsePositives\":314,"
    "\"forwardedLoads\":315,\"squashCauses\":{\"raw_violation\":320,"
    "\"spurious_fault\":321,\"stl_switch\":322,\"watchdog\":323,"
    "\"governor\":324},\"violationsByClass\":{\"unknown\":330,\"stack\":331,"
    "\"heap\":332,\"static\":333,\"scratch\":334},\"burstSpans\":{"
    "\"count\":1,\"sum\":316,\"max\":316,\"mean\":316,\"log2Buckets\":[0,0,0,"
    "0,0,0,0,0,0,1]},\"forwardDistance\":{\"count\":1,\"sum\":317,"
    "\"max\":317,\"mean\":317,\"log2Buckets\":[0,0,0,0,0,0,0,0,0,1]},"
    "\"storeBufOccupancy\":{\"count\":1,\"sum\":318,\"max\":318,\"mean\":318,"
    "\"log2Buckets\":[0,0,0,0,0,0,0,0,0,1]}}]}";

TEST(ReportJson, BytesArePinned)
{
    JrpmReport rep = populatedReport();
    rep.name = "pin \"q\" \x01 ctl";
    rep.actualSpeedup = 1.0 / 3.0;
    rep.tls.stats = distinctStats();
    rep.tls.stl[3] = distinctLoopStats(200);
    rep.tls.stl[11] = distinctLoopStats(300);
    EXPECT_EQ(reportJson(rep), kPinnedReportJson);
}

TEST(ReportJson, ArrayOfReportsParses)
{
    const std::vector<JrpmReport> reps = {populatedReport(),
                                          populatedReport()};
    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(reportsJson(reps), v, &err)) << err;
    ASSERT_EQ(v.kind, JsonValue::Kind::Array);
    ASSERT_EQ(v.items.size(), 2u);
    EXPECT_EQ(v.at(0)["name"].str, v.at(1)["name"].str);
}

TEST(ReportJson, ParserRejectsMalformedInput)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(jsonParse("", v, &err));
    EXPECT_FALSE(jsonParse("{", v, &err));
    EXPECT_FALSE(jsonParse("{\"a\":1,}", v, &err));
    EXPECT_FALSE(jsonParse("[1,2", v, &err));
    EXPECT_FALSE(jsonParse("\"unterminated", v, &err));
    EXPECT_FALSE(jsonParse("truex", v, &err));
    EXPECT_FALSE(jsonParse("{\"a\":1} garbage", v, &err));
    EXPECT_FALSE(jsonParse("{\"a\" 1}", v, &err));
    // A member named twice would otherwise merge into the first: a
    // string appends, an array grows.
    EXPECT_FALSE(jsonParse("{\"a\":\"x\",\"a\":\"y\"}", v, &err));
    EXPECT_NE(err.find("duplicate member 'a'"), std::string::npos) << err;
    EXPECT_FALSE(jsonParse("{\"b\":[1],\"b\":[2]}", v, &err));
    EXPECT_NE(err.find("duplicate member 'b'"), std::string::npos) << err;
    // The same name in sibling objects is no duplicate.
    EXPECT_TRUE(jsonParse("[{\"a\":1},{\"a\":2}]", v, &err)) << err;
}

TEST(ReportJson, DepthLimitRejectsDeepNestingCleanly)
{
    // A corrupt manifest full of open brackets must fail with a
    // diagnostic, not blow the stack.
    JsonValue v;
    std::string err;
    EXPECT_FALSE(jsonParse(std::string(100'000, '['), v, &err));
    EXPECT_NE(err.find("nesting too deep"), std::string::npos)
        << err;
    EXPECT_FALSE(
        jsonParse(std::string(100'000, '[') + "{\"a\":", v, &err));

    std::string alternating;
    for (int i = 0; i < 50'000; ++i)
        alternating += "{\"k\":[";
    EXPECT_FALSE(jsonParse(alternating, v, &err));
    EXPECT_NE(err.find("nesting too deep"), std::string::npos)
        << err;

    // Nesting up to the configured limit still parses.
    JsonLimits lim;
    lim.maxDepth = 8;
    std::string ok8 = "[[[[[[[[ 1 ]]]]]]]]";
    EXPECT_TRUE(jsonParse(ok8, v, &err, lim)) << err;
    std::string deep9 = "[[[[[[[[[ 1 ]]]]]]]]]";
    EXPECT_FALSE(jsonParse(deep9, v, &err, lim));
}

TEST(ReportJson, ByteBudgetRejectsOversizedInput)
{
    JsonLimits lim;
    lim.maxBytes = 64;
    JsonValue v;
    std::string err;
    std::string big = "{\"pad\":\"" + std::string(128, 'x') + "\"}";
    EXPECT_FALSE(jsonParse(big, v, &err, lim));
    EXPECT_NE(err.find("byte budget"), std::string::npos) << err;
    // The same document parses once the budget admits it.
    lim.maxBytes = big.size();
    EXPECT_TRUE(jsonParse(big, v, &err, lim)) << err;
}

TEST(ReportJson, PrimitivesAndEscapes)
{
    JsonValue v;
    ASSERT_TRUE(jsonParse("  null ", v));
    EXPECT_TRUE(v.isNull());
    ASSERT_TRUE(jsonParse("-12.5e2", v));
    EXPECT_EQ(v.number(), -1250.0);
    ASSERT_TRUE(jsonParse("\"a\\\"b\\\\c\\n\\t\\u0007\"", v));
    EXPECT_EQ(v.str, std::string("a\"b\\c\n\t\a"));
    ASSERT_TRUE(jsonParse("[]", v));
    EXPECT_EQ(v.items.size(), 0u);
    ASSERT_TRUE(jsonParse("{}", v));
    EXPECT_EQ(v.fields.size(), 0u);
}

// Pinned: the strict number grammar.  Bare strtod also accepts hex,
// infinities, NaNs and leading zeros — the wire front-end feeds this
// parser untrusted bytes, so each must stay rejected.
TEST(ReportJson, StrictNumberGrammarRejectsStrtodExtensions)
{
    JsonValue v;
    std::string err;
    for (const char *bad :
         {"0x10", "-0x1p4", "inf", "-inf", "infinity", "nan",
          "NaN", "01", "-01", "007", "1.", ".5", "-.5", "1e",
          "1e+", "+1", "--1", "1.2.3", "0x", "1f"}) {
        EXPECT_FALSE(jsonParse(bad, v, &err))
            << "accepted: " << bad;
    }
    for (const char *good :
         {"0", "-0", "10", "-10", "0.5", "-0.5", "1e9", "1E9",
          "1e+9", "1e-9", "123.456e-2", "0.0"}) {
        EXPECT_TRUE(jsonParse(good, v, &err))
            << "rejected: " << good << ": " << err;
    }
    // In context: a poisoned field fails the whole document.
    EXPECT_FALSE(jsonParse("{\"a\":0x10}", v, &err));
    EXPECT_FALSE(jsonParse("[1,inf]", v, &err));
}

// Pinned: a \u escape takes exactly four hex digits and decodes to
// UTF-8; surrogates must pair.  The wire front-end feeds this parser
// untrusted bytes.
TEST(ReportJson, UnicodeEscapesAreStrictAndDecodeToUtf8)
{
    JsonValue v;
    std::string err;
    for (const char *bad :
         {"\"\\u12G4\"", "\"\\uZZZZ\"", "\"\\u-001\"", "\"\\u12\"",
          "\"\\ud83d\"", "\"\\ude00\"", "\"\\ud83dx\"",
          "\"\\ud83d\\u0041\""}) {
        EXPECT_FALSE(jsonParse(bad, v, &err)) << "accepted: " << bad;
    }
    ASSERT_TRUE(jsonParse("\"\\u20ac\"", v, &err)) << err;
    EXPECT_EQ(v.str, "\xe2\x82\xac"); // the euro sign
    ASSERT_TRUE(jsonParse("\"\\u00e9\\u0041\\ud83d\\ude00\"", v, &err))
        << err;
    EXPECT_EQ(v.str, "\xc3\xa9" "A" "\xf0\x9f\x98\x80");
}

// Pinned: every parse failure names the byte offset, and trailing
// garbage after a complete document is itself a failure — the wire
// protocol's exact-consumption guarantee depends on both.
TEST(ReportJson, ParseErrorsCarryByteOffsets)
{
    JsonValue v;
    std::string err;
    ASSERT_FALSE(jsonParse("{\"a\":1} garbage", v, &err));
    EXPECT_NE(err.find("trailing garbage at byte 8"),
              std::string::npos)
        << err;
    ASSERT_FALSE(jsonParse("{\"a\":01}", v, &err));
    EXPECT_NE(err.find("at byte"), std::string::npos) << err;
    ASSERT_FALSE(jsonParse("[1,2,x]", v, &err));
    EXPECT_NE(err.find("at byte 5"), std::string::npos) << err;
}

} // namespace
} // namespace jrpm

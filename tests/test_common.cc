/**
 * @file
 * Unit tests for the common utilities (stats, rng, formatting).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"

namespace jrpm
{
namespace
{

TEST(Strfmt, FormatsLikePrintf)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 42, "ok"), "x=42 y=ok");
    EXPECT_EQ(strfmt("%05.1f", 2.25), "002.2");
    EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(SampleStat, TracksMeanMinMax)
{
    SampleStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    s.sample(2.0);
    s.sample(4.0);
    s.sample(9.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SampleStat, MergeCombinesStreams)
{
    SampleStat a, b;
    a.sample(1.0);
    a.sample(3.0);
    b.sample(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);

    SampleStat empty;
    empty.merge(a);
    EXPECT_EQ(empty.count(), 3u);
    a.merge(SampleStat());
    EXPECT_EQ(a.count(), 3u);
}

TEST(SampleStat, WelfordVarianceAndStddev)
{
    SampleStat s;
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    // Classic textbook set: population variance 4, stddev 2.
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 4.0, 1e-12);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);

    SampleStat one;
    one.sample(42.0);
    EXPECT_DOUBLE_EQ(one.variance(), 0.0);
}

TEST(SampleStat, WelfordIsNumericallyStable)
{
    // Large offset + small spread defeats the naive sum-of-squares
    // formulation; Welford keeps full precision.
    SampleStat s;
    const double base = 1e9;
    for (double v : {base + 4.0, base + 7.0, base + 13.0, base + 16.0})
        s.sample(v);
    EXPECT_NEAR(s.mean(), base + 10.0, 1e-3);
    EXPECT_NEAR(s.variance(), 22.5, 1e-6);
}

TEST(SampleStat, MergeMatchesSingleStream)
{
    SampleStat whole, a, b;
    const double vals[] = {1.0, 2.5, -3.0, 8.0, 0.25, 17.0, 4.0};
    int i = 0;
    for (double v : vals) {
        whole.sample(v);
        (i++ % 2 ? a : b).sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-12);
    EXPECT_NEAR(a.stddev(), whole.stddev(), 1e-12);

    SampleStat empty;
    empty.merge(whole);
    EXPECT_NEAR(empty.variance(), whole.variance(), 1e-12);
    whole.merge(SampleStat());
    EXPECT_NEAR(whole.variance(), empty.variance(), 1e-12);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundsRespected)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(17), 17u);
        const std::int32_t v = r.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        const float u = r.unit();
        EXPECT_GE(u, 0.0f);
        EXPECT_LT(u, 1.0f);
    }
}

TEST(Rng, GoldenStreamIsFrozen)
{
    // The stream contract in random.hh: seed 0x5eed must yield these
    // exact raw draws on every platform, forever.  Persisted forge
    // corpora and crystal fingerprints re-derive programs from seeds,
    // so any mismatch here is a format break, not a tunable.
    Rng r(0x5eed);
    EXPECT_EQ(r.next(), 0x970d78420bec184aull);
    EXPECT_EQ(r.next(), 0xc7e2c283945e48d8ull);
    EXPECT_EQ(r.next(), 0xe90a11ce3da04682ull);
    EXPECT_EQ(r.next(), 0x14c23c734282a22aull);

    // The mappings each consume exactly one draw, in call order.
    Rng m(0x5eed);
    EXPECT_EQ(m.below(1000), 610u);
    EXPECT_EQ(m.range(-50, 50), -45);
    EXPECT_FLOAT_EQ(m.unit(), 0.910309851f);
    EXPECT_TRUE(m.chance(0.5));

    // Seed 0 maps to state 1 (xorshift has no zero state).
    Rng z(0), one(1);
    EXPECT_EQ(z.next(), one.next());
    EXPECT_EQ(Rng(0).next(), 0x47e4ce4b896cdd1dull);
}

TEST(Rng, ChanceIsRoughlyCalibrated)
{
    Rng r(99);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits, 2500, 250);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "23"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator line present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTableDeathTest, ArityMismatchPanics)
{
    TextTable t;
    t.setHeader({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

TEST(LogThrottle, FirstFewVerbatimThenMilestones)
{
    logReportSuppressed(); // reset any prior counts
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 150; ++i)
        warnThrottled("test.throttle", "spam %d", i);
    const std::string burst =
        ::testing::internal::GetCapturedStderr();
    // First 5 verbatim, then only the 10th and 100th milestones.
    EXPECT_NE(burst.find("spam 0"), std::string::npos);
    EXPECT_NE(burst.find("spam 4"), std::string::npos);
    EXPECT_EQ(burst.find("spam 5"), std::string::npos);
    EXPECT_NE(burst.find("repeated 10 times"), std::string::npos);
    EXPECT_NE(burst.find("repeated 100 times"), std::string::npos);
    EXPECT_EQ(burst.find("repeated 50 times"), std::string::npos);

    ::testing::internal::CaptureStderr();
    logReportSuppressed();
    const std::string report =
        ::testing::internal::GetCapturedStderr();
    EXPECT_NE(report.find("[test.throttle] 150 similar"),
              std::string::npos);
    EXPECT_NE(report.find("145 suppressed"), std::string::npos);

    // The report resets the counts: the next warning is verbatim.
    ::testing::internal::CaptureStderr();
    warnThrottled("test.throttle", "fresh");
    EXPECT_NE(::testing::internal::GetCapturedStderr().find("fresh"),
              std::string::npos);
}

} // namespace
} // namespace jrpm

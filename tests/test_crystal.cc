/**
 * @file
 * Unit tests for the crystal repository: serialization round trips,
 * corruption/truncation rejection, schema and config invalidation,
 * and fingerprint sensitivity.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/metrics.hh"
#include "crystal/crystal.hh"
#include "member_mutants.hh"
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
        char tmpl[] = "/tmp/jrpm-crystal-XXXXXX";
        path = ::mkdtemp(tmpl);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
};

/** An entry exercising every serialized field with awkward values. */
CrystalEntry
sampleEntry()
{
    CrystalEntry e;
    e.workload = "Huffman variant \"quick\"";
    e.programHash = 0xdeadbeefcafef00dull;
    e.argsHash = 0x123456789abcdef0ull;
    e.configHash = 0x0fedcba987654321ull;
    e.predictedSpeedup = 2.3456789012345678;
    e.profilingSlowdown = 1.0789123456789;
    e.profilingCycles = 987654321012345ull;

    SelectedStl sel;
    sel.loopId = 7;
    sel.prediction.loopId = 7;
    sel.prediction.avgThreadSize = 289.875;
    sel.prediction.itersPerEntry = 333.333333333333333;
    sel.prediction.coverageCycles = std::nextafter(DBL_MAX, 0.0);
    sel.prediction.depFrequency = 0.1;
    sel.prediction.avgArcDistance = 1.5;
    sel.prediction.avgArcSlack = -0.0;
    sel.prediction.overflowFrequency = DBL_TRUE_MIN; // subnormal
    sel.prediction.avgLoadLines = 17;
    sel.prediction.avgStoreLines = 5;
    sel.prediction.predictedSpeedup = 2.3456789012345678;
    sel.prediction.predictedTlsCycles = 42625244.0;
    sel.prediction.eligible = true;
    sel.prediction.reason = "covered; slack ok";
    sel.plan.syncLock = true;
    sel.plan.syncLocalVar = 2;
    sel.plan.multilevel = true;
    sel.plan.multilevelInner = 9;
    sel.plan.hoistHandlers = true;
    e.selections.push_back(sel);
    return e;
}

/** Doubles must survive bit for bit, which == cannot tell for -0.0. */
void
expectSameBits(double a, double b)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << a << " vs " << b;
}

TEST(CrystalEntry, SerializationRoundTripsExactly)
{
    const CrystalEntry e = sampleEntry();
    CrystalEntry r;
    std::string err;
    ASSERT_TRUE(CrystalEntry::deserialize(e.serialize(), r, &err))
        << err;

    EXPECT_EQ(r.schemaVersion, e.schemaVersion);
    EXPECT_EQ(r.workload, e.workload);
    EXPECT_EQ(r.programHash, e.programHash);
    EXPECT_EQ(r.argsHash, e.argsHash);
    EXPECT_EQ(r.configHash, e.configHash);
    expectSameBits(r.predictedSpeedup, e.predictedSpeedup);
    expectSameBits(r.profilingSlowdown, e.profilingSlowdown);
    EXPECT_EQ(r.profilingCycles, e.profilingCycles);

    ASSERT_EQ(r.selections.size(), 1u);
    const SelectedStl &sa = e.selections[0];
    const SelectedStl &sb = r.selections[0];
    EXPECT_EQ(sb.loopId, sa.loopId);
    const StlPrediction &pa = sa.prediction, &pb = sb.prediction;
    EXPECT_EQ(pb.loopId, pa.loopId);
    for (auto f : {&StlPrediction::avgThreadSize,
                   &StlPrediction::itersPerEntry,
                   &StlPrediction::coverageCycles,
                   &StlPrediction::depFrequency,
                   &StlPrediction::avgArcDistance,
                   &StlPrediction::avgArcSlack,
                   &StlPrediction::overflowFrequency,
                   &StlPrediction::avgLoadLines,
                   &StlPrediction::avgStoreLines,
                   &StlPrediction::predictedSpeedup,
                   &StlPrediction::predictedTlsCycles})
        expectSameBits(pb.*f, pa.*f);
    EXPECT_TRUE(std::signbit(pb.avgArcSlack)) << "-0.0 lost its sign";
    EXPECT_EQ(pb.eligible, pa.eligible);
    EXPECT_EQ(sb.prediction.reason, sa.prediction.reason);
    EXPECT_EQ(sb.plan.syncLock, sa.plan.syncLock);
    EXPECT_EQ(sb.plan.syncLocalVar, sa.plan.syncLocalVar);
    EXPECT_EQ(sb.plan.multilevel, sa.plan.multilevel);
    EXPECT_EQ(sb.plan.multilevelInner, sa.plan.multilevelInner);
    EXPECT_EQ(sb.plan.hoistHandlers, sa.plan.hoistHandlers);
}

TEST(CrystalEntry, RejectsTruncation)
{
    const std::string text = sampleEntry().serialize();
    // Chop at several points including mid-checksum.
    for (std::size_t keep :
         {text.size() - 1, text.size() - 10, text.size() / 2,
          std::size_t{16}, std::size_t{0}}) {
        CrystalEntry out;
        std::string err;
        EXPECT_FALSE(CrystalEntry::deserialize(text.substr(0, keep),
                                               out, &err))
            << "accepted a " << keep << "-byte prefix";
    }
}

TEST(CrystalEntry, RejectsCorruption)
{
    const std::string text = sampleEntry().serialize();
    // Flip one byte in several places across the payload.
    for (std::size_t pos = 20; pos < text.size(); pos += 97) {
        std::string bad = text;
        bad[pos] ^= 0x20;
        if (bad == text)
            continue;
        CrystalEntry out;
        EXPECT_FALSE(CrystalEntry::deserialize(bad, out))
            << "accepted a flip at byte " << pos;
    }
}

TEST(CrystalEntry, RejectsSchemaMismatch)
{
    CrystalEntry e = sampleEntry();
    e.schemaVersion = 999;
    CrystalEntry out;
    std::string err;
    EXPECT_FALSE(CrystalEntry::deserialize(e.serialize(), out, &err));
    EXPECT_NE(err.find("schema version mismatch"), std::string::npos)
        << err;
}

TEST(CrystalEntry, StoresNoProfiles)
{
    // A warm start reads the selections, never TEST's raw profiles.
    const std::string text = sampleEntry().serialize();
    for (const char *name :
         {"profiles", "iterations", "depThreads", "arcSites", "threadSize"})
        EXPECT_EQ(text.find(name), std::string::npos) << name;
}

TEST(CrystalEntry, RejectsMissingOrMistypedMembers)
{
    const auto mutants = memberMutants(sampleEntry().serialize());
    // The entry's 10 members, the selection's 3, the prediction's 14
    // and the plan's 5.
    ASSERT_EQ(mutants.size(), 2u * 32);
    for (const auto &[what, text] : mutants) {
        CrystalEntry out;
        std::string err;
        EXPECT_FALSE(CrystalEntry::deserialize(text, out, &err))
            << "accepted an entry with " << what;
    }
}

TEST(CrystalEntry, MatchesComparesComponentHashes)
{
    const CrystalEntry e = sampleEntry();
    EXPECT_TRUE(e.matches(e.programHash, e.argsHash, e.configHash));
    EXPECT_FALSE(e.matches(e.programHash + 1, e.argsHash,
                           e.configHash));
    EXPECT_FALSE(e.matches(e.programHash, e.argsHash + 1,
                           e.configHash));
    EXPECT_FALSE(e.matches(e.programHash, e.argsHash,
                           e.configHash + 1));
}

TEST(CrystalFingerprint, SensitiveToEveryComponent)
{
    const std::uint64_t base = crystalFingerprint(1, 2, 3);
    EXPECT_NE(base, crystalFingerprint(2, 2, 3));
    EXPECT_NE(base, crystalFingerprint(1, 3, 3));
    EXPECT_NE(base, crystalFingerprint(1, 2, 4));
    EXPECT_EQ(base, crystalFingerprint(1, 2, 3));
}

TEST(CrystalFingerprint, SensitiveToProgramArgsAndConfig)
{
    Workload w = wl::workloadByName("Huffman");
    const std::uint64_t ph = hashProgram(w.program);

    BcProgram mutated = w.program;
    ASSERT_FALSE(mutated.methods.empty());
    ASSERT_FALSE(mutated.methods[0].code.empty());
    mutated.methods[0].code[0].imm ^= 1;
    EXPECT_NE(hashProgram(mutated), ph);

    EXPECT_NE(hashArgs({1, 2, 3}), hashArgs({1, 2, 4}));
    EXPECT_NE(hashArgs({1, 2, 3}), hashArgs({1, 2}));
    EXPECT_EQ(hashArgs({}), hashArgs({}));

    AnalyzerConfig an;
    TracerConfig tr;
    const std::uint64_t ch = hashAnalyzerConfig(an, tr);
    AnalyzerConfig an2 = an;
    an2.minPredictedSpeedup += 0.01;
    EXPECT_NE(hashAnalyzerConfig(an2, tr), ch);
    TracerConfig tr2 = tr;
    tr2.numBanks += 1;
    EXPECT_NE(hashAnalyzerConfig(an, tr2), ch);
}

TEST(CrystalRepo, StoreLookupInvalidate)
{
    TempDir td;
    CrystalRepo repo(td.path.string());
    const CrystalEntry e = sampleEntry();

    CrystalEntry out;
    EXPECT_FALSE(repo.lookup(e.fingerprint(), out));
    ASSERT_TRUE(repo.store(e));
    EXPECT_EQ(repo.size(), 1u);
    ASSERT_TRUE(repo.lookup(e.fingerprint(), out));
    EXPECT_EQ(out.workload, e.workload);
    EXPECT_EQ(out.predictedSpeedup, e.predictedSpeedup);

    EXPECT_TRUE(repo.invalidate(e.fingerprint()));
    EXPECT_FALSE(repo.invalidate(e.fingerprint()));
    EXPECT_FALSE(repo.lookup(e.fingerprint(), out));
    EXPECT_EQ(repo.size(), 0u);

    const CrystalStats st = repo.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.stores, 1u);
    EXPECT_EQ(st.invalidations, 1u);
}

TEST(CrystalRepo, RejectsDamagedFilesOnDisk)
{
    TempDir td;
    CrystalRepo repo(td.path.string());
    const CrystalEntry e = sampleEntry();
    ASSERT_TRUE(repo.store(e));

    const std::string path = repo.pathFor(e.fingerprint());
    std::string text;
    {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    {
        std::ofstream outf(path, std::ios::trunc);
        outf << text.substr(0, text.size() / 2);
    }
    CrystalEntry out;
    EXPECT_FALSE(repo.lookup(e.fingerprint(), out));
    EXPECT_GE(repo.stats().rejects, 1u);
}

TEST(CrystalRepo, QuarantinesCorruptEntriesAside)
{
    TempDir td;
    CrystalRepo repo(td.path.string());
    const CrystalEntry e = sampleEntry();
    ASSERT_TRUE(repo.store(e));

    const std::string path = repo.pathFor(e.fingerprint());
    {
        std::ofstream outf(path, std::ios::trunc);
        outf << "jrpm-crystal v1\ngarbage from a torn write\n";
    }

    // First lookup rejects and moves the poison aside...
    CrystalEntry out;
    EXPECT_FALSE(repo.lookup(e.fingerprint(), out));
    EXPECT_EQ(repo.stats().rejects, 1u);
    EXPECT_EQ(repo.stats().quarantined, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));

    // ...so the second lookup is a clean miss, not another reject,
    // and a fresh store + lookup works again.
    EXPECT_FALSE(repo.lookup(e.fingerprint(), out));
    EXPECT_EQ(repo.stats().rejects, 1u);
    ASSERT_TRUE(repo.store(e));
    EXPECT_TRUE(repo.lookup(e.fingerprint(), out));
    EXPECT_EQ(out.workload, e.workload);
}

TEST(CrystalRepo, RejectsAndQuarantinesTheOldTextSyntax)
{
    TempDir td;
    CrystalRepo repo(td.path.string());
    // An entry in the positional text syntax older builds wrote, with
    // a valid trailing checksum of that syntax.
    const std::uint64_t fp = crystalFingerprint(1, 2, 3);
    std::ofstream(repo.pathFor(fp))
        << "jrpm-crystal v1\nworkload 4 demo\n"
           "program 0000000000000001 args 0000000000000002 "
           "config 0000000000000003\n"
           "predicted 0x1p+0 slowdown 0x1p+0 profcycles 0\n"
           "profiles 0\nselections 0\nend ab77a1a807583729\n";

    CrystalEntry out;
    EXPECT_FALSE(repo.lookup(fp, out));
    EXPECT_EQ(repo.stats().rejects, 1u);
    EXPECT_EQ(repo.stats().quarantined, 1u);
    EXPECT_TRUE(std::filesystem::exists(repo.pathFor(fp) + ".corrupt"));
}

TEST(CrystalRepo, SweepsOnlyStaleWriterTempFiles)
{
    TempDir td;
    const CrystalEntry e = sampleEntry();
    {
        CrystalRepo first(td.path.string());
        ASSERT_TRUE(first.store(e));
    }

    // A crashed writer's leftover, quietly aging...
    const std::string stale =
        td.path.string() + "/0123456789abcdef.crystal.tmp.dead";
    // ...and a fresh one a live writer could still be filling.
    const std::string fresh =
        td.path.string() + "/fedcba9876543210.crystal.tmp.beef";
    for (const std::string &p : {stale, fresh})
        std::ofstream(p) << "partial";
    std::filesystem::last_write_time(
        stale, std::filesystem::file_time_type::clock::now() -
                   std::chrono::minutes(10));

    CrystalRepo repo(td.path.string());
    EXPECT_FALSE(std::filesystem::exists(stale));
    EXPECT_TRUE(std::filesystem::exists(fresh));
    EXPECT_EQ(repo.stats().tmpSwept, 1u);

    // The sweep never touched the real entry.
    CrystalEntry out;
    EXPECT_TRUE(repo.lookup(e.fingerprint(), out));
    EXPECT_EQ(repo.size(), 1u);
}

TEST(CrystalRepo, CapacityEvictsLeastRecentlyUsed)
{
    TempDir td;
    CrystalRepo repo(td.path.string());
    repo.setCapacity(3);
    EXPECT_EQ(repo.capacity(), 3u);

    // Four distinct entries with increasing mtimes.
    std::vector<std::uint64_t> fps;
    for (int i = 0; i < 4; ++i) {
        CrystalEntry e = sampleEntry();
        e.argsHash = static_cast<std::uint64_t>(i + 1);
        fps.push_back(e.fingerprint());
        if (i == 2)
            // Keep entry 0 warm: the LRU victim must be entry 1.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        ASSERT_TRUE(repo.store(e));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
        if (i == 2) {
            CrystalEntry hit;
            ASSERT_TRUE(repo.lookup(fps[0], hit));
        }
    }

    EXPECT_EQ(repo.size(), 3u);
    EXPECT_GE(repo.stats().evictions, 1u);
    CrystalEntry out;
    EXPECT_TRUE(repo.lookup(fps[0], out)) << "recently used";
    EXPECT_FALSE(repo.lookup(fps[1], out)) << "LRU victim";
    EXPECT_TRUE(repo.lookup(fps[2], out));
    EXPECT_TRUE(repo.lookup(fps[3], out));

    // Shrinking the cap evicts immediately.
    repo.setCapacity(1);
    EXPECT_EQ(repo.size(), 1u);
}

TEST(CrystalRepo, PublishesLiveMetrics)
{
    auto &reg = MetricsRegistry::global();
    reg.clear();
    TempDir td;
    CrystalRepo repo(td.path.string());
    repo.setCapacity(1);

    CrystalEntry a = sampleEntry();
    CrystalEntry b = sampleEntry();
    b.argsHash ^= 0x5555;

    CrystalEntry out;
    EXPECT_FALSE(repo.lookup(a.fingerprint(), out)); // miss
    ASSERT_TRUE(repo.store(a));
    EXPECT_TRUE(repo.lookup(a.fingerprint(), out)); // hit
    ASSERT_TRUE(repo.store(b));                     // evicts a
    ASSERT_TRUE(repo.invalidate(b.fingerprint()));

    EXPECT_EQ(reg.counter("crystal.misses").value(), 1u);
    EXPECT_EQ(reg.counter("crystal.hits").value(), 1u);
    EXPECT_EQ(reg.counter("crystal.stores").value(), 2u);
    EXPECT_EQ(reg.counter("crystal.evictions").value(), 1u);
    EXPECT_EQ(reg.counter("crystal.invalidations").value(), 1u);
    reg.clear();
}

TEST(CrystalRepo, WarmModeParsing)
{
    EXPECT_EQ(parseWarmMode("cold"), WarmMode::Cold);
    EXPECT_EQ(parseWarmMode("warm"), WarmMode::Warm);
    EXPECT_EQ(parseWarmMode("auto"), WarmMode::Auto);
    EXPECT_STREQ(warmModeName(WarmMode::Cold), "cold");
    EXPECT_STREQ(warmModeName(WarmMode::Warm), "warm");
    EXPECT_STREQ(warmModeName(WarmMode::Auto), "auto");
}

} // namespace
} // namespace jrpm

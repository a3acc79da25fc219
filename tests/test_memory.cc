/**
 * @file
 * Unit tests for main memory, the cache timing model, and the
 * speculative buffers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "memory/cache.hh"
#include "memory/main_memory.hh"
#include "memory/spec_state.hh"

namespace jrpm
{
namespace
{

TEST(MainMemory, WordByteHalfRoundTrip)
{
    MainMemory m(4096);
    m.writeWord(0x100, 0xdeadbeef);
    EXPECT_EQ(m.readWord(0x100), 0xdeadbeefu);
    // Little endian layout.
    EXPECT_EQ(m.readByte(0x100), 0xef);
    EXPECT_EQ(m.readByte(0x103), 0xde);
    EXPECT_EQ(m.readHalf(0x100), 0xbeef);
    EXPECT_EQ(m.readHalf(0x102), 0xdead);
    m.writeByte(0x100, 0x01);
    EXPECT_EQ(m.readWord(0x100), 0xdeadbe01u);
    m.writeHalf(0x102, 0x1234);
    EXPECT_EQ(m.readWord(0x100), 0x1234be01u);
}

TEST(MainMemory, ValidBounds)
{
    MainMemory m(64);
    EXPECT_TRUE(m.valid(0, 64));
    EXPECT_TRUE(m.valid(60, 4));
    EXPECT_FALSE(m.valid(61, 4));
    EXPECT_FALSE(m.valid(64, 1));
    // Wrap-around attempts must not pass.
    EXPECT_FALSE(m.valid(0xfffffffc, 8));
}

TEST(MainMemoryDeathTest, UnalignedPanics)
{
    MainMemory m(64);
    EXPECT_DEATH(m.readWord(2), "unaligned");
    EXPECT_DEATH(m.writeHalf(1, 0), "unaligned");
}

TEST(MainMemory, ClearZeroesRegion)
{
    MainMemory m(64);
    m.writeWord(8, 0xffffffff);
    m.clear(8, 4);
    EXPECT_EQ(m.readWord(8), 0u);
}

using SkipList = std::vector<std::pair<Addr, std::uint32_t>>;

/** FNV-1a over every byte outside @p skip, read one by one. */
std::uint64_t
byteLoopChecksum(const MainMemory &m, const SkipList &skip)
{
    Fnv1a h;
    for (Addr a = 0; a < m.size(); ++a) {
        bool skipped = false;
        for (const auto &[base, len] : skip)
            skipped |= a >= base && a - base < len;
        if (!skipped)
            h.byte(m.readByte(a));
    }
    return h.value();
}

/** Sorted, non-overlapping regions, some reaching past the image. */
SkipList
randomSkips(std::mt19937 &rng, std::uint32_t bytes)
{
    SkipList skip;
    Addr at = 0;
    const int n = static_cast<int>(rng() % 4);
    for (int i = 0; i < n; ++i) {
        at += rng() % (bytes / 2 + 1);
        const std::uint32_t len = 1 + rng() % (2 * MainMemory::kPageBytes);
        skip.emplace_back(at, len);
        at += len;
    }
    return skip;
}

TEST(MainMemory, ChecksumMatchesByteLoop)
{
    constexpr std::uint32_t kPage = MainMemory::kPageBytes;
    std::mt19937 rng(0x5eed);
    for (const std::uint32_t bytes :
         {1u, 100u, kPage, 3 * kPage + 123, 9 * kPage + 2}) {
        MainMemory m(bytes);
        EXPECT_EQ(m.checksum(), byteLoopChecksum(m, {}));
        for (int round = 0; round < 6; ++round) {
            for (int w = 0; w < 40; ++w) {
                const Addr a = rng() % bytes;
                const Word v = rng() % 3 ? rng() : 0;
                switch (rng() % 4) {
                  case 0:
                    if (m.valid(a & ~3u, 4))
                        m.writeWord(a & ~3u, v);
                    break;
                  case 1:
                    if (m.valid(a & ~1u, 2))
                        m.writeHalf(a & ~1u, static_cast<std::uint16_t>(v));
                    break;
                  case 2:
                    m.writeByte(a, static_cast<std::uint8_t>(v));
                    break;
                  default:
                    m.clear(a, std::min<std::uint32_t>(
                                   bytes - a, rng() % (2 * kPage)));
                    break;
                }
            }
            for (int k = 0; k < 4; ++k) {
                const SkipList skip = randomSkips(rng, bytes);
                EXPECT_EQ(m.checksum(skip), byteLoopChecksum(m, skip))
                    << bytes << " bytes, round " << round;
            }
        }
    }

    // A clear across page boundaries, a page written and zeroed
    // again, and a write into the short last page.
    MainMemory m(3 * kPage + 123);
    for (Addr a = 0; a < m.size(); a += 97)
        m.writeByte(a, static_cast<std::uint8_t>(a | 1));
    m.clear(kPage - 10, kPage + 20);
    m.writeWord(2 * kPage + 64, 0xdeadbeef);
    m.writeWord(2 * kPage + 64, 0);
    m.writeHalf(3 * kPage + 120, 0xbeef);
    const SkipList skip = {{kPage / 2, kPage}, {3 * kPage + 121, 1000}};
    EXPECT_EQ(m.checksum(), byteLoopChecksum(m, {}));
    EXPECT_EQ(m.checksum(skip), byteLoopChecksum(m, skip));
    MainMemory zeroed(3 * kPage);
    zeroed.writeWord(kPage, 7);
    zeroed.clear(0, 3 * kPage);
    EXPECT_EQ(zeroed.checksum(), MainMemory(3 * kPage).checksum());
}

TEST(MainMemory, EveryWriterMarksItsPage)
{
    constexpr std::uint32_t kPage = MainMemory::kPageBytes;
    constexpr Addr kAt = 2 * kPage + 0x40;
    const std::vector<std::pair<std::string,
                                std::function<void(MainMemory &)>>>
        writers = {
            {"writeWord", [](MainMemory &m) { m.writeWord(kAt, 0x5a); }},
            {"writeHalf", [](MainMemory &m) { m.writeHalf(kAt, 0x5a); }},
            {"writeByte", [](MainMemory &m) { m.writeByte(kAt, 0x5a); }},
            {"StoreBuffer::drainTo",
             [](MainMemory &m) {
                 StoreBuffer b;
                 b.write(kAt, 0x5a, 1);
                 b.drainTo(m);
             }},
        };
    const std::uint64_t fresh = MainMemory(4 * kPage).checksum();
    for (const auto &[name, write] : writers) {
        MainMemory m(4 * kPage);
        write(m);
        EXPECT_NE(m.checksum(), fresh) << name;
        const MemImage img = m.image();
        EXPECT_EQ(img.size(), 4 * kPage) << name;
        ASSERT_EQ(img.pages, std::vector<std::uint32_t>{2}) << name;
        EXPECT_EQ(img.page(0)[kAt % kPage], 0x5a) << name;
        const std::vector<std::uint8_t> dense = img;
        EXPECT_EQ(dense.size(), 4 * kPage) << name;
        EXPECT_EQ(dense[kAt], 0x5a) << name;
    }
}

TEST(CacheModel, HitAfterFill)
{
    CacheModel c(1024, 32, 2);
    EXPECT_FALSE(c.access(0x40));
    EXPECT_TRUE(c.access(0x40));
    EXPECT_TRUE(c.access(0x5c)); // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheModel, LruEvictionWithinSet)
{
    // 2-way, 32B lines, 1024B total -> 16 sets; lines mapping to the
    // same set are 16*32 = 512 bytes apart.
    CacheModel c(1024, 32, 2);
    EXPECT_FALSE(c.access(0x0));
    EXPECT_FALSE(c.access(0x200));
    EXPECT_TRUE(c.access(0x0));    // refresh LRU of line 0
    EXPECT_FALSE(c.access(0x400)); // evicts 0x200 (LRU)
    EXPECT_TRUE(c.access(0x0));
    EXPECT_FALSE(c.access(0x200)); // was evicted
}

TEST(CacheModel, InvalidateAndFlush)
{
    CacheModel c(1024, 32, 2);
    c.access(0x40);
    EXPECT_TRUE(c.probe(0x40));
    c.invalidate(0x44); // same line
    EXPECT_FALSE(c.probe(0x40));
    c.access(0x40);
    c.flush();
    EXPECT_FALSE(c.probe(0x40));
}

TEST(CacheModel, FullyAssociativeWhenAssocZero)
{
    CacheModel c(128, 32, 0); // 4 lines, one set
    c.access(0x0);
    c.access(0x1000);
    c.access(0x2000);
    c.access(0x3000);
    EXPECT_TRUE(c.probe(0x0));
    c.access(0x4000); // evicts LRU = 0x0
    EXPECT_FALSE(c.probe(0x0));
}

TEST(StoreBuffer, MergeOverUnderlying)
{
    StoreBuffer b;
    b.write(0x102, 0xab, 1);
    EXPECT_EQ(b.coverage(0x100, 4), Coverage::Partial);
    EXPECT_EQ(b.readMerge(0x100, 4, 0x11223344), 0x11ab3344u);
    b.write(0x100, 0xbeef, 2);
    EXPECT_EQ(b.readMerge(0x100, 4, 0x11223344), 0x11abbeefu);
    b.write(0x100, 0xcafebabe, 4);
    EXPECT_EQ(b.coverage(0x100, 4), Coverage::Full);
    EXPECT_EQ(b.readMerge(0x100, 4, 0), 0xcafebabeu);
}

TEST(StoreBuffer, OverflowAtCapacity)
{
    SpecBufferConfig cfg;
    cfg.storeBufferLines = 4;
    StoreBuffer b(cfg);
    for (Addr a = 0; a < 4 * 32; a += 32)
        b.write(a, 1, 4);
    EXPECT_EQ(b.lineCount(), 4u);
    EXPECT_FALSE(b.wouldOverflow(0x20)); // existing line
    EXPECT_TRUE(b.wouldOverflow(0x1000)); // new line
}

TEST(StoreBuffer, DrainCommitsBytesAndClears)
{
    MainMemory m(4096);
    m.writeWord(0x40, 0x11223344);
    StoreBuffer b;
    b.write(0x41, 0xff, 1);
    b.drainTo(m);
    EXPECT_EQ(m.readWord(0x40), 0x1122ff44u);
    EXPECT_TRUE(b.empty());
}

TEST(StoreBuffer, BufferedLinesEnumerates)
{
    StoreBuffer b;
    b.write(0x20, 1, 4);
    b.write(0x100, 2, 4);
    auto lines = b.bufferedLines();
    EXPECT_EQ(lines.size(), 2u);
}

TEST(SpecTags, ReadBeforeWriteSemantics)
{
    SpecTags t;
    EXPECT_TRUE(t.recordLoad(0x100, false));
    EXPECT_TRUE(t.readBeforeWrite(0x100));
    EXPECT_TRUE(t.readBeforeWrite(0x102)); // same word
    EXPECT_FALSE(t.readBeforeWrite(0x104));

    // Write-then-read is not RAW-vulnerable.
    t.recordStore(0x200);
    EXPECT_TRUE(t.recordLoad(0x200, true));
    EXPECT_FALSE(t.readBeforeWrite(0x200));
    EXPECT_TRUE(t.writtenLocally(0x200));
}

TEST(SpecTags, LoadBufferSetConflictOverflow)
{
    SpecBufferConfig cfg;
    cfg.loadBufferLines = 8;
    cfg.loadBufferAssoc = 2; // 4 sets
    SpecTags t(cfg);
    // Two lines in set 0 are fine; the third overflows.
    EXPECT_TRUE(t.recordLoad(0 * 4 * 32, false));
    EXPECT_TRUE(t.recordLoad(1 * 4 * 32, false));
    EXPECT_FALSE(t.recordLoad(2 * 4 * 32, false));
    // A line in another set still fits.
    EXPECT_TRUE(t.recordLoad(32, false));
    EXPECT_EQ(t.readLineCount(), 3u);
}

TEST(SpecTags, ClearResetsEverything)
{
    SpecTags t;
    t.recordLoad(0x100, false);
    t.recordStore(0x104);
    t.clear();
    EXPECT_FALSE(t.readBeforeWrite(0x100));
    EXPECT_FALSE(t.writtenLocally(0x104));
    EXPECT_EQ(t.readLineCount(), 0u);
}

} // namespace
} // namespace jrpm

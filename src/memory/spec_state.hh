/**
 * @file
 * Per-CPU speculative memory state: the secondary-cache store buffer
 * and the L1 speculation tag bits (Hydra TLS hardware, §2 / Fig. 2).
 *
 * Per-thread hardware limits from the paper:
 *   - load buffer:  16 kB = 512 lines x 32 B, 4-way associative
 *     (speculatively-read lines are pinned in the L1; a 5th read line
 *     mapping to the same set cannot be tracked and overflows),
 *   - store buffer: 2 kB = 64 lines x 32 B, fully associative.
 */

#ifndef JRPM_MEMORY_SPEC_STATE_HH
#define JRPM_MEMORY_SPEC_STATE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/flat_addr.hh"
#include "common/types.hh"

namespace jrpm
{

class MainMemory;

/** Geometry and limits of the speculative buffers. */
struct SpecBufferConfig
{
    static constexpr std::uint32_t lineBytes = 32;

    std::uint32_t storeBufferLines = 64;   ///< fully associative
    std::uint32_t loadBufferLines = 512;   ///< total lines trackable
    std::uint32_t loadBufferAssoc = 4;     ///< per-set limit
};

/** Coverage of a buffered read. */
enum class Coverage { None, Partial, Full };

/**
 * Conservative membership filter over addresses (a one-hash Bloom
 * bitset).  Inserted keys always test positive (no false negatives);
 * aliasing can yield false positives, which cost only a fallback to
 * the exact scan they guard.  Sized so clear() is a small memset.
 */
template <unsigned BitsLog2>
class AddrSignature
{
  public:
    void
    insert(Addr key)
    {
        const std::uint64_t b = bitOf(key);
        words[b >> 6] |= 1ull << (b & 63);
        nonEmpty = true;
    }

    bool
    mayContain(Addr key) const
    {
        if (!nonEmpty)
            return false;
        const std::uint64_t b = bitOf(key);
        return (words[b >> 6] >> (b & 63)) & 1;
    }

    void
    clear()
    {
        if (!nonEmpty)
            return;
        words.fill(0);
        nonEmpty = false;
    }

  private:
    static std::uint64_t
    bitOf(Addr key)
    {
        // Fibonacci hash: line/word bases are multiples of a power of
        // two, so the multiply spreads them over the full bit range.
        return (static_cast<std::uint64_t>(key) *
                0x9E3779B97F4A7C15ull) >> (64 - BitsLog2);
    }

    std::array<std::uint64_t, (1u << BitsLog2) / 64> words{};
    bool nonEmpty = false;
};

/**
 * Speculative store buffer: holds a thread's writes at byte
 * granularity until commit or squash.
 */
class StoreBuffer
{
  public:
    explicit StoreBuffer(const SpecBufferConfig &cfg = {});

    /**
     * True if writing to @p addr would require a new line beyond the
     * hardware capacity (the thread must then stall until it is the
     * head and can write through).
     */
    bool wouldOverflow(Addr addr) const;

    /** Buffer a write of @p len bytes (1, 2 or 4) of @p value. */
    void write(Addr addr, Word value, std::uint32_t len);

    /** How much of [addr, addr+len) the buffer covers. */
    Coverage coverage(Addr addr, std::uint32_t len) const;

    /**
     * Read @p len bytes, taking buffered bytes where present and
     * bytes of @p underlying (the value from memory or a
     * less-speculative buffer) elsewhere.
     */
    Word readMerge(Addr addr, std::uint32_t len, Word underlying) const;

    /** Drain all buffered bytes into @p mem (commit). */
    void drainTo(MainMemory &mem);

    /** Discard everything (squash). */
    void clear();

    std::size_t lineCount() const { return lines.size(); }
    bool empty() const { return lines.empty(); }

    /**
     * True if the buffer *may* hold bytes of the line containing
     * @p addr (write-set signature probe).  Never false when the line
     * is buffered; a false positive only sends the caller to the
     * exact coverage scan.
     */
    bool
    writeSigHit(Addr addr) const
    {
        return writeSig.mayContain(lineBase(addr));
    }

    /** Distinct buffered line addresses (TEST reuses the buffers). */
    std::vector<Addr> bufferedLines() const;

    /**
     * Override the usable line capacity downward (fault injection:
     * a failing buffer bank).  0 restores the configured capacity;
     * values above the configured capacity are clamped to it.
     */
    void limitLines(std::uint32_t lines);

    /**
     * Flip one bit of one currently-buffered byte (fault injection:
     * a soft error in the speculative buffer before commit).  The
     * victim byte is chosen deterministically from @p pick.
     * @return true and the corrupted address if any byte was
     *         buffered; false on an empty buffer.
     */
    bool corruptOneByte(std::uint64_t pick, Addr &corrupted);

  private:
    struct Line
    {
        std::uint32_t mask = 0;               ///< one bit per byte
        std::array<std::uint8_t, 32> bytes{};
    };

    SpecBufferConfig config;
    std::uint32_t lineLimit = 0;              ///< 0 = configured cap
    FlatAddrMap<Line> lines{128};             ///< keyed by line base
    /** Line-granular write-set signature: 1024 bits covers the 64-line
     *  hardware buffer at a ~6% worst-case fill. */
    AddrSignature<10> writeSig;

    Addr lineBase(Addr addr) const
    {
        return addr & ~(config.lineBytes - 1);
    }
};

/**
 * L1 speculation tag bits for one CPU: which words were read before
 * being locally written (RAW-vulnerable), plus load-buffer capacity
 * accounting at line/set granularity.
 */
class SpecTags
{
  public:
    explicit SpecTags(const SpecBufferConfig &cfg = {});

    /**
     * Record a speculative load of the word containing @p addr.
     * @param locally_written true if this thread already wrote the
     *        word (then the load reads its own value and is not
     *        RAW-vulnerable).
     * @return false if tracking the line would exceed the load-buffer
     *         capacity (speculative state overflow).
     */
    bool recordLoad(Addr addr, bool locally_written);

    /**
     * Record a load unconditionally, even beyond the hardware
     * capacity (trap microcode cannot stall mid-operation; the CPU
     * pays the overflow stall at the next instruction boundary).
     */
    void forceRecordLoad(Addr addr, bool locally_written);

    /** Record a speculative store to the word containing @p addr. */
    void recordStore(Addr addr);

    /** True if the word containing @p addr was read before written. */
    bool readBeforeWrite(Addr addr) const;

    /** True if this thread wrote any byte of the word at @p addr. */
    bool writtenLocally(Addr addr) const;

    /**
     * True if this thread *may* have read the word containing @p addr
     * before writing it (read-set signature probe).  Never false when
     * readBeforeWrite() is true; a false positive only sends the
     * caller to the exact per-word broadcast.
     */
    bool
    readSigHit(Addr addr) const
    {
        return readSig.mayContain(wordBase(addr));
    }

    /**
     * True if recordLoad(addr, false) would succeed without
     * overflowing the load buffer (the line is already pinned or
     * capacity remains); does not modify state.
     */
    bool canRecordLoad(Addr addr) const;

    /** Clear all tag bits (end of iteration / squash). */
    void clear();

    std::size_t readLineCount() const { return totalReadLines; }

  private:
    static constexpr std::uint8_t kRead = 1;
    static constexpr std::uint8_t kWritten = 2;

    SpecBufferConfig config;
    std::uint32_t numSets;
    FlatAddrMap<std::uint8_t> wordFlags{8192};
    /** per-L1-set count of distinct speculatively-read lines */
    std::vector<std::uint32_t> readLinesPerSet;
    FlatAddrSet readLines{1024};
    std::size_t totalReadLines = 0;
    /** Word-granular read-set signature: 8192 bits covers the 4096
     *  words a maximally-pinned load buffer can flag as RAW-read. */
    AddrSignature<13> readSig;

    Addr wordBase(Addr addr) const { return addr & ~3u; }
    Addr lineBase(Addr addr) const
    {
        return addr & ~(config.lineBytes - 1);
    }
    std::uint32_t setOf(Addr addr) const
    {
        return (addr / config.lineBytes) & (numSets - 1);
    }
};

} // namespace jrpm

#endif // JRPM_MEMORY_SPEC_STATE_HH

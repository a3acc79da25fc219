/**
 * @file
 * Flat simulated main memory of the Hydra CMP.
 *
 * Architectural state lives here; speculative state lives in the
 * per-CPU store buffers until it commits (ASPLOS'98 Hydra data
 * speculation design).  Little-endian, 32-bit address space.
 */

#ifndef JRPM_MEMORY_MAIN_MEMORY_HH
#define JRPM_MEMORY_MAIN_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace jrpm
{

struct MemImage;

/**
 * Byte-addressable simulated DRAM.
 *
 * The image is an anonymous mapping of its own, so construction costs
 * microseconds whatever the size and the kernel faults in only the
 * pages the guest touches.  (calloc promises the same only while the
 * request is above glibc's dynamic mmap threshold; once a freed 8 MB
 * block has raised the threshold, it serves 8 MB images from the heap
 * and memsets all of them.)
 *
 * Like Hydra's store buffers, which know exactly which lines a thread
 * wrote, the memory keeps one dirty flag per page, set by every
 * writer.  A clean page is still the mapping's zeros, so the oracle's
 * checksum, snapshot and compare cost only the pages a run wrote.
 */
class MainMemory
{
  public:
    /** Dirty-tracking granule. */
    static constexpr std::uint32_t kPageBytes = 4096;

    /** @param bytes size of the simulated physical memory */
    explicit MainMemory(std::uint32_t bytes);
    ~MainMemory();

    MainMemory(const MainMemory &) = delete;
    MainMemory &operator=(const MainMemory &) = delete;

    std::uint32_t size() const { return nBytes; }

    /** True if [addr, addr+len) lies inside the simulated memory. */
    bool
    valid(Addr addr, std::uint32_t len = 1) const
    {
        return addr <= nBytes && len <= nBytes - addr;
    }

    /** Read an aligned 32-bit word. */
    Word readWord(Addr addr) const;
    /** Write an aligned 32-bit word. */
    void writeWord(Addr addr, Word value);

    std::uint8_t readByte(Addr addr) const;
    void writeByte(Addr addr, std::uint8_t value);

    std::uint16_t readHalf(Addr addr) const;
    void writeHalf(Addr addr, std::uint16_t value);

    /** Zero-fill a region (heap initialization). */
    void clear(Addr addr, std::uint32_t len);

    /** Copy of the written pages (differential oracle snapshots). */
    MemImage image() const;

    /**
     * FNV-1a 64-bit checksum of the whole image, skipping the given
     * [base, base+len) regions.  @p skip must be sorted by base and
     * non-overlapping.  Clean pages cost one multiply per run of
     * them; the value is the byte loop's.
     */
    std::uint64_t
    checksum(const std::vector<std::pair<Addr, std::uint32_t>> &skip =
                 {}) const;

  private:
    /** Mark the page holding @p addr as possibly non-zero. */
    void touch(Addr addr) { dirty[addr / kPageBytes] = 1; }

    std::uint8_t *data = nullptr; ///< own anonymous mapping
    std::uint32_t nBytes = 0;
    /** One flag per page, set by every writer.  A clean page is
     *  zero. */
    std::vector<std::uint8_t> dirty;
};

/**
 * Sparse copy of a MainMemory image: its dirty pages in address
 * order.  Every byte outside them is zero.
 */
struct MemImage
{
    std::uint32_t bytes = 0;          ///< size of the whole image
    std::vector<std::uint32_t> pages; ///< page numbers, ascending
    /** The pages' bytes, MainMemory::kPageBytes each in the order of
     *  @c pages; the image's last page may be short. */
    std::vector<std::uint8_t> data;

    std::uint32_t size() const { return bytes; }

    /** First address of held page @p k. */
    Addr
    base(std::size_t k) const
    {
        return pages[k] * MainMemory::kPageBytes;
    }

    /** The bytes of held page @p k. */
    std::span<const std::uint8_t>
    page(std::size_t k) const
    {
        const std::uint32_t len =
            std::min(MainMemory::kPageBytes, bytes - base(k));
        return {data.data() + k * MainMemory::kPageBytes, len};
    }

    /** The dense image. */
    operator std::vector<std::uint8_t>() const;
};

} // namespace jrpm

#endif // JRPM_MEMORY_MAIN_MEMORY_HH

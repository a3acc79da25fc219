#include "main_memory.hh"

#include <algorithm>
#include <cstring>

#include <sys/mman.h>

#include "common/hash.hh"
#include "common/logging.hh"

namespace jrpm
{

MainMemory::MainMemory(std::uint32_t bytes)
    : nBytes(bytes),
      dirty((std::uint64_t{bytes} + kPageBytes - 1) / kPageBytes)
{
    void *p = mmap(nullptr, bytes ? bytes : 1, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        fatal("cannot map %u bytes of simulated memory", bytes);
    data = static_cast<std::uint8_t *>(p);
}

MainMemory::~MainMemory()
{
    munmap(data, nBytes ? nBytes : 1);
}

Word
MainMemory::readWord(Addr addr) const
{
    if (addr % 4 != 0)
        panic("unaligned word read at 0x%08x", addr);
    if (!valid(addr, 4))
        panic("word read out of range at 0x%08x", addr);
    return static_cast<Word>(data[addr]) |
           static_cast<Word>(data[addr + 1]) << 8 |
           static_cast<Word>(data[addr + 2]) << 16 |
           static_cast<Word>(data[addr + 3]) << 24;
}

void
MainMemory::writeWord(Addr addr, Word value)
{
    if (addr % 4 != 0)
        panic("unaligned word write at 0x%08x", addr);
    if (!valid(addr, 4))
        panic("word write out of range at 0x%08x", addr);
    touch(addr);
    data[addr] = static_cast<std::uint8_t>(value);
    data[addr + 1] = static_cast<std::uint8_t>(value >> 8);
    data[addr + 2] = static_cast<std::uint8_t>(value >> 16);
    data[addr + 3] = static_cast<std::uint8_t>(value >> 24);
}

std::uint8_t
MainMemory::readByte(Addr addr) const
{
    if (!valid(addr, 1))
        panic("byte read out of range at 0x%08x", addr);
    return data[addr];
}

void
MainMemory::writeByte(Addr addr, std::uint8_t value)
{
    if (!valid(addr, 1))
        panic("byte write out of range at 0x%08x", addr);
    touch(addr);
    data[addr] = value;
}

std::uint16_t
MainMemory::readHalf(Addr addr) const
{
    if (addr % 2 != 0)
        panic("unaligned half read at 0x%08x", addr);
    if (!valid(addr, 2))
        panic("half read out of range at 0x%08x", addr);
    return static_cast<std::uint16_t>(
        data[addr] | data[addr + 1] << 8);
}

void
MainMemory::writeHalf(Addr addr, std::uint16_t value)
{
    if (addr % 2 != 0)
        panic("unaligned half write at 0x%08x", addr);
    if (!valid(addr, 2))
        panic("half write out of range at 0x%08x", addr);
    touch(addr);
    data[addr] = static_cast<std::uint8_t>(value);
    data[addr + 1] = static_cast<std::uint8_t>(value >> 8);
}

void
MainMemory::clear(Addr addr, std::uint32_t len)
{
    if (!valid(addr, len))
        panic("clear out of range at 0x%08x+%u", addr, len);
    if (len == 0)
        return;
    std::fill(dirty.begin() + addr / kPageBytes,
              dirty.begin() + (addr + len - 1) / kPageBytes + 1, 1);
    std::memset(data + addr, 0, len);
}

std::uint64_t
MainMemory::checksum(
    const std::vector<std::pair<Addr, std::uint32_t>> &skip) const
{
    Fnv1a h;
    std::size_t at = 0;
    // Hash [begin, end) a run of equally clean or dirty pages at a
    // time: dirty bytes one by one, clean (zero) bytes in one step.
    auto mix = [&](std::size_t begin, std::size_t end) {
        while (begin < end) {
            const std::uint8_t written = dirty[begin / kPageBytes];
            std::size_t stop = begin;
            do
                stop = std::min<std::size_t>(
                    end, (stop / kPageBytes + 1) * kPageBytes);
            while (stop < end && dirty[stop / kPageBytes] == written);
            if (written)
                h.bytes(data + begin, stop - begin);
            else
                h.zeros(stop - begin);
            begin = stop;
        }
    };
    for (const auto &[base, len] : skip) {
        const std::size_t lo = std::min<std::size_t>(base, nBytes);
        const std::size_t hi = std::min<std::size_t>(
            static_cast<std::size_t>(base) + len, nBytes);
        if (lo < at)
            panic("checksum skip regions unsorted at 0x%08x", base);
        mix(at, lo);
        at = hi;
    }
    mix(at, nBytes);
    return h.value();
}

MemImage
MainMemory::image() const
{
    MemImage img;
    img.bytes = nBytes;
    for (std::uint32_t p = 0; p < dirty.size(); ++p) {
        if (!dirty[p])
            continue;
        img.pages.push_back(p);
        const std::size_t base = std::size_t{p} * kPageBytes;
        img.data.insert(img.data.end(), data + base,
                        data + std::min<std::size_t>(nBytes,
                                                     base + kPageBytes));
    }
    return img;
}

MemImage::operator std::vector<std::uint8_t>() const
{
    std::vector<std::uint8_t> dense(bytes);
    for (std::size_t k = 0; k < pages.size(); ++k)
        std::ranges::copy(page(k), dense.begin() + base(k));
    return dense;
}

} // namespace jrpm

/**
 * @file
 * Shared FNV-1a 64-bit hashing.
 *
 * One incremental hasher serves every fingerprinting need in the
 * stack: the oracle's memory-image checksum, the crystal repository's
 * workload fingerprints, and the serialization-integrity checksums of
 * persisted decomposition entries.  Multi-byte values are mixed
 * little-endian so fingerprints are stable across hosts; doubles are
 * mixed by bit pattern so they are exact.
 */

#ifndef JRPM_COMMON_HASH_HH
#define JRPM_COMMON_HASH_HH

#include <cstdint>
#include <cstring>
#include <string>

namespace jrpm
{

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** Incremental FNV-1a 64-bit hasher. */
class Fnv1a
{
  public:
    Fnv1a &
    byte(std::uint8_t b)
    {
        h ^= b;
        h *= kFnvPrime;
        return *this;
    }

    Fnv1a &
    bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const std::uint8_t *>(p);
        for (std::size_t i = 0; i < n; ++i)
            byte(c[i]);
        return *this;
    }

    /** bytes() over @p n zero bytes, in O(log n) multiplies: hashing
     *  a zero byte only multiplies by the prime, so n of them
     *  multiply by prime^n (mod 2^64). */
    Fnv1a &
    zeros(std::uint64_t n)
    {
        for (std::uint64_t p = kFnvPrime; n; n >>= 1, p *= p)
            if (n & 1)
                h *= p;
        return *this;
    }

    Fnv1a &
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
        return *this;
    }

    Fnv1a &
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
        return *this;
    }

    Fnv1a &
    i32(std::int32_t v)
    {
        return u32(static_cast<std::uint32_t>(v));
    }

    Fnv1a &
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return u64(bits);
    }

    Fnv1a &
    boolean(bool v)
    {
        return byte(v ? 1 : 0);
    }

    /** Length-prefixed so "ab"+"c" != "a"+"bc". */
    Fnv1a &
    str(const std::string &s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = kFnvOffsetBasis;
};

/** One-shot convenience over a byte range. */
inline std::uint64_t
fnv1a(const void *p, std::size_t n)
{
    return Fnv1a().bytes(p, n).value();
}

} // namespace jrpm

#endif // JRPM_COMMON_HASH_HH

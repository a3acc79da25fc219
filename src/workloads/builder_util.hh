/**
 * @file
 * Shared bytecode-construction helpers for the benchmark analogues:
 * structured loops, deterministic LCG randomness, checksum folding.
 */

#ifndef JRPM_WORKLOADS_BUILDER_UTIL_HH
#define JRPM_WORKLOADS_BUILDER_UTIL_HH

#include <functional>

#include "bytecode/bytecode.hh"
#include "core/jrpm.hh"

namespace jrpm
{
namespace wl
{

/**
 * Emit `for (i = start; i < limit_slot; i += step) body()`.
 * The loop variable lives in @p i_slot; the limit is read from
 * @p limit_slot once per iteration (the JIT hoists it).
 */
inline void
forTo(BcBuilder &b, std::uint32_t i_slot, std::int32_t start,
      std::uint32_t limit_slot, std::int32_t step,
      const std::function<void()> &body)
{
    auto top = b.newLabel(), exit = b.newLabel();
    b.iconst(start);
    b.store(i_slot);
    b.bind(top);
    b.load(i_slot);
    b.load(limit_slot);
    b.br(Bc::IF_ICMPGE, exit);
    body();
    b.iinc(i_slot, step);
    b.br(Bc::GOTO, top);
    b.bind(exit);
}

/** forTo against a constant limit staged into a scratch slot. */
inline void
forToConst(BcBuilder &b, std::uint32_t i_slot, std::int32_t start,
           std::int32_t limit, std::uint32_t scratch_slot,
           std::int32_t step, const std::function<void()> &body)
{
    b.iconst(limit);
    b.store(scratch_slot);
    forTo(b, i_slot, start, scratch_slot, step, body);
}

/**
 * Emit the LCG step `seed_slot = seed_slot * 1103515245 + 12345`
 * leaving `(seed >> 16) & 0x7fff` on the stack.
 */
inline void
lcgNext(BcBuilder &b, std::uint32_t seed_slot)
{
    b.load(seed_slot);
    b.iconst(1103515245);
    b.emit(Bc::IMUL);
    b.iconst(12345);
    b.emit(Bc::IADD);
    b.store(seed_slot);
    b.load(seed_slot);
    b.iconst(16);
    b.emit(Bc::IUSHR);
    b.iconst(0x7fff);
    b.emit(Bc::IAND);
}

/**
 * Fold the value on the stack into checksum_slot.  Deliberately the
 * canonical `s = s + v` accumulation shape: the TLS compiler turns it
 * into a per-CPU reduction (§4.2.5), just as the originals' result
 * accumulations do not serialize their loops.  Wrap-around on
 * overflow is deterministic and harmless.
 */
inline void
foldChecksum(BcBuilder &b, std::uint32_t checksum_slot)
{
    b.load(checksum_slot);
    b.emit(Bc::IADD);
    b.store(checksum_slot);
}

/**
 * Push a pseudo-random value derived purely from the loop index in
 * @p i_slot (15-bit range, like lcgNext).  Data-initialization loops
 * use this instead of a carried LCG chain: filling input arrays is
 * the analogue of loading benchmark input, not of the benchmark's
 * own serial computation, and must not serialize under TLS.
 * @param salt decorrelates multiple draws in one iteration
 */
inline void
hashOfIndex(BcBuilder &b, std::uint32_t i_slot,
            std::int32_t salt = 0)
{
    b.load(i_slot);
    if (salt) {
        b.iconst(salt);
        b.emit(Bc::IADD);
    }
    b.iconst(static_cast<std::int32_t>(0x9e3779b1u));
    b.emit(Bc::IMUL);
    b.iconst(16);
    b.emit(Bc::IUSHR);
    b.iconst(0x7fff);
    b.emit(Bc::IAND);
}

/**
 * Emit a serial "entropy decode" pass: a carried state chain over a
 * word array that perturbs it in place.  This is the analogue of the
 * bitstream/huffman decoding the real media benchmarks spend their
 * serial fraction in (Table 3 column i) — inherently sequential, so
 * TEST correctly refuses to speculate on it.
 * Clobbers nothing on the stack; uses i_slot as the loop counter.
 */
inline void
serialMix(BcBuilder &b, std::uint32_t arr_slot,
          std::uint32_t len_slot, std::uint32_t state_slot,
          std::uint32_t i_slot, std::uint32_t limit_slot,
          int shift = 0)
{
    b.load(len_slot);
    if (shift) {
        b.iconst(shift);
        b.emit(Bc::IUSHR);
    }
    b.store(limit_slot);
    b.iconst(1);
    b.store(state_slot);
    forTo(b, i_slot, 0, limit_slot, 1, [&] {
        // state = state*33025 + arr[i]
        b.load(state_slot);
        b.iconst(33025);
        b.emit(Bc::IMUL);
        b.load(arr_slot);
        b.load(i_slot);
        b.emit(Bc::IALOAD);
        b.emit(Bc::IADD);
        b.iconst(0xffffff);
        b.emit(Bc::IAND);
        b.store(state_slot);
        // arr[i] += state & 15
        b.load(arr_slot);
        b.load(i_slot);
        b.load(arr_slot);
        b.load(i_slot);
        b.emit(Bc::IALOAD);
        b.load(state_slot);
        b.iconst(15);
        b.emit(Bc::IAND);
        b.emit(Bc::IADD);
        b.emit(Bc::IASTORE);
    });
}

/** Convenience constructor for a Workload record. */
inline Workload
make(std::string name, std::string category, std::string description,
     BcProgram prog, std::vector<Word> main_args,
     std::vector<Word> profile_args = {})
{
    Workload w;
    w.name = std::move(name);
    w.category = std::move(category);
    w.description = std::move(description);
    w.program = std::move(prog);
    w.mainArgs = std::move(main_args);
    w.profileArgs = std::move(profile_args);
    return w;
}

} // namespace wl
} // namespace jrpm

#endif // JRPM_WORKLOADS_BUILDER_UTIL_HH

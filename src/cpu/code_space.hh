/**
 * @file
 * The dynamically-compiled code space: all native methods the JIT has
 * produced, addressed by method id.  A 32-bit program counter encodes
 * (method id << 20) | instruction index, which is what JAL writes to
 * $ra and JR decodes.
 */

#ifndef JRPM_CPU_CODE_SPACE_HH
#define JRPM_CPU_CODE_SPACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace jrpm
{

/** A decoded program counter. */
struct Pc
{
    std::uint32_t method = 0;
    std::int32_t index = 0;

    bool
    operator==(const Pc &o) const
    {
        return method == o.method && index == o.index;
    }
};

/** Encode a Pc into the 32-bit register representation. */
inline Word
encodePc(Pc pc)
{
    return (pc.method << 20) | static_cast<std::uint32_t>(pc.index);
}

/** Decode a 32-bit register value into a Pc. */
inline Pc
decodePc(Word w)
{
    return {w >> 20, static_cast<std::int32_t>(w & 0xfffff)};
}

/** Container of all compiled methods. */
class CodeSpace
{
  public:
    /** Install a method; assigns and returns its method id. */
    std::uint32_t install(NativeCode code);

    /** Replace an already-installed method (dynamic recompilation). */
    void replace(std::uint32_t method_id, NativeCode code);

    const NativeCode &method(std::uint32_t method_id) const;
    NativeCode &method(std::uint32_t method_id);

    std::uint32_t numMethods() const
    {
        return static_cast<std::uint32_t>(methods.size());
    }

    /**
     * Monotonic counter bumped whenever installed code changes
     * (install or replace).  Consumers caching raw pointers into a
     * method's instruction array revalidate against it: both paths
     * can reallocate the underlying storage.
     */
    std::uint64_t generation() const { return gen; }

  private:
    std::vector<NativeCode> methods;
    std::uint64_t gen = 1;
};

} // namespace jrpm

#endif // JRPM_CPU_CODE_SPACE_HH

/**
 * @file
 * The microJIT dynamic compiler (§4 of the Jrpm paper): translates
 * bytecode to the CMP's native ISA in three modes —
 *
 *  - Plain: straight sequential code,
 *  - Profiling: sequential code with TEST annotations (Table 2 /
 *    Fig. 3): `sloop`/`eoi`/`eloop` around every natural loop and
 *    `lwl`/`swl` on register-allocated local-variable accesses,
 *  - Tls: selected loops recompiled into speculative thread loops
 *    (Fig. 4) with the §4.2 optimizations: loop-invariant register
 *    allocation, (reset-able) non-communicating loop inductors,
 *    thread synchronizing locks, reduction operators, multilevel STL
 *    decompositions and hoisted startup/shutdown handlers.
 *
 * Locals are register-allocated to callee-saved registers method-wide
 * (the hottest locals by loop-weighted access count); everything else
 * lives in stack homes.  Expression evaluation uses the $t registers
 * as a stack, folding constants on the fly.
 */

#ifndef JRPM_JIT_COMPILER_HH
#define JRPM_JIT_COMPILER_HH

#include <cstdint>
#include <map>
#include <vector>

#include "bytecode/bytecode.hh"
#include "cpu/code_space.hh"
#include "jit/loops.hh"
#include "profile/analyzer.hh"

namespace jrpm
{

/** Compilation mode (Fig. 1 steps 1, 2 and 4). */
enum class CompileMode
{
    Plain,      ///< no annotations, no speculation
    Profiling,  ///< annotated for TEST
    Tls,        ///< selected loops become STLs
};

/** Optimization switches (ablations toggle these). */
struct JitConfig
{
    /** Cache hot locals in callee-saved registers. */
    bool optLoopRegCache = true;
    /** §4.2.1: keep loop invariants in registers across iterations
     *  (off: reload from the stack at every use inside STL bodies). */
    bool optLoopInvariantRegs = true;
    /** §4.2.2/§4.2.3: non-communicating (reset-able) inductors
     *  (off: inductors are communicated like any carried local). */
    bool optLocalInductors = true;
    /** §4.2.3 only: reset-able inductors (off: a mostly-inductor
     *  local with occasional resets is communicated instead). */
    bool optResetableInductors = true;
    /** §4.2.5: reduction operator optimization. */
    bool optReductions = true;
    /** §4.2.4: honor sync-lock plans (off: ignore them). */
    bool optSyncLocks = true;
    /** §4.2.6: honor multilevel plans (off: ignore them). */
    bool optMultilevel = true;
    /** §4.2.7: honor hoisted-handler plans (off: full costs). */
    bool optHoistHandlers = true;
    /** Inline tiny leaf methods at the bytecode level. */
    bool inlineSmallMethods = true;
    std::uint32_t inlineMaxBytecodes = 16;
    /** CPUs in the target CMP (round-robin iteration stride). */
    std::uint32_t numCpus = 4;
};

/** A loop chosen for TLS compilation, with its optimization plan. */
struct StlRequest
{
    std::int32_t loopId = -1;
    OptPlan plan;
};

/** The dynamic compiler. */
class Jit
{
  public:
    /**
     * Analyze a program: inline small methods, then find every
     * natural loop (the prospective STLs).
     */
    Jit(const BcProgram &program, const JitConfig &cfg = {});

    /**
     * Compile all methods into @p cs (install on first call, replace
     * on recompilation).
     * @param stls loops to compile as STLs (Tls mode only)
     */
    void compileAll(CodeSpace &cs, CompileMode mode,
                    const std::vector<StlRequest> &stls = {});

    /** Static loop structure for the profile analyzer. */
    const std::vector<LoopInfo> &loopInfos() const
    {
        return loopInfoList;
    }

    /** Loop nest of one method. */
    const LoopNest &loopNest(std::uint32_t method_id) const
    {
        return nests.at(method_id);
    }

    /** The (inlined) program being compiled. */
    const BcProgram &program() const { return prog; }

    /** Total bytecodes across all methods (compile-cost model). */
    std::size_t bytecodeCount() const;

    const JitConfig &config() const { return cfg; }

  private:
    BcProgram prog;            ///< after inlining
    JitConfig cfg;
    std::vector<LoopNest> nests;
    std::vector<LoopInfo> loopInfoList;
    std::size_t nEmitted = 0;

    void inlinePass();
};

/**
 * The encoded local-variable annotation id used by `lwl`/`swl`
 * (Table 2): globally unique across methods.
 */
inline std::int32_t
localVarAnnotationId(std::uint32_t method_id, std::uint32_t slot)
{
    return static_cast<std::int32_t>((method_id << 8) | slot);
}

/** Reverse of localVarAnnotationId. */
inline std::uint32_t
localVarSlotOf(std::int32_t annotation_id)
{
    return static_cast<std::uint32_t>(annotation_id) & 0xff;
}

inline std::uint32_t
localVarMethodOf(std::int32_t annotation_id)
{
    return static_cast<std::uint32_t>(annotation_id) >> 8;
}

} // namespace jrpm

#endif // JRPM_JIT_COMPILER_HH

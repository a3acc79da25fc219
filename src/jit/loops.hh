/**
 * @file
 * Natural-loop discovery over bytecode, the microJIT's control-flow
 * analysis: the compiler derives a CFG from the bytecodes, finds all
 * natural loops [Muchnick], and marks them as prospective STLs
 * (§3.2, Fig. 3 of the paper).
 */

#ifndef JRPM_JIT_LOOPS_HH
#define JRPM_JIT_LOOPS_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "bytecode/bytecode.hh"

namespace jrpm
{

/** One natural loop of a method. */
struct JitLoop
{
    std::int32_t loopId = -1;     ///< globally unique id
    std::int32_t header = -1;     ///< bytecode index of the header
    std::int32_t parent = -1;     ///< enclosing loop id, -1 if none
    std::uint32_t depth = 1;      ///< nesting depth (1 = outermost)
    std::set<std::int32_t> body;  ///< bytecode indices in the loop
    std::vector<std::int32_t> latches; ///< sources of back edges
};

/** All loops of one method, outermost-first. */
struct LoopNest
{
    std::vector<JitLoop> loops;

    /** The innermost loop containing bytecode index @p bc, or -1. */
    std::int32_t innermostAt(std::int32_t bc) const;

    /** Loop with a given id (must exist). */
    const JitLoop &byId(std::int32_t loop_id) const;

    /** Loop with a given id, or nullptr — for diagnostic paths that
     *  must not panic on an id from another method's nest. */
    const JitLoop *tryById(std::int32_t loop_id) const;
};

/**
 * Find the natural loops of a method.
 * @param method       the bytecode
 * @param first_loop_id ids are assigned sequentially from here
 */
LoopNest findLoops(const BcMethod &method,
                   std::int32_t first_loop_id);

/** Successor bytecode indices of instruction @p at. */
std::vector<std::int32_t> bcSuccessors(const BcMethod &method,
                                       std::int32_t at);

} // namespace jrpm

#endif // JRPM_JIT_LOOPS_HH

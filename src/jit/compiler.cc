#include "compiler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "common/types.hh"

namespace jrpm
{

namespace
{

constexpr int kNumExprRegs = 8;
const std::uint8_t kExprRegs[kNumExprRegs] = {
    R_T0, R_T1, R_T2, R_T3, R_T4, R_T5, R_T6, R_T7,
};
// Callee-saved registers available for caching locals: the eight
// MIPS $s registers plus $v1/$at/$k0/$k1, which this closed-world
// runtime never needs for their conventional purposes.  Every method
// that uses one saves it in its prologue (and the exception unwinder
// restores through NativeCode::savedRegs), so the extension is safe.
const std::uint8_t kLocalRegs[12] = {
    R_S0, R_S1, R_S2, R_S3, R_S4, R_S5, R_S6, R_S7,
    R_V1, R_AT, R_K0, R_K1,
};
constexpr std::uint8_t kScr1 = R_T8;
constexpr std::uint8_t kScr2 = R_T9;
constexpr int kScratchSlots = 24;

/** How a local behaves inside a selected STL (§4.2). */
enum class VarClass
{
    Memory,     ///< lives in its stack home (unmapped)
    Invariant,  ///< read-only in the loop; preloaded at STL_INIT
    InvariantMem, ///< read-only but reloaded at each use (ablation)
    Inductor,   ///< §4.2.2 non-communicating loop inductor
    Resetable,  ///< §4.2.3 occasionally reset inductor
    Reduction,  ///< §4.2.5 per-CPU partial accumulation
    Carried,    ///< loop-carried; communicated through the stack
    CarriedSync, ///< carried and protected by a sync lock (§4.2.4)
    Private,    ///< written before read each iteration; stays in reg
};

/** Per-variable plan inside one selected loop. */
struct LoopVarPlan
{
    VarClass cls = VarClass::Memory;
    std::int32_t step = 0;      ///< inductor step
    Bc redOp = Bc::IADD;        ///< reduction operator
    std::int32_t iincIdx = -1;
};

/** Full compile plan for one selected STL. */
struct SelPlan
{
    const JitLoop *loop = nullptr;
    OptPlan opt;
    bool feasible = false;
    std::string whyNot;
    std::int32_t exitTarget = -1;
    std::map<std::uint32_t, LoopVarPlan> vars;
    bool isInner = false;       ///< multilevel switch target
    std::int32_t outerLoopId = -1;
    // Sync-lock injection points (bytecode indices), -1 = none.
    std::int32_t syncFirst = -1;
    std::int32_t syncLastStore = -1;
    std::uint32_t syncSlot = 0;
    // Frame offsets (negative, from $fp).
    std::int32_t lockOff = 0;
    std::int32_t switchSaveOff = 0; ///< multilevel live-state spill
    std::map<std::uint32_t, std::int32_t> redOff;   ///< 4 words each
    std::map<std::uint32_t, std::int32_t> resetOff; ///< 2 words each
};

/** One abstract operand on the compile-time expression stack. */
struct Operand
{
    enum Kind { Reg, Const, Slot } kind = Const;
    std::uint8_t reg = 0;       ///< for Reg
    std::int32_t imm = 0;       ///< for Const
    int slot = 0;               ///< scratch slot index, for Slot
};

/** Compiles one method. */
class MethodCompiler
{
  public:
    MethodCompiler(const BcProgram &program, std::uint32_t method_id,
                   const LoopNest &loop_nest, CompileMode compile_mode,
                   const JitConfig &jit_cfg,
                   const std::map<std::int32_t, OptPlan> &selected)
        : prog(program), m(program.methods[method_id]),
          methodId(method_id), nest(loop_nest), mode(compile_mode),
          cfg(jit_cfg), a(m.name)
    {
        buildRegMap();
        computeDepths();
        if (mode == CompileMode::Tls)
            buildStlPlans(selected);
        if (mode == CompileMode::Profiling) {
            // The paper's annotation elimination: only variables
            // whose loop-carried dependency the TLS compiler could
            // NOT remove (true carried locals — not inductors,
            // reductions or invariants) need lwl/swl annotations.
            for (const auto &l : nest.loops)
                classifyVars(l, profClass[l.loopId]);
        }
        layoutFrame();
    }

    NativeCode compile();

  private:
    const BcProgram &prog;
    const BcMethod &m;
    std::uint32_t methodId;
    const LoopNest &nest;
    CompileMode mode;
    const JitConfig &cfg;
    Asm a;

    // local slot -> callee-saved register (hot locals only)
    std::map<std::uint32_t, std::uint8_t> regMap;
    std::vector<std::uint8_t> mappedRegs; ///< in slot order

    std::map<std::int32_t, SelPlan> plans; ///< by loop id

    // Frame offsets.
    std::int32_t homeOff(std::uint32_t slot) const
    {
        return -12 - 4 * static_cast<std::int32_t>(slot);
    }
    std::map<std::uint8_t, std::int32_t> saveOff; ///< s-reg save area
    std::int32_t scratchBase = 0;  ///< negative fp offset of slot 0
    std::uint32_t frameBytes = 0;

    std::int32_t
    scratchOff(int slot) const
    {
        return scratchBase - 4 * slot;
    }

    // Emission state.
    std::vector<Asm::Label> bcLabel;
    std::vector<Operand> stk;
    struct ThrowSite
    {
        Asm::Label label;
        std::int32_t kind;
        std::int32_t faultNative;
    };
    std::vector<ThrowSite> throwSites;
    struct EdgeThunk
    {
        Asm::Label label;
        std::int32_t src, dst;
    };
    std::map<std::pair<std::int32_t, std::int32_t>, Asm::Label>
        edgeThunks;
    std::vector<EdgeThunk> pendingThunks;
    // Per selected loop: labels of its special blocks.
    std::map<std::int32_t, Asm::Label> startupLabel, eoiLabel,
        shutdownLabel;
    // Profile mode: label placed before the sloop instruction.
    std::map<std::int32_t, Asm::Label> sloopLabel;
    std::vector<std::int32_t> nativePosOfBc;

    /** Profiling mode: per-loop variable classes for annotation
     *  elimination. */
    std::map<std::int32_t, std::map<std::uint32_t, LoopVarPlan>>
        profClass;

    /** Operand-stack depth at each bytecode index (-1 unreachable). */
    std::vector<int> bcDepth;
    void computeDepths();

    // ---- analysis ---------------------------------------------------
    void buildRegMap();
    void buildStlPlans(const std::map<std::int32_t, OptPlan> &sel);
    void classifyVars(const JitLoop &loop,
                      std::map<std::uint32_t, LoopVarPlan> &out);
    void classifyLoopVars(SelPlan &plan);
    bool needsAnnotation(std::int32_t at, std::uint32_t slot,
                         bool is_store) const;
    std::uint64_t writtenBeforeReadMask(const JitLoop &loop) const;
    bool onceEveryIteration(const JitLoop &loop,
                            std::int32_t at) const;
    bool usedOutside(const JitLoop &loop, std::uint32_t slot) const;
    void layoutFrame();

    /** The selected STL context containing bytecode index, if any. */
    SelPlan *planAt(std::int32_t bc);

    bool insideAnyLoop(std::int32_t bc) const
    {
        return nest.innermostAt(bc) >= 0;
    }

    // ---- operand stack ----------------------------------------------
    std::uint8_t exprReg(std::size_t depth) const;
    void materialize(std::size_t depth);
    void flushAll();
    void push(Operand o) { stk.push_back(o); }
    Operand pop();
    /** Value of an operand in a register (may emit into scratch). */
    std::uint8_t valueReg(const Operand &o, std::uint8_t scratch);

    // ---- emission ---------------------------------------------------
    void emitPrologue();
    void emitEpilogue(bool returns_value);
    void emitBc(std::int32_t at);
    void emitAlu(Bc op);
    void emitBranch(std::int32_t at, const BcInst &inst);
    void emitCall(const BcInst &inst);
    void emitLoadLocal(std::int32_t at, std::uint32_t slot);
    void emitStoreLocal(std::int32_t at, std::uint32_t slot);
    void emitIinc(std::int32_t at, std::uint32_t slot,
                  std::int32_t by);
    void protectMappedReg(std::uint8_t sreg);
    void emitNullCheck(std::uint8_t ref_reg);
    void emitBoundsCheck(std::uint8_t ref_reg, std::uint8_t idx_reg);
    Asm::Label throwBlock(std::int32_t kind);

    void emitStlStartup(SelPlan &plan);
    void emitStlInit(SelPlan &plan);
    void emitResetableCompute(SelPlan &plan, std::uint32_t slot,
                              const LoopVarPlan &vp);
    void emitStlBlocks(SelPlan &plan);  ///< EOI + SHUTDOWN at end
    void emitSyncAcquire(SelPlan &plan);
    void emitSyncRelease(SelPlan &plan);
    void emitReductionSlotAddr(SelPlan &plan, std::uint32_t slot,
                               std::uint8_t dst);
    void storeResultsAndReloadMapped(SelPlan &plan);
    Op reductionNativeOp(Bc red_op) const;

    Asm::Label targetLabel(std::int32_t src, std::int32_t dst);
    void emitThunksAndBlocks();

    /** Loops containing src but not dst, innermost first. */
    std::vector<std::int32_t> exitedLoops(std::int32_t src,
                                          std::int32_t dst) const;
};

std::uint8_t
MethodCompiler::exprReg(std::size_t depth) const
{
    if (depth < kNumExprRegs)
        return kExprRegs[depth];
    panic("expression stack deeper than registers in %s (depth %zu);"
          " use scratch slots", m.name.c_str(), depth);
}

Operand
MethodCompiler::pop()
{
    if (stk.empty())
        panic("compile-time stack underflow in %s", m.name.c_str());
    Operand o = stk.back();
    stk.pop_back();
    return o;
}

void
MethodCompiler::materialize(std::size_t depth)
{
    Operand &o = stk[depth];
    const std::uint8_t canonical = exprReg(depth);
    switch (o.kind) {
      case Operand::Reg:
        if (o.reg != canonical)
            a.move(canonical, o.reg);
        break;
      case Operand::Const:
        a.li(canonical, o.imm);
        break;
      case Operand::Slot:
        a.load(Op::LW, canonical, R_FP, scratchOff(o.slot));
        break;
    }
    o = {Operand::Reg, canonical, 0, 0};
}

void
MethodCompiler::flushAll()
{
    for (std::size_t d = 0; d < stk.size(); ++d)
        materialize(d);
}

std::uint8_t
MethodCompiler::valueReg(const Operand &o, std::uint8_t scratch)
{
    switch (o.kind) {
      case Operand::Reg:
        return o.reg;
      case Operand::Const:
        if (o.imm == 0)
            return R_ZERO;
        a.li(scratch, o.imm);
        return scratch;
      case Operand::Slot:
        a.load(Op::LW, scratch, R_FP, scratchOff(o.slot));
        return scratch;
    }
    return scratch;
}

// ---------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------

void
MethodCompiler::buildRegMap()
{
    // Methods with exception handlers keep locals in memory so
    // handlers and the unwinder always see consistent state.
    if (!m.catches.empty())
        return;

    // A local that is read before written inside a loop AND written
    // there turns into a loop-carried *memory* dependency if it ever
    // spills to its stack home — every later thread's load of the
    // home would be violated by the store.  Such locals get priority
    // for the callee-saved registers; write-before-read scratch can
    // stay in memory harmlessly (own-buffer hits).
    std::vector<std::uint64_t> carriedBoost(m.numLocals, 0);
    for (const auto &l : nest.loops) {
        const std::uint64_t private_ok = writtenBeforeReadMask(l);
        std::set<std::uint32_t> written;
        for (std::int32_t i : l.body) {
            const BcInst &inst = m.code[i];
            if (inst.op == Bc::STORE || inst.op == Bc::IINC)
                written.insert(inst.imm);
        }
        for (std::uint32_t s : written)
            if (s < 64 && !(private_ok & (1ull << s)))
                carriedBoost[s] = 64;
    }

    std::vector<std::uint64_t> weight(m.numLocals, 0);
    for (std::size_t i = 0; i < m.code.size(); ++i) {
        const BcInst &inst = m.code[i];
        if (inst.op != Bc::LOAD && inst.op != Bc::STORE &&
            inst.op != Bc::IINC)
            continue;
        std::uint64_t w = 1;
        for (const auto &l : nest.loops)
            if (l.body.count(static_cast<std::int32_t>(i)))
                w *= 8;
        w *= std::max<std::uint64_t>(carriedBoost[inst.imm], 1);
        weight[inst.imm] += std::min<std::uint64_t>(w, 1u << 24);
    }
    std::vector<std::uint32_t> order;
    for (std::uint32_t s = 0; s < m.numLocals; ++s)
        if (weight[s] > 0)
            order.push_back(s);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                  if (weight[x] != weight[y])
                      return weight[x] > weight[y];
                  return x < y;
              });
    for (std::size_t k = 0; k < order.size() && k < 12; ++k) {
        regMap[order[k]] = kLocalRegs[k];
        mappedRegs.push_back(kLocalRegs[k]);
    }
}

std::uint64_t
MethodCompiler::writtenBeforeReadMask(const JitLoop &loop) const
{
    // Forward dataflow over the loop body at bytecode granularity:
    // which locals (< 64) are written on *every* path before being
    // read.  A local read while possibly-unwritten is carried.
    const auto n = static_cast<std::int32_t>(m.code.size());
    const std::uint64_t all = ~0ull;
    std::vector<std::uint64_t> in(m.code.size(), all);
    std::vector<std::uint64_t> readEarly(1, 0);
    std::uint64_t read_before_write = 0;

    in[loop.header] = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::int32_t i : loop.body) {
            std::uint64_t cur = in[i];
            const BcInst &inst = m.code[i];
            if (inst.op == Bc::LOAD && inst.imm < 64) {
                if (!(cur & (1ull << inst.imm)))
                    read_before_write |= 1ull << inst.imm;
            }
            if (inst.op == Bc::IINC && inst.imm < 64) {
                if (!(cur & (1ull << inst.imm)))
                    read_before_write |= 1ull << inst.imm;
                cur |= 1ull << inst.imm;
            }
            if (inst.op == Bc::STORE && inst.imm < 64)
                cur |= 1ull << inst.imm;
            for (std::int32_t s : bcSuccessors(m, i)) {
                if (s >= n || !loop.body.count(s) ||
                    s == loop.header)
                    continue;
                std::uint64_t merged = in[s] & cur;
                if (merged != in[s]) {
                    in[s] = merged;
                    changed = true;
                }
            }
        }
    }
    // Locals read-before-write are NOT private; everything else
    // written in the loop is.
    return ~read_before_write;
}

bool
MethodCompiler::onceEveryIteration(const JitLoop &loop,
                                   std::int32_t at) const
{
    // Forward dataflow over the loop body: does every path from the
    // header to a latch execute instruction @p at exactly once?  A
    // conditional or repeated induction update cannot use the local
    // EOI advance.
    enum S : std::uint8_t { Unseen, Zero, One, Varies };
    const auto n = static_cast<std::int32_t>(m.code.size());
    std::vector<std::uint8_t> in(m.code.size(), Unseen);
    in[loop.header] = Zero;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::int32_t i : loop.body) {
            if (in[i] == Unseen)
                continue;
            std::uint8_t cur = in[i];
            if (i == at)
                cur = cur == Zero ? One : Varies;
            for (std::int32_t s : bcSuccessors(m, i)) {
                if (s >= n || !loop.body.count(s) ||
                    s == loop.header)
                    continue;
                std::uint8_t merged;
                if (in[s] == Unseen)
                    merged = cur;
                else if (in[s] == cur)
                    merged = cur;
                else
                    merged = Varies;
                if (merged != in[s]) {
                    in[s] = merged;
                    changed = true;
                }
            }
        }
    }
    for (std::int32_t latch : loop.latches) {
        std::uint8_t s =
            in[latch] == Unseen ? static_cast<std::uint8_t>(Zero)
                                : in[latch];
        if (latch == at)
            s = s == Zero ? One : Varies;
        if (s != One)
            return false;
    }
    return true;
}

bool
MethodCompiler::usedOutside(const JitLoop &loop,
                            std::uint32_t slot) const
{
    // Liveness at the loop exits: does any path from an exit edge
    // read the slot before writing it?  (Uses *before* the loop are
    // irrelevant — a slot reused as, say, an init-loop counter is
    // still dead on loop exit.)
    const auto n = static_cast<std::int32_t>(m.code.size());
    std::vector<std::int32_t> work;
    std::set<std::int32_t> seen;
    for (std::int32_t i : loop.body)
        for (std::int32_t s : bcSuccessors(m, i))
            if (s < n && !loop.body.count(s))
                work.push_back(s);
    while (!work.empty()) {
        const std::int32_t at = work.back();
        work.pop_back();
        if (!seen.insert(at).second)
            continue;
        const BcInst &inst = m.code[at];
        if ((inst.op == Bc::LOAD || inst.op == Bc::IINC) &&
            static_cast<std::uint32_t>(inst.imm) == slot)
            return true;
        if (inst.op == Bc::STORE &&
            static_cast<std::uint32_t>(inst.imm) == slot)
            continue; // redefined: this path no longer reads it
        for (std::int32_t s : bcSuccessors(m, at))
            if (s < n)
                work.push_back(s);
    }
    return false;
}

void
MethodCompiler::classifyVars(const JitLoop &loop,
                             std::map<std::uint32_t, LoopVarPlan> &out)
{
    const std::uint64_t private_ok = writtenBeforeReadMask(loop);

    // Gather accesses per slot.
    struct Acc
    {
        std::vector<std::int32_t> loads, stores, iincs;
    };
    std::map<std::uint32_t, Acc> acc;
    for (std::int32_t i : loop.body) {
        const BcInst &inst = m.code[i];
        if (inst.op == Bc::LOAD)
            acc[inst.imm].loads.push_back(i);
        else if (inst.op == Bc::STORE)
            acc[inst.imm].stores.push_back(i);
        else if (inst.op == Bc::IINC)
            acc[inst.imm].iincs.push_back(i);
    }

    for (auto &[slot, u] : acc) {
        LoopVarPlan vp;
        const bool mapped = regMap.count(slot) != 0;
        if (!mapped) {
            vp.cls = VarClass::Memory;
            out[slot] = vp;
            continue;
        }
        const bool written = !u.stores.empty() || !u.iincs.empty();
        if (!written) {
            vp.cls = cfg.optLoopInvariantRegs
                         ? VarClass::Invariant
                         : VarClass::InvariantMem;
            out[slot] = vp;
            continue;
        }

        // Inductor: a single IINC, directly in this loop (not in a
        // nested one, where it would run several times per thread),
        // with no later reads in the body (so the deferred advance at
        // EOI is unobservable).
        if (cfg.optLocalInductors && u.iincs.size() == 1 &&
            m.code[u.iincs.front()].imm2 != 0 &&
            nest.innermostAt(u.iincs.front()) == loop.loopId &&
            onceEveryIteration(loop, u.iincs.front())) {
            const std::int32_t ii = u.iincs.front();
            const bool reads_after =
                std::any_of(u.loads.begin(), u.loads.end(),
                            [&](std::int32_t l) { return l > ii; });
            if (!reads_after) {
                if (u.stores.empty()) {
                    vp.cls = VarClass::Inductor;
                    vp.step = m.code[ii].imm2;
                    vp.iincIdx = ii;
                    out[slot] = vp;
                    continue;
                }
                // Stores besides the IINC: reset-able inductor.
                if (cfg.optResetableInductors) {
                    vp.cls = VarClass::Resetable;
                    vp.step = m.code[ii].imm2;
                    vp.iincIdx = ii;
                    out[slot] = vp;
                    continue;
                }
            }
        }

        // Reduction: exactly [LOAD v][expr][acc-op][STORE v] where
        // the accumulation immediately precedes the store and there
        // are no other uses in the loop.
        if (cfg.optReductions && u.loads.size() == 1 &&
            u.stores.size() == 1 && u.iincs.empty()) {
            const std::int32_t ld = u.loads.front();
            const std::int32_t st = u.stores.front();
            if (ld < st && st > 0) {
                const Bc accop = m.code[st - 1].op;
                const bool is_acc =
                    accop == Bc::IADD || accop == Bc::FADD ||
                    accop == Bc::IMUL || accop == Bc::FMUL;
                // No control flow between load and store keeps the
                // operand pairing trivial to validate.
                bool straight = true;
                for (std::int32_t i = ld; i < st; ++i)
                    if (bcIsBranch(m.code[i].op) ||
                        bcIsTerminator(m.code[i].op) ||
                        m.code[i].op == Bc::CALL)
                        straight = false;
                if (is_acc && straight) {
                    vp.cls = VarClass::Reduction;
                    vp.redOp = accop;
                    out[slot] = vp;
                    continue;
                }
            }
        }

        // Private: written on every path before any read, and dead
        // outside the loop.
        if (slot < 64 && (private_ok & (1ull << slot)) &&
            !usedOutside(loop, slot)) {
            vp.cls = VarClass::Private;
            out[slot] = vp;
            continue;
        }

        vp.cls = VarClass::Carried;
        out[slot] = vp;
    }
}

void
MethodCompiler::classifyLoopVars(SelPlan &plan)
{
    classifyVars(*plan.loop, plan.vars);

    // Sync-lock plan (§4.2.4): only for a carried local whose
    // accesses sit directly in the loop body (a nested loop would
    // re-acquire and deadlock).
    if (cfg.optSyncLocks && plan.opt.syncLock &&
        localVarMethodOf(plan.opt.syncLocalVar) == methodId) {
        const std::uint32_t slot =
            localVarSlotOf(plan.opt.syncLocalVar);
        auto it = plan.vars.find(slot);
        if (it != plan.vars.end() &&
            it->second.cls == VarClass::Carried) {
            std::int32_t first = INT32_MAX, last_store = -1;
            for (std::int32_t i : plan.loop->body) {
                const BcInst &inst = m.code[i];
                if (static_cast<std::uint32_t>(inst.imm) != slot)
                    continue;
                if (inst.op == Bc::LOAD || inst.op == Bc::STORE ||
                    inst.op == Bc::IINC)
                    first = std::min(first, i);
                if (inst.op == Bc::STORE || inst.op == Bc::IINC)
                    last_store = std::max(last_store, i);
            }
            bool direct =
                first != INT32_MAX && last_store >= 0 &&
                nest.innermostAt(first) == plan.loop->loopId &&
                nest.innermostAt(last_store) == plan.loop->loopId;
            // The lock word carries the iteration number (Fig. 6):
            // every iteration must acquire at `first` and advance
            // the lock after `last_store` exactly once, so the
            // whole region has to run unconditionally.  A skipped
            // or repeated region leaves the lock stale and the
            // successor reads an unforwarded value.
            direct = direct &&
                     onceEveryIteration(*plan.loop, first) &&
                     onceEveryIteration(*plan.loop, last_store);
            // Every path through any access must also enter the
            // region at `first` and leave it past `last_store`: a
            // branch around a conditional first store would update
            // the variable without holding the lock (and release a
            // lock it never took).
            for (std::int32_t i : plan.loop->body) {
                if (!direct)
                    break;
                const BcInst &inst = m.code[i];
                const bool src_in = i >= first && i < last_store;
                if (bcIsBranch(inst.op)) {
                    const bool dst_in = inst.imm > first &&
                                        inst.imm <= last_store;
                    if (src_in != dst_in)
                        direct = false;
                } else if (src_in && (inst.op == Bc::CALL ||
                                      bcIsTerminator(inst.op))) {
                    direct = false;
                }
            }
            if (direct) {
                it->second.cls = VarClass::CarriedSync;
                plan.syncFirst = first;
                plan.syncLastStore = last_store;
                plan.syncSlot = slot;
            }
        }
    }
}

bool
MethodCompiler::needsAnnotation(std::int32_t at, std::uint32_t slot,
                                bool is_store) const
{
    // Stores: annotate wherever the variable is carried in ANY loop
    // of the method — an elided store (e.g. a per-iteration reset in
    // an enclosing loop) would leave a stale timestamp in TEST's
    // tables and fabricate an inter-thread arc.
    //
    // Loads: annotate only where some loop CONTAINING the access
    // classifies the variable as truly carried — a load belonging to
    // a reduction/inductor pattern must stay invisible, since the
    // TLS compiler removes that dependency (§4.2).
    bool carried_somewhere = false;
    for (const auto &[loopId, vars] : profClass) {
        auto it = vars.find(slot);
        if (it == vars.end() ||
            (it->second.cls != VarClass::Carried &&
             it->second.cls != VarClass::CarriedSync))
            continue;
        carried_somewhere = true;
        if (nest.byId(loopId).body.count(at))
            return true;
    }
    return is_store && carried_somewhere;
}

void
MethodCompiler::computeDepths()
{
    // Verifier-style operand-stack depth at each bytecode index; the
    // emitter re-synchronizes its canonical stack from this at every
    // instruction so branch-only joins (e.g. dispatch ladders) agree
    // with the verifier.
    bcDepth.assign(m.code.size(), -1);
    std::vector<std::int32_t> work{0};
    bcDepth[0] = 0;
    for (const auto &c : m.catches) {
        bcDepth[c.handler] = 1;
        work.push_back(c.handler);
    }
    while (!work.empty()) {
        std::int32_t at = work.back();
        work.pop_back();
        int d = bcDepth[at];
        d -= bcPops(prog, m.code[at]);
        d += bcPushes(prog, m.code[at]);
        for (std::int32_t s : bcSuccessors(m, at)) {
            if (s < static_cast<std::int32_t>(m.code.size()) &&
                bcDepth[s] == -1) {
                bcDepth[s] = d;
                work.push_back(s);
            }
        }
    }
}

void
MethodCompiler::buildStlPlans(const std::map<std::int32_t, OptPlan> &sel)
{
    const std::vector<int> &depth = bcDepth;

    for (const auto &[loopId, opt] : sel) {
        const JitLoop *loop = nullptr;
        for (const auto &l : nest.loops)
            if (l.loopId == loopId)
                loop = &l;
        if (!loop)
            continue;
        SelPlan plan;
        plan.loop = loop;
        plan.opt = opt;

        // Feasibility.
        if (depth[loop->header] != 0) {
            plan.whyNot = "operands live across the loop header";
        } else {
            std::set<std::int32_t> exits;
            bool bad = false;
            for (std::int32_t i : loop->body) {
                const BcInst &inst = m.code[i];
                if (inst.op == Bc::RET || inst.op == Bc::IRET)
                    bad = true;
                for (std::int32_t s : bcSuccessors(m, i))
                    if (!loop->body.count(s))
                        exits.insert(s);
            }
            if (bad)
                plan.whyNot = "returns inside the loop body";
            else if (exits.size() != 1)
                plan.whyNot = strfmt("%zu exit targets",
                                     exits.size());
            else
                plan.exitTarget = *exits.begin();
        }
        plan.feasible = plan.whyNot.empty();
        if (plan.feasible)
            classifyLoopVars(plan);
        plans[loopId] = std::move(plan);
    }

    // Multilevel inner loops become switch targets of their parent.
    if (cfg.optMultilevel) {
        std::vector<std::int32_t> inners;
        for (auto &[loopId, plan] : plans) {
            if (!plan.feasible || !plan.opt.multilevel)
                continue;
            // Reduction partials live in per-CPU slots keyed by the
            // hardware CPU id; an adopted iteration would merge them
            // into the wrong slot, so multilevel is off for loops
            // with reductions.
            bool has_reduction = false;
            for (const auto &[slot, vp] : plan.vars)
                if (vp.cls == VarClass::Reduction)
                    has_reduction = true;
            if (has_reduction) {
                plan.opt.multilevel = false;
                continue;
            }
            const std::int32_t innerId = plan.opt.multilevelInner;
            const JitLoop *inner = nullptr;
            for (const auto &l : nest.loops)
                if (l.loopId == innerId)
                    inner = &l;
            if (!inner || inner->parent != loopId)
                continue;
            SelPlan ip;
            ip.loop = inner;
            ip.opt = OptPlan{};
            ip.isInner = true;
            ip.outerLoopId = loopId;
            // Inner feasibility: single exit target inside the outer
            // body, depth-0 header.
            std::set<std::int32_t> exits;
            bool bad = false;
            for (std::int32_t i : inner->body) {
                const BcInst &inst = m.code[i];
                if (inst.op == Bc::RET || inst.op == Bc::IRET)
                    bad = true;
                for (std::int32_t s : bcSuccessors(m, i))
                    if (!inner->body.count(s))
                        exits.insert(s);
            }
            if (!bad && exits.size() == 1 &&
                plan.loop->body.count(*exits.begin()) &&
                depth[inner->header] == 0) {
                ip.exitTarget = *exits.begin();
                ip.feasible = true;
                classifyLoopVars(ip);
                inners.push_back(innerId);
                plans[innerId] = std::move(ip);
            } else {
                plan.opt.multilevel = false;
            }
        }
    }
}

void
MethodCompiler::layoutFrame()
{
    std::int32_t off = 12 + 4 * static_cast<std::int32_t>(m.numLocals);
    for (std::uint8_t sreg : mappedRegs) {
        saveOff[sreg] = -off;
        off += 4;
    }
    for (auto &[loopId, plan] : plans) {
        if (!plan.feasible)
            continue;
        if (plan.syncFirst >= 0) {
            plan.lockOff = -off;
            off += 4;
        }
        if (plan.opt.multilevel) {
            plan.switchSaveOff = -off;
            off += 4 * static_cast<std::int32_t>(
                std::max<std::size_t>(mappedRegs.size(), 1));
        }
        for (auto &[slot, vp] : plan.vars) {
            if (vp.cls == VarClass::Reduction) {
                plan.redOff[slot] = -off;
                off += 4 * static_cast<std::int32_t>(SystemConfig::numCpus);
            } else if (vp.cls == VarClass::Resetable) {
                plan.resetOff[slot] = -off;
                off += 8;
            }
        }
    }
    scratchBase = -off;
    off += 4 * kScratchSlots;
    frameBytes = static_cast<std::uint32_t>((off + 7) & ~7);
}

SelPlan *
MethodCompiler::planAt(std::int32_t bc)
{
    SelPlan *best = nullptr;
    std::uint32_t best_depth = 0;
    for (auto &[loopId, plan] : plans) {
        if (!plan.feasible || !plan.loop->body.count(bc))
            continue;
        if (!best || plan.loop->depth >= best_depth) {
            best = &plan;
            best_depth = plan.loop->depth;
        }
    }
    return best;
}

std::vector<std::int32_t>
MethodCompiler::exitedLoops(std::int32_t src, std::int32_t dst) const
{
    std::vector<const JitLoop *> ls;
    for (const auto &l : nest.loops)
        if (l.body.count(src) && !l.body.count(dst))
            ls.push_back(&l);
    std::sort(ls.begin(), ls.end(),
              [](const JitLoop *x, const JitLoop *y) {
                  return x->depth > y->depth;
              });
    std::vector<std::int32_t> out;
    for (const auto *l : ls)
        out.push_back(l->loopId);
    return out;
}

// ---------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------

void
MethodCompiler::protectMappedReg(std::uint8_t sreg)
{
    for (std::size_t d = 0; d < stk.size(); ++d)
        if (stk[d].kind == Operand::Reg && stk[d].reg == sreg)
            materialize(d);
}

void
MethodCompiler::emitPrologue()
{
    a.aluRI(Op::ADDIU, R_SP, R_SP,
            -static_cast<std::int32_t>(frameBytes));
    a.store(Op::SW, R_RA, R_SP,
            static_cast<std::int32_t>(frameBytes) - 4);
    a.store(Op::SW, R_FP, R_SP,
            static_cast<std::int32_t>(frameBytes) - 8);
    a.aluRI(Op::ADDIU, R_FP, R_SP,
            static_cast<std::int32_t>(frameBytes));
    for (std::uint8_t sreg : mappedRegs) {
        a.store(Op::SW, sreg, R_FP, saveOff[sreg]);
        a.noteSavedReg(sreg, saveOff[sreg]);
    }
    // Arguments must leave $a0..$a3 before the monitor-enter trap
    // reuses $a0 for the lock id.
    for (std::uint32_t i = 0; i < m.numArgs; ++i) {
        auto it = regMap.find(i);
        if (it != regMap.end())
            a.move(it->second, static_cast<std::uint8_t>(R_A0 + i));
        else
            a.store(Op::SW, static_cast<std::uint8_t>(R_A0 + i),
                    R_FP, homeOff(i));
    }
    if (m.isSynchronized) {
        a.li(R_A0, static_cast<std::int32_t>(methodId));
        a.trap(TrapId::MonitorEnter);
    }
}

void
MethodCompiler::emitEpilogue(bool returns_value)
{
    if (returns_value) {
        Operand v = pop();
        std::uint8_t r = valueReg(v, R_V0);
        if (r != R_V0)
            a.move(R_V0, r);
    }
    if (m.isSynchronized) {
        a.li(R_A0, static_cast<std::int32_t>(methodId));
        a.trap(TrapId::MonitorExit);
    }
    for (std::uint8_t sreg : mappedRegs)
        a.load(Op::LW, sreg, R_FP, saveOff[sreg]);
    a.load(Op::LW, R_RA, R_FP, -4);
    a.load(Op::LW, kScr1, R_FP, -8);
    a.move(R_SP, R_FP);
    a.move(R_FP, kScr1);
    a.jr(R_RA);
}

Asm::Label
MethodCompiler::throwBlock(std::int32_t kind)
{
    // Record the position of the branch about to be emitted as the
    // faulting site the thrown exception maps back to.
    Asm::Label l = a.newLabel();
    throwSites.push_back({l, kind, a.here()});
    return l;
}

void
MethodCompiler::emitNullCheck(std::uint8_t ref_reg)
{
    Asm::Label l = throwBlock(0); // ExcKind::Null
    a.branch(Op::BEQ, ref_reg, R_ZERO, l);
}

void
MethodCompiler::emitBoundsCheck(std::uint8_t ref_reg,
                                std::uint8_t idx_reg)
{
    a.load(Op::LW, kScr2, ref_reg, -4);
    a.aluRR(Op::SLTU, kScr2, idx_reg, kScr2);
    Asm::Label l = throwBlock(1); // ExcKind::Bounds
    a.branch(Op::BEQ, kScr2, R_ZERO, l);
}

void
MethodCompiler::emitLoadLocal(std::int32_t at, std::uint32_t slot)
{
    auto it = regMap.find(slot);
    SelPlan *plan = mode == CompileMode::Tls ? planAt(at) : nullptr;

    if (it != regMap.end()) {
        if (mode == CompileMode::Profiling &&
            needsAnnotation(at, slot, false))
            a.lwlann(localVarAnnotationId(methodId, slot));
        if (plan) {
            auto vit = plan->vars.find(slot);
            if (vit != plan->vars.end() &&
                vit->second.cls == VarClass::InvariantMem) {
                // Ablation: reload the invariant at every use.
                const std::size_t d = stk.size();
                push({Operand::Reg, exprReg(d), 0, 0});
                a.load(Op::LW, exprReg(d), R_FP, homeOff(slot));
                return;
            }
        }
        push({Operand::Reg, it->second, 0, 0});
        return;
    }
    const std::size_t d = stk.size();
    push({Operand::Reg, exprReg(d), 0, 0});
    a.load(Op::LW, exprReg(d), R_FP, homeOff(slot));
}

void
MethodCompiler::emitStoreLocal(std::int32_t at, std::uint32_t slot)
{
    auto it = regMap.find(slot);
    SelPlan *plan = mode == CompileMode::Tls ? planAt(at) : nullptr;

    Operand v = pop();
    if (it == regMap.end()) {
        std::uint8_t r = valueReg(v, kScr1);
        a.store(Op::SW, r, R_FP, homeOff(slot));
        return;
    }
    const std::uint8_t sreg = it->second;
    protectMappedReg(sreg);
    switch (v.kind) {
      case Operand::Reg:
        if (v.reg != sreg)
            a.move(sreg, v.reg);
        break;
      case Operand::Const:
        a.li(sreg, v.imm);
        break;
      case Operand::Slot:
        a.load(Op::LW, sreg, R_FP, scratchOff(v.slot));
        break;
    }
    if (mode == CompileMode::Profiling &&
        needsAnnotation(at, slot, true))
        a.swlann(localVarAnnotationId(methodId, slot));

    if (plan) {
        auto vit = plan->vars.find(slot);
        if (vit != plan->vars.end()) {
            switch (vit->second.cls) {
              case VarClass::Carried:
              case VarClass::CarriedSync:
                // Communicate through the runtime stack (§4.1).
                a.store(Op::SW, sreg, R_FP, homeOff(slot));
                break;
              case VarClass::Resetable: {
                // §4.2.3: publish the reset value and the iteration
                // it applies from; later threads' STL_INIT loads of
                // these slots make them violate and recompute.
                const std::int32_t base = plan->resetOff.at(slot);
                a.store(Op::SW, sreg, R_FP, base);
                a.mfc2(kScr2, Cp2Reg::Iteration);
                a.store(Op::SW, kScr2, R_FP, base - 4);
                break;
              }
              default:
                break;
            }
        }
    }
}

void
MethodCompiler::emitIinc(std::int32_t at, std::uint32_t slot,
                         std::int32_t by)
{
    auto it = regMap.find(slot);
    SelPlan *plan = mode == CompileMode::Tls ? planAt(at) : nullptr;
    if (plan) {
        auto vit = plan->vars.find(slot);
        if (vit != plan->vars.end() &&
            (vit->second.cls == VarClass::Inductor ||
             vit->second.cls == VarClass::Resetable) &&
            vit->second.iincIdx == at) {
            // §4.2.2: the advance happens locally in the EOI block.
            return;
        }
    }
    if (it != regMap.end()) {
        protectMappedReg(it->second);
        if (mode == CompileMode::Profiling) {
            if (needsAnnotation(at, slot, false))
                a.lwlann(localVarAnnotationId(methodId, slot));
            if (needsAnnotation(at, slot, true))
                a.swlann(localVarAnnotationId(methodId, slot));
        }
        a.aluRI(Op::ADDIU, it->second, it->second, by);
        if (plan) {
            auto vit = plan->vars.find(slot);
            if (vit != plan->vars.end() &&
                (vit->second.cls == VarClass::Carried ||
                 vit->second.cls == VarClass::CarriedSync))
                a.store(Op::SW, it->second, R_FP, homeOff(slot));
        }
    } else {
        a.load(Op::LW, kScr1, R_FP, homeOff(slot));
        a.aluRI(Op::ADDIU, kScr1, kScr1, by);
        a.store(Op::SW, kScr1, R_FP, homeOff(slot));
    }
}

void
MethodCompiler::emitAlu(Bc op)
{
    // Binary operations; operand b on top.
    Operand b = pop();
    Operand a_op = pop();
    const std::size_t d = stk.size();
    const std::uint8_t dst = exprReg(d);

    // Constant folding.
    if (a_op.kind == Operand::Const && b.kind == Operand::Const) {
        const std::int32_t x = a_op.imm, y = b.imm;
        bool folded = true;
        std::int32_t r = 0;
        switch (op) {
          case Bc::IADD: r = x + y; break;
          case Bc::ISUB: r = x - y; break;
          case Bc::IMUL: r = x * y; break;
          case Bc::IAND: r = x & y; break;
          case Bc::IOR: r = x | y; break;
          case Bc::IXOR: r = x ^ y; break;
          case Bc::ISHL: r = x << (y & 31); break;
          case Bc::ISHR: r = x >> (y & 31); break;
          case Bc::IUSHR:
            r = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(x) >> (y & 31));
            break;
          case Bc::IDIV:
            if (y != 0) r = x / y; else folded = false;
            break;
          case Bc::IREM:
            if (y != 0) r = x % y; else folded = false;
            break;
          default:
            folded = false;
        }
        if (folded) {
            push({Operand::Const, 0, r, 0});
            return;
        }
    }

    // Immediate forms.
    if (b.kind == Operand::Const && b.imm >= -32768 &&
        b.imm <= 32767) {
        const std::uint8_t ra = valueReg(a_op, kScr1);
        switch (op) {
          case Bc::IADD:
            a.aluRI(Op::ADDIU, dst, ra, b.imm);
            push({Operand::Reg, dst, 0, 0});
            return;
          case Bc::ISUB:
            if (b.imm != -32768) {
                a.aluRI(Op::ADDIU, dst, ra, -b.imm);
                push({Operand::Reg, dst, 0, 0});
                return;
            }
            break;
          case Bc::ISHL:
            a.aluRI(Op::SLL, dst, ra, b.imm & 31);
            push({Operand::Reg, dst, 0, 0});
            return;
          case Bc::ISHR:
            a.aluRI(Op::SRA, dst, ra, b.imm & 31);
            push({Operand::Reg, dst, 0, 0});
            return;
          case Bc::IUSHR:
            a.aluRI(Op::SRL, dst, ra, b.imm & 31);
            push({Operand::Reg, dst, 0, 0});
            return;
          case Bc::IAND:
            if (b.imm >= 0) {
                a.aluRI(Op::ANDI, dst, ra, b.imm);
                push({Operand::Reg, dst, 0, 0});
                return;
            }
            break;
          case Bc::IOR:
            if (b.imm >= 0) {
                a.aluRI(Op::ORI, dst, ra, b.imm);
                push({Operand::Reg, dst, 0, 0});
                return;
            }
            break;
          default:
            break;
        }
    }

    const std::uint8_t ra = valueReg(a_op, kScr1);
    const std::uint8_t rb = valueReg(b, kScr2);
    Op native;
    switch (op) {
      case Bc::IADD: native = Op::ADDU; break;
      case Bc::ISUB: native = Op::SUBU; break;
      case Bc::IMUL: native = Op::MUL; break;
      case Bc::IDIV: native = Op::DIV; break;
      case Bc::IREM: native = Op::REM; break;
      case Bc::IAND: native = Op::AND; break;
      case Bc::IOR: native = Op::OR; break;
      case Bc::IXOR: native = Op::XOR; break;
      case Bc::ISHL: native = Op::SLLV; break;
      case Bc::ISHR: native = Op::SRAV; break;
      case Bc::IUSHR: native = Op::SRLV; break;
      case Bc::FADD: native = Op::FADD; break;
      case Bc::FSUB: native = Op::FSUB; break;
      case Bc::FMUL: native = Op::FMUL; break;
      case Bc::FDIV: native = Op::FDIV; break;
      default:
        panic("emitAlu: unexpected opcode");
    }
    a.aluRR(native, dst, ra, rb);
    push({Operand::Reg, dst, 0, 0});
}

void
MethodCompiler::emitCall(const BcInst &inst)
{
    const BcMethod &callee = prog.methods[inst.imm];
    const std::uint32_t nargs = callee.numArgs;
    if (nargs > 4)
        panic("call to %s: more than 4 arguments unsupported",
              callee.name.c_str());
    if (stk.size() < nargs)
        panic("call to %s: stack underflow", callee.name.c_str());
    const std::size_t base = stk.size() - nargs;

    // Spill caller-saved ($t) stack entries that live across the
    // call into scratch slots.
    for (std::size_t d = 0; d < base; ++d) {
        if (stk[d].kind == Operand::Reg && stk[d].reg >= R_T0 &&
            stk[d].reg <= R_T7) {
            a.store(Op::SW, stk[d].reg, R_FP,
                    scratchOff(static_cast<int>(d)));
            stk[d] = {Operand::Slot, 0, 0, static_cast<int>(d)};
        }
    }
    // Marshal arguments.
    for (std::uint32_t i = 0; i < nargs; ++i) {
        const Operand &o = stk[base + i];
        const auto areg = static_cast<std::uint8_t>(R_A0 + i);
        switch (o.kind) {
          case Operand::Reg:
            if (o.reg != areg)
                a.move(areg, o.reg);
            break;
          case Operand::Const:
            a.li(areg, o.imm);
            break;
          case Operand::Slot:
            a.load(Op::LW, areg, R_FP, scratchOff(o.slot));
            break;
        }
    }
    stk.resize(base);
    a.jal(static_cast<std::uint32_t>(inst.imm));
    if (callee.returnsValue) {
        const std::uint8_t dst = exprReg(stk.size());
        a.move(dst, R_V0);
        push({Operand::Reg, dst, 0, 0});
    }
}

void
MethodCompiler::emitBranch(std::int32_t at, const BcInst &inst)
{
    const Asm::Label target = targetLabel(at, inst.imm);

    if (inst.op == Bc::GOTO) {
        flushAll();
        a.jump(target);
        return;
    }

    // Pop the comparison operands, flush what stays live, branch.
    if (inst.op >= Bc::IF_ICMPEQ && inst.op <= Bc::IF_FCMPGE) {
        Operand b = pop();
        Operand a_op = pop();
        flushAll();
        const std::uint8_t ra = valueReg(a_op, kScr1);
        const std::uint8_t rb = valueReg(b, kScr2);
        switch (inst.op) {
          case Bc::IF_ICMPEQ: a.branch(Op::BEQ, ra, rb, target); break;
          case Bc::IF_ICMPNE: a.branch(Op::BNE, ra, rb, target); break;
          case Bc::IF_ICMPLT: a.branch(Op::BLT, ra, rb, target); break;
          case Bc::IF_ICMPGE: a.branch(Op::BGE, ra, rb, target); break;
          case Bc::IF_ICMPGT: a.branch(Op::BLT, rb, ra, target); break;
          case Bc::IF_ICMPLE: a.branch(Op::BGE, rb, ra, target); break;
          case Bc::IF_FCMPLT:
            a.aluRR(Op::FCLT, kScr1, ra, rb);
            a.branch(Op::BNE, kScr1, R_ZERO, target);
            break;
          case Bc::IF_FCMPGE:
            a.aluRR(Op::FCLT, kScr1, ra, rb);
            a.branch(Op::BEQ, kScr1, R_ZERO, target);
            break;
          default:
            panic("unexpected compare");
        }
        return;
    }

    // Single-operand compares against zero.
    Operand v = pop();
    flushAll();
    const std::uint8_t r = valueReg(v, kScr1);
    switch (inst.op) {
      case Bc::IFEQ: a.branch(Op::BEQ, r, R_ZERO, target); break;
      case Bc::IFNE: a.branch(Op::BNE, r, R_ZERO, target); break;
      case Bc::IFLT: a.branch(Op::BLTZ, r, 0, target); break;
      case Bc::IFGE: a.branch(Op::BGEZ, r, 0, target); break;
      case Bc::IFGT: a.branch(Op::BGTZ, r, 0, target); break;
      case Bc::IFLE: a.branch(Op::BLEZ, r, 0, target); break;
      default:
        panic("unexpected zero-compare");
    }
}

Asm::Label
MethodCompiler::targetLabel(std::int32_t src, std::int32_t dst)
{
    // Latch edge of a selected STL -> its EOI block.
    if (mode == CompileMode::Tls) {
        for (auto &[loopId, plan] : plans) {
            if (!plan.feasible)
                continue;
            if (dst == plan.loop->header &&
                plan.loop->body.count(src))
                return eoiLabel.at(loopId);
        }
        // Exit edge crossing a selected boundary -> SHUTDOWN.
        for (std::int32_t id : exitedLoops(src, dst)) {
            auto it = plans.find(id);
            if (it != plans.end() && it->second.feasible)
                return shutdownLabel.at(id);
        }
        // Entry into a selected STL by branch -> STARTUP.
        for (auto &[loopId, plan] : plans) {
            if (plan.feasible && dst == plan.loop->header &&
                !plan.loop->body.count(src))
                return startupLabel.at(loopId);
        }
        return bcLabel[dst];
    }

    if (mode == CompileMode::Profiling) {
        // Route loop-crossing edges through annotation thunks.
        const auto exited = exitedLoops(src, dst);
        const bool latch = [&] {
            for (const auto &l : nest.loops)
                if (l.header == dst && l.body.count(src))
                    return true;
            return false;
        }();
        if (!exited.empty() || latch) {
            auto key = std::make_pair(src, dst);
            auto it = edgeThunks.find(key);
            if (it != edgeThunks.end())
                return it->second;
            Asm::Label l = a.newLabel();
            edgeThunks[key] = l;
            pendingThunks.push_back({l, src, dst});
            return l;
        }
        // Entry by branch must pass the sloop instruction.
        for (const auto &l : nest.loops)
            if (l.header == dst && !l.body.count(src))
                return sloopLabel.at(l.loopId);
        return bcLabel[dst];
    }

    return bcLabel[dst];
}

void
MethodCompiler::emitReductionSlotAddr(SelPlan &plan,
                                      std::uint32_t slot,
                                      std::uint8_t dst)
{
    // dst = fp + redOff - 4*cpu_id
    a.mfc2(dst, Cp2Reg::CpuId);
    a.aluRI(Op::SLL, dst, dst, 2);
    a.aluRR(Op::SUBU, dst, R_FP, dst);
    a.aluRI(Op::ADDIU, dst, dst, plan.redOff.at(slot));
}

Op
MethodCompiler::reductionNativeOp(Bc red_op) const
{
    switch (red_op) {
      case Bc::IADD: return Op::ADDU;
      case Bc::FADD: return Op::FADD;
      case Bc::IMUL: return Op::MUL;
      case Bc::FMUL: return Op::FMUL;
      default:
        panic("bad reduction operator");
    }
}

void
MethodCompiler::emitSyncAcquire(SelPlan &plan)
{
    // Fig. 6: spin with lwnv until the lock equals our iteration.
    const std::uint8_t sreg = regMap.at(plan.syncSlot);
    a.mfc2(kScr1, Cp2Reg::Iteration);
    Asm::Label spin = a.newLabel();
    a.bind(spin);
    a.emit({Op::LWNV, kScr2, R_FP, 0, plan.lockOff, 0});
    a.branch(Op::BNE, kScr1, kScr2, spin);
    a.load(Op::LW, sreg, R_FP, homeOff(plan.syncSlot));
}

void
MethodCompiler::emitSyncRelease(SelPlan &plan)
{
    a.mfc2(kScr1, Cp2Reg::Iteration);
    a.aluRI(Op::ADDIU, kScr1, kScr1, 1);
    a.store(Op::SW, kScr1, R_FP, plan.lockOff);
}

void
MethodCompiler::emitStlStartup(SelPlan &plan)
{
    const std::int32_t loopId = plan.loop->loopId;
    startupLabel[loopId] = a.newLabel();
    eoiLabel[loopId] = a.newLabel();
    shutdownLabel[loopId] = a.newLabel();
    Asm::Label SLAVE = a.newLabel();
    Asm::Label RESTART = a.newLabel();
    Asm::Label INIT = a.newLabel();

    a.bind(startupLabel[loopId]);

    if (plan.isInner) {
        // §4.2.6: become the outer head, park the peers, retarget
        // speculation onto this inner loop.
        a.scop(ScopCmd::WaitHead);
        a.scop(ScopCmd::SwitchBegin);
        // Spill the complete live register state so whichever CPU
        // adopts this outer iteration after the inner STL can pick
        // it up exactly (homes alone won't do: inductor homes must
        // keep their pre-loop base for the peers' STL_INIT).
        const SelPlan &outer = plans.at(plan.outerLoopId);
        int k = 0;
        for (const auto &[slot, sreg] : regMap)
            a.store(Op::SW, sreg, R_FP,
                    outer.switchSaveOff - 4 * k++);
    }

    // Publish register-cached state for the slaves (and, for inner
    // STLs, for whoever adopts this outer iteration afterwards).
    for (const auto &[slot, sreg] : regMap)
        a.store(Op::SW, sreg, R_FP, homeOff(slot));
    // Initialize special slots.
    if (plan.syncFirst >= 0)
        a.store(Op::SW, R_ZERO, R_FP, plan.lockOff);
    for (const auto &[slot, base] : plan.resetOff) {
        a.store(Op::SW, regMap.at(slot), R_FP, base);
        a.store(Op::SW, R_ZERO, R_FP, base - 4);
    }
    for (const auto &[slot, base] : plan.redOff) {
        const LoopVarPlan &vp = plan.vars.at(slot);
        std::uint8_t id_reg = R_ZERO;
        if (vp.redOp == Bc::IMUL) {
            a.li(kScr1, 1);
            id_reg = kScr1;
        } else if (vp.redOp == Bc::FMUL) {
            a.li(kScr1, static_cast<std::int32_t>(floatToWord(1.0f)));
            id_reg = kScr1;
        }
        for (std::uint32_t c = 0; c < SystemConfig::numCpus; ++c)
            a.store(Op::SW, id_reg, R_FP,
                    base - 4 * static_cast<std::int32_t>(c));
    }

    a.mtc2(R_FP, Cp2Reg::SavedFp);
    a.mtc2(R_GP, Cp2Reg::SavedGp);
    if (plan.isInner) {
        a.scopT(ScopCmd::SwitchEnable, RESTART, loopId);
    } else {
        a.scopT(ScopCmd::EnableSpec, RESTART, loopId);
        if (plan.opt.hoistHandlers && cfg.optHoistHandlers)
            a.lastInst().rs |= 1;
    }
    a.scopT(ScopCmd::WakeSlaves, SLAVE);
    a.jump(INIT);

    a.bind(SLAVE);
    a.mfc2(R_FP, Cp2Reg::SavedFp);
    a.mfc2(R_GP, Cp2Reg::SavedGp);
    a.aluRI(Op::ADDIU, R_SP, R_FP,
            -static_cast<std::int32_t>(frameBytes));
    a.jump(INIT);

    a.bind(RESTART);
    a.scop(ScopCmd::ResetCache);
    a.smem(SmemCmd::KillBuffer);
    a.mfc2(R_FP, Cp2Reg::SavedFp);
    a.mfc2(R_GP, Cp2Reg::SavedGp);
    a.aluRI(Op::ADDIU, R_SP, R_FP,
            -static_cast<std::int32_t>(frameBytes));
    a.jump(INIT);

    a.bind(INIT);
    emitStlInit(plan);
    // Falls through into the loop header (TOP = bcLabel[header]).
}

void
MethodCompiler::emitResetableCompute(SelPlan &plan,
                                     std::uint32_t slot,
                                     const LoopVarPlan &vp)
{
    // value = baseVal + step * (iteration - baseIter).  The loads of
    // the base slots set speculative read bits, so a reset by an
    // earlier thread violates and corrects every later thread —
    // which is why this runs at the start of EVERY iteration, not
    // just at STL_INIT (a local '+= step*N' advance would silently
    // miss a reset).
    const std::uint8_t sreg = regMap.at(slot);
    const std::int32_t base = plan.resetOff.at(slot);
    a.load(Op::LW, kScr2, R_FP, base - 4);
    a.mfc2(kScr1, Cp2Reg::Iteration);
    a.aluRR(Op::SUBU, kScr1, kScr1, kScr2);
    a.li(kScr2, vp.step);
    a.aluRR(Op::MUL, kScr1, kScr1, kScr2);
    a.load(Op::LW, kScr2, R_FP, base);
    a.aluRR(Op::ADDU, sreg, kScr1, kScr2);
}

void
MethodCompiler::emitStlInit(SelPlan &plan)
{
    for (const auto &[slot, vp] : plan.vars) {
        if (!regMap.count(slot))
            continue;
        const std::uint8_t sreg = regMap.at(slot);
        switch (vp.cls) {
          case VarClass::Invariant:
          case VarClass::Carried:
            a.load(Op::LW, sreg, R_FP, homeOff(slot));
            break;
          case VarClass::Inductor:
            // value = home + step * iteration
            a.mfc2(kScr1, Cp2Reg::Iteration);
            a.li(kScr2, vp.step);
            a.aluRR(Op::MUL, kScr1, kScr1, kScr2);
            a.load(Op::LW, sreg, R_FP, homeOff(slot));
            a.aluRR(Op::ADDU, sreg, sreg, kScr1);
            break;
          case VarClass::Resetable:
            emitResetableCompute(plan, slot, vp);
            break;
          case VarClass::Reduction:
            emitReductionSlotAddr(plan, slot, kScr1);
            a.load(Op::LW, sreg, kScr1, 0);
            break;
          case VarClass::CarriedSync:
          case VarClass::Private:
          case VarClass::InvariantMem:
          case VarClass::Memory:
            break;
        }
    }
}

void
MethodCompiler::storeResultsAndReloadMapped(SelPlan &plan)
{
    // Results of the loop back to the homes...
    for (const auto &[slot, vp] : plan.vars) {
        if (!regMap.count(slot))
            continue;
        const std::uint8_t sreg = regMap.at(slot);
        switch (vp.cls) {
          case VarClass::Inductor:
          case VarClass::Resetable:
          case VarClass::Carried:
            a.store(Op::SW, sreg, R_FP, homeOff(slot));
            break;
          case VarClass::Reduction: {
            // home = home (x) slot[0] (x) ... (x) slot[N-1]
            const Op acc = reductionNativeOp(vp.redOp);
            a.load(Op::LW, sreg, R_FP, homeOff(slot));
            for (std::uint32_t c = 0; c < SystemConfig::numCpus; ++c) {
                a.load(Op::LW, kScr1, R_FP,
                       plan.redOff.at(slot) -
                           4 * static_cast<std::int32_t>(c));
                a.aluRR(acc, sreg, sreg, kScr1);
            }
            a.store(Op::SW, sreg, R_FP, homeOff(slot));
            break;
          }
          case VarClass::CarriedSync:
            // The failing iteration never acquired; the home holds
            // the final released value.
            break;
          default:
            break;
        }
    }
    // ... then a full reload so an exiting slave CPU has every
    // register-cached local correct for the post-loop code.
    for (const auto &[slot, sreg] : regMap)
        a.load(Op::LW, sreg, R_FP, homeOff(slot));
    a.load(Op::LW, R_RA, R_FP, -4);
}

void
MethodCompiler::emitStlBlocks(SelPlan &plan)
{
    const std::int32_t loopId = plan.loop->loopId;

    // ---- EOI --------------------------------------------------------
    a.bind(eoiLabel.at(loopId));
    for (const auto &[slot, vp] : plan.vars) {
        if (!regMap.count(slot))
            continue;
        const std::uint8_t sreg = regMap.at(slot);
        if (vp.cls == VarClass::Reduction) {
            emitReductionSlotAddr(plan, slot, kScr1);
            a.store(Op::SW, sreg, kScr1, 0);
        }
    }
    if (plan.syncFirst >= 0)
        emitSyncRelease(plan); // idempotent safety release
    a.scop(ScopCmd::WaitHead);
    a.smem(SmemCmd::CommitBufferAndHead);
    a.scop(ScopCmd::AdvanceCache);
    // Reload carried values, recompute inductors for the new
    // iteration number, and recompute reset-able inductors.  The
    // inductor recompute (home + step * iteration, as at STL_INIT)
    // rather than a baked-in step*numCpus register advance keeps the
    // value correct for any iteration-assignment pattern, including
    // the governor's head-only degraded mode.
    for (const auto &[slot, vp] : plan.vars) {
        if (!regMap.count(slot))
            continue;
        if (vp.cls == VarClass::Carried) {
            a.load(Op::LW, regMap.at(slot), R_FP, homeOff(slot));
        } else if (vp.cls == VarClass::Inductor) {
            const std::uint8_t sreg = regMap.at(slot);
            a.mfc2(kScr1, Cp2Reg::Iteration);
            a.li(kScr2, vp.step);
            a.aluRR(Op::MUL, kScr1, kScr1, kScr2);
            a.load(Op::LW, sreg, R_FP, homeOff(slot));
            a.aluRR(Op::ADDU, sreg, sreg, kScr1);
        } else if (vp.cls == VarClass::Resetable) {
            emitResetableCompute(plan, slot, vp);
        }
    }
    a.jump(bcLabel[plan.loop->header]);

    // ---- SHUTDOWN ---------------------------------------------------
    a.bind(shutdownLabel.at(loopId));
    a.scop(ScopCmd::WaitHead);
    a.smem(SmemCmd::CommitBuffer);
    if (plan.isInner) {
        const SelPlan &outer = plans.at(plan.outerLoopId);
        // Inner results back to the homes...
        storeResultsAndReloadMapped(plan);
        // ...then adopt the switching CPU's live state wholesale...
        int k = 0;
        for (const auto &[slot, sreg] : regMap)
            a.load(Op::LW, sreg, R_FP,
                   outer.switchSaveOff - 4 * k++);
        // ...overridden by what the inner loop itself produced.
        for (const auto &[slot, vp] : plan.vars) {
            if (!regMap.count(slot))
                continue;
            if (vp.cls == VarClass::Carried ||
                vp.cls == VarClass::CarriedSync ||
                vp.cls == VarClass::Inductor ||
                vp.cls == VarClass::Resetable ||
                vp.cls == VarClass::Reduction)
                a.load(Op::LW, regMap.at(slot), R_FP,
                       homeOff(slot));
        }
        a.load(Op::LW, R_RA, R_FP, -4);
        a.scop(ScopCmd::SwitchShutdown);
        // The switch published live values into the homes; restore
        // the outer inductors' bases (peers recompute their value
        // as home + step * iteration at STL_INIT).  The racing
        // peers are corrected by the normal RAW violation path.
        for (const auto &[slot, vp] : outer.vars) {
            if (vp.cls != VarClass::Inductor || !regMap.count(slot))
                continue;
            a.mfc2(kScr1, Cp2Reg::Iteration);
            a.li(kScr2, vp.step);
            a.aluRR(Op::MUL, kScr1, kScr1, kScr2);
            a.aluRR(Op::SUBU, kScr1, regMap.at(slot), kScr1);
            a.store(Op::SW, kScr1, R_FP, homeOff(slot));
        }
    } else {
        a.scop(ScopCmd::DisableSpec);
        a.scop(ScopCmd::KillSlaves);
        storeResultsAndReloadMapped(plan);
    }
    a.jump(bcLabel[plan.exitTarget]);
}

void
MethodCompiler::emitBc(std::int32_t at)
{
    const BcInst &inst = m.code[at];
    SelPlan *plan = mode == CompileMode::Tls ? planAt(at) : nullptr;

    // Sync-lock acquire before the first access of the protected
    // variable (§4.2.4).
    if (plan && plan->syncFirst == at && cfg.optSyncLocks)
        emitSyncAcquire(*plan);

    switch (inst.op) {
      case Bc::ICONST:
        push({Operand::Const, 0, inst.imm, 0});
        break;
      case Bc::FCONST:
        push({Operand::Const, 0, inst.imm, 0});
        break;
      case Bc::LOAD:
        emitLoadLocal(at, inst.imm);
        break;
      case Bc::STORE:
        emitStoreLocal(at, inst.imm);
        break;
      case Bc::IINC:
        emitIinc(at, inst.imm, inst.imm2);
        break;
      case Bc::IADD: case Bc::ISUB: case Bc::IMUL: case Bc::IDIV:
      case Bc::IREM: case Bc::IAND: case Bc::IOR: case Bc::IXOR:
      case Bc::ISHL: case Bc::ISHR: case Bc::IUSHR:
      case Bc::FADD: case Bc::FSUB: case Bc::FMUL: case Bc::FDIV:
        emitAlu(inst.op);
        break;
      case Bc::INEG: {
        Operand v = pop();
        if (v.kind == Operand::Const) {
            push({Operand::Const, 0, -v.imm, 0});
            break;
        }
        const std::uint8_t dst = exprReg(stk.size());
        a.aluRR(Op::SUBU, dst, R_ZERO, valueReg(v, kScr1));
        push({Operand::Reg, dst, 0, 0});
        break;
      }
      case Bc::FNEG: {
        Operand v = pop();
        const std::uint8_t dst = exprReg(stk.size());
        a.aluRR(Op::FNEG, dst, valueReg(v, kScr1), 0);
        push({Operand::Reg, dst, 0, 0});
        break;
      }
      case Bc::I2F: {
        Operand v = pop();
        const std::uint8_t dst = exprReg(stk.size());
        a.aluRR(Op::CVTSW, dst, valueReg(v, kScr1), 0);
        push({Operand::Reg, dst, 0, 0});
        break;
      }
      case Bc::F2I: {
        Operand v = pop();
        const std::uint8_t dst = exprReg(stk.size());
        a.aluRR(Op::CVTWS, dst, valueReg(v, kScr1), 0);
        push({Operand::Reg, dst, 0, 0});
        break;
      }
      case Bc::GOTO:
      case Bc::IFEQ: case Bc::IFNE: case Bc::IFLT: case Bc::IFGE:
      case Bc::IFGT: case Bc::IFLE:
      case Bc::IF_ICMPEQ: case Bc::IF_ICMPNE: case Bc::IF_ICMPLT:
      case Bc::IF_ICMPGE: case Bc::IF_ICMPGT: case Bc::IF_ICMPLE:
      case Bc::IF_FCMPLT: case Bc::IF_FCMPGE:
        emitBranch(at, inst);
        break;
      case Bc::NEWARRAY: {
        Operand len = pop();
        const std::uint8_t r = valueReg(len, kScr1);
        if (r != R_A1)
            a.move(R_A1, r);
        a.li(R_A0, inst.imm == 1 ? 1 : 4);
        a.trap(TrapId::AllocArray);
        const std::uint8_t dst = exprReg(stk.size());
        a.move(dst, R_V0);
        push({Operand::Reg, dst, 0, 0});
        break;
      }
      case Bc::ARRAYLEN: {
        Operand ref = pop();
        const std::uint8_t r = valueReg(ref, kScr1);
        emitNullCheck(r);
        const std::uint8_t dst = exprReg(stk.size());
        a.load(Op::LW, dst, r, -4);
        push({Operand::Reg, dst, 0, 0});
        break;
      }
      case Bc::IALOAD: case Bc::BALOAD: {
        Operand idx = pop();
        Operand ref = pop();
        const std::uint8_t dst = exprReg(stk.size());
        const std::uint8_t rr = valueReg(ref, kScr1);
        emitNullCheck(rr);
        // Materialize the index into the (free) destination register
        // when needed: kScr2 is consumed by the bounds check.
        const std::uint8_t ri = valueReg(idx, dst);
        emitBoundsCheck(rr, ri);
        if (inst.op == Bc::IALOAD) {
            a.aluRI(Op::SLL, kScr2, ri, 2);
            a.aluRR(Op::ADDU, kScr2, kScr2, rr);
            a.load(Op::LW, dst, kScr2, 0);
        } else {
            a.aluRR(Op::ADDU, kScr2, ri, rr);
            a.load(Op::LBU, dst, kScr2, 0);
        }
        push({Operand::Reg, dst, 0, 0});
        break;
      }
      case Bc::IASTORE: case Bc::BASTORE: {
        Operand val = pop();
        Operand idx = pop();
        Operand ref = pop();
        // Three registers beyond the live stack are free; kScr2 is
        // consumed by the bounds check and the address computation.
        std::uint8_t rv;
        if (val.kind == Operand::Reg) {
            rv = val.reg;
        } else {
            rv = exprReg(stk.size() + 2);
            if (val.kind == Operand::Const)
                a.li(rv, val.imm);
            else
                a.load(Op::LW, rv, R_FP, scratchOff(val.slot));
        }
        const std::uint8_t rr = valueReg(ref, kScr1);
        emitNullCheck(rr);
        const std::uint8_t ri = valueReg(idx, exprReg(stk.size() + 1));
        emitBoundsCheck(rr, ri);
        if (inst.op == Bc::IASTORE) {
            a.aluRI(Op::SLL, kScr2, ri, 2);
            a.aluRR(Op::ADDU, kScr2, kScr2, rr);
            a.store(Op::SW, rv, kScr2, 0);
        } else {
            a.aluRR(Op::ADDU, kScr2, ri, rr);
            a.store(Op::SB, rv, kScr2, 0);
        }
        break;
      }
      case Bc::NEW: {
        const BcClass &cls = prog.classes[inst.imm];
        a.li(R_A0, inst.imm);
        a.li(R_A1, static_cast<std::int32_t>(cls.payloadWords));
        a.trap(TrapId::AllocObject);
        const std::uint8_t dst = exprReg(stk.size());
        a.move(dst, R_V0);
        push({Operand::Reg, dst, 0, 0});
        break;
      }
      case Bc::GETF: {
        Operand ref = pop();
        const std::uint8_t rr = valueReg(ref, kScr1);
        emitNullCheck(rr);
        const std::uint8_t dst = exprReg(stk.size());
        a.load(Op::LW, dst, rr, 4 * inst.imm);
        push({Operand::Reg, dst, 0, 0});
        break;
      }
      case Bc::PUTF: {
        Operand val = pop();
        Operand ref = pop();
        const std::uint8_t rv = valueReg(val, kScr2);
        const std::uint8_t rr = valueReg(ref, kScr1);
        emitNullCheck(rr);
        a.store(Op::SW, rv, rr, 4 * inst.imm);
        break;
      }
      case Bc::GETSTATIC: {
        const std::uint8_t dst = exprReg(stk.size());
        a.load(Op::LW, dst, R_GP, 4 * inst.imm);
        push({Operand::Reg, dst, 0, 0});
        break;
      }
      case Bc::PUTSTATIC: {
        Operand v = pop();
        a.store(Op::SW, valueReg(v, kScr1), R_GP, 4 * inst.imm);
        break;
      }
      case Bc::CALL:
        emitCall(inst);
        break;
      case Bc::RET:
        emitEpilogue(false);
        break;
      case Bc::IRET:
        emitEpilogue(true);
        break;
      case Bc::POP:
        pop();
        break;
      case Bc::DUP: {
        Operand v = stk.back();
        if (v.kind == Operand::Const) {
            push(v);
            break;
        }
        materialize(stk.size() - 1);
        const std::uint8_t dst = exprReg(stk.size());
        a.move(dst, stk.back().reg);
        push({Operand::Reg, dst, 0, 0});
        break;
      }
      case Bc::SYNC_ENTER:
        a.li(R_A0, inst.imm);
        a.trap(TrapId::MonitorEnter);
        break;
      case Bc::SYNC_EXIT:
        a.li(R_A0, inst.imm);
        a.trap(TrapId::MonitorExit);
        break;
      case Bc::THROW: {
        Operand v = pop();
        const std::uint8_t r = valueReg(v, kScr1);
        if (r != R_A1)
            a.move(R_A1, r);
        a.li(R_A0, inst.imm);
        a.trap(TrapId::Throw);
        break;
      }
      case Bc::PRINT: {
        Operand v = pop();
        const std::uint8_t r = valueReg(v, kScr1);
        if (r != R_A0)
            a.move(R_A0, r);
        a.trap(TrapId::PrintInt);
        break;
      }
      case Bc::SAFEPOINT:
        a.trap(TrapId::GcSafepoint);
        break;
      case Bc::BCNOP:
        a.nop();
        break;
    }

    // Sync-lock release directly after the protected variable's last
    // store.
    if (plan && plan->syncLastStore == at && cfg.optSyncLocks)
        emitSyncRelease(*plan);
}

void
MethodCompiler::emitThunksAndBlocks()
{
    // Profiling-mode edge thunks: close out every loop the edge
    // leaves (innermost first) and mark the iteration boundary if the
    // edge is a latch.
    for (const auto &t : pendingThunks) {
        a.bind(t.label);
        for (std::int32_t id : exitedLoops(t.src, t.dst))
            a.eloop(id);
        for (const auto &l : nest.loops)
            if (l.header == t.dst && l.body.count(t.src))
                a.eoi(l.loopId);
        a.jump(bcLabel[t.dst]);
    }

    // TLS EOI/SHUTDOWN blocks.
    if (mode == CompileMode::Tls)
        for (auto &[loopId, plan] : plans)
            if (plan.feasible)
                emitStlBlocks(plan);

    // Per-site throw blocks (aux maps back to the faulting pc).
    for (const auto &site : throwSites) {
        a.bind(site.label);
        a.li(R_A0, site.kind);
        a.li(R_A1, 0);
        a.emit({Op::TRAP, 0, 0, 0,
                static_cast<std::int32_t>(TrapId::Throw), 0,
                static_cast<std::int32_t>(encodePc(
                    {methodId,
                     site.faultNative}))});
    }
}

NativeCode
MethodCompiler::compile()
{
    const auto n = static_cast<std::int32_t>(m.code.size());
    bcLabel.resize(m.code.size());
    for (auto &l : bcLabel)
        l = a.newLabel();
    nativePosOfBc.assign(m.code.size() + 1, 0);

    emitPrologue();

    // Profiling mode: pre-create sloop entry labels.
    if (mode == CompileMode::Profiling)
        for (const auto &l : nest.loops)
            sloopLabel[l.loopId] = a.newLabel();

    for (std::int32_t i = 0; i < n; ++i) {
        // Loop-header prologues come before the header's own label so
        // that fall-through entry passes through them.
        if (mode == CompileMode::Tls) {
            auto it = std::find_if(
                plans.begin(), plans.end(), [&](const auto &kv) {
                    return kv.second.feasible &&
                           kv.second.loop->header == i;
                });
            if (it != plans.end()) {
                flushAll();
                emitStlStartup(it->second);
            }
        } else if (mode == CompileMode::Profiling) {
            for (const auto &l : nest.loops) {
                if (l.header != i)
                    continue;
                flushAll();
                a.bind(sloopLabel.at(l.loopId));
                a.sloop(l.loopId,
                        static_cast<std::uint8_t>(regMap.size()));
            }
        }

        // Block boundary: flush so every predecessor agrees, then
        // adopt the verified depth (branch-only joins may differ
        // from the linear predecessor's depth).
        flushAll();
        const int want = bcDepth[i] < 0 ? 0 : bcDepth[i];
        if (static_cast<int>(stk.size()) != want) {
            stk.clear();
            for (int d = 0; d < want; ++d)
                stk.push_back({Operand::Reg, exprReg(d), 0, 0});
        }
        a.bind(bcLabel[i]);
        nativePosOfBc[i] = a.here();
        emitBc(i);

        // Fall-through edges crossing loop boundaries go through the
        // same routing as branches.
        const BcInst &inst = m.code[i];
        if (!bcIsTerminator(inst.op) && i + 1 < n) {
            const bool crossing =
                !exitedLoops(i, i + 1).empty() ||
                [&] {
                    for (const auto &l : nest.loops)
                        if (l.header == i + 1 && l.body.count(i))
                            return true;
                    return false;
                }();
            if (crossing) {
                flushAll();
                a.jump(targetLabel(i, i + 1));
            }
        }
    }
    nativePosOfBc[n] = a.here();

    emitThunksAndBlocks();

    // Catch table: map bytecode ranges to native ranges via shims
    // that move the exception value onto the operand stack.
    for (const auto &c : m.catches) {
        Asm::Label shim = a.newLabel();
        a.bind(shim);
        a.move(kExprRegs[0], R_V0);
        a.jump(bcLabel[c.handler]);
        a.addCatchRaw(nativePosOfBc[c.begin], nativePosOfBc[c.end],
                      a.positionOf(shim), c.kind);
    }

    a.setFrameBytes(frameBytes);
    return a.finish();
}

} // namespace

// ---------------------------------------------------------------------
// Jit driver
// ---------------------------------------------------------------------

Jit::Jit(const BcProgram &program, const JitConfig &config)
    : prog(program), cfg(config)
{
    const std::string err = verify(prog);
    if (!err.empty())
        fatal("bytecode verification failed: %s", err.c_str());
    if (cfg.inlineSmallMethods)
        inlinePass();

    std::int32_t next_id = 0;
    nests.reserve(prog.methods.size());
    for (std::uint32_t mi = 0; mi < prog.methods.size(); ++mi) {
        nests.push_back(findLoops(prog.methods[mi], next_id));
        for (const auto &l : nests.back().loops) {
            next_id = std::max(next_id, l.loopId + 1);
            loopInfoList.push_back({l.loopId, l.parent, mi});
        }
    }
}

std::size_t
Jit::bytecodeCount() const
{
    std::size_t c = 0;
    for (const auto &mm : prog.methods)
        c += mm.code.size();
    return c;
}

void
Jit::inlinePass()
{
    // Bytecode-level inlining of tiny leaf methods whose single
    // return is the last instruction: the call site becomes
    // [STORE arg(n-1) .. STORE arg0][body without the return], with
    // callee locals remapped to fresh slots.  An IRET callee simply
    // leaves its value on the operand stack.
    auto inlinable = [&](std::uint32_t id) {
        const BcMethod &c = prog.methods[id];
        if (c.code.size() > cfg.inlineMaxBytecodes ||
            c.code.empty())
            return false;
        if (!c.catches.empty() || c.isSynchronized)
            return false;
        const Bc last = c.code.back().op;
        if (last != Bc::RET && last != Bc::IRET)
            return false;
        for (std::size_t j = 0; j + 1 < c.code.size(); ++j) {
            const Bc op = c.code[j].op;
            if (op == Bc::CALL || op == Bc::THROW || op == Bc::RET ||
                op == Bc::IRET)
                return false;
        }
        return true;
    };

    for (auto &mm : prog.methods) {
        // New index of each old instruction.
        std::vector<std::int32_t> remap(mm.code.size() + 1, 0);
        std::vector<std::int32_t> sizes(mm.code.size(), 1);
        std::int32_t pos = 0;
        bool any = false;
        for (std::size_t i = 0; i < mm.code.size(); ++i) {
            remap[i] = pos;
            const BcInst &inst = mm.code[i];
            if (inst.op == Bc::CALL &&
                inlinable(static_cast<std::uint32_t>(inst.imm))) {
                const BcMethod &c = prog.methods[inst.imm];
                sizes[i] = static_cast<std::int32_t>(
                    c.numArgs + c.code.size() - 1);
                if (sizes[i] == 0)
                    sizes[i] = 1; // degenerate: keep a NOP
                any = true;
            }
            pos += sizes[i];
        }
        remap[mm.code.size()] = pos;
        if (!any)
            continue;

        std::vector<BcInst> out;
        out.reserve(static_cast<std::size_t>(pos));
        std::uint32_t extra_base = mm.numLocals;
        for (std::size_t i = 0; i < mm.code.size(); ++i) {
            const BcInst &inst = mm.code[i];
            if (!(inst.op == Bc::CALL &&
                  inlinable(static_cast<std::uint32_t>(inst.imm)))) {
                BcInst copy = inst;
                if (bcIsBranch(copy.op))
                    copy.imm = remap[copy.imm];
                out.push_back(copy);
                continue;
            }
            const BcMethod &c = prog.methods[inst.imm];
            if (c.numArgs + c.code.size() - 1 == 0) {
                out.push_back({Bc::BCNOP, 0, 0});
                continue;
            }
            const std::uint32_t lbase = extra_base;
            extra_base += c.numLocals;
            // Pop the arguments into the remapped callee locals
            // (top of stack is the last argument).
            for (std::uint32_t k = c.numArgs; k-- > 0;)
                out.push_back({Bc::STORE,
                               static_cast<std::int32_t>(lbase + k),
                               0});
            const std::int32_t body_base =
                remap[i] + static_cast<std::int32_t>(c.numArgs);
            for (std::size_t j = 0; j + 1 < c.code.size(); ++j) {
                BcInst ci = c.code[j];
                if (ci.op == Bc::LOAD || ci.op == Bc::STORE ||
                    ci.op == Bc::IINC) {
                    ci.imm += static_cast<std::int32_t>(lbase);
                } else if (bcIsBranch(ci.op)) {
                    // Branches to the trailing return leave the
                    // splice; everything else stays inside it.
                    ci.imm = body_base + ci.imm;
                }
                out.push_back(ci);
            }
        }
        for (BcCatch &c : mm.catches) {
            c.begin = remap[c.begin];
            c.end = remap[c.end];
            c.handler = remap[c.handler];
        }
        mm.numLocals = extra_base;
        mm.code = std::move(out);
    }
    const std::string err = verify(prog);
    if (!err.empty())
        fatal("inlining produced invalid bytecode: %s", err.c_str());
}

void
Jit::compileAll(CodeSpace &cs, CompileMode mode,
                const std::vector<StlRequest> &stls)
{
    nEmitted = 0;
    // Group the selections by method.
    std::vector<std::map<std::int32_t, OptPlan>> byMethod(
        prog.methods.size());
    for (const auto &req : stls) {
        for (std::uint32_t mi = 0; mi < prog.methods.size(); ++mi)
            for (const auto &l : nests[mi].loops)
                if (l.loopId == req.loopId)
                    byMethod[mi][req.loopId] = req.plan;
    }

    const bool fresh = cs.numMethods() == 0;
    for (std::uint32_t mi = 0; mi < prog.methods.size(); ++mi) {
        MethodCompiler mc(prog, mi, nests[mi], mode, cfg,
                          byMethod[mi]);
        NativeCode code = mc.compile();
        nEmitted += code.insts.size();
        if (fresh)
            cs.install(std::move(code));
        else
            cs.replace(mi, std::move(code));
    }

    JRPM_TRACE(Trace::kHostTrack,
               fresh ? TraceEvt::JitCompile : TraceEvt::JitRecompile,
               0, static_cast<std::int32_t>(mode), nEmitted,
               static_cast<std::uint32_t>(prog.methods.size()));
    auto &reg = MetricsRegistry::global();
    reg.counter("jit.compiles").inc();
    switch (mode) {
      case CompileMode::Plain:
        reg.counter("jit.compiles.plain").inc();
        break;
      case CompileMode::Profiling:
        reg.counter("jit.compiles.profiling").inc();
        break;
      case CompileMode::Tls:
        reg.counter("jit.compiles.tls").inc();
        reg.counter("jit.stl_requests").inc(stls.size());
        break;
    }
    reg.counter("jit.insts_emitted").inc(nEmitted);
}

} // namespace jrpm

#include "machine.hh"

#include <algorithm>

#include "common/hostprof.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"

namespace jrpm
{

namespace
{

/** Sign-extend the low @p bits of @p v. */
Word
sext(Word v, unsigned bits)
{
    const Word m = 1u << (bits - 1);
    v &= (1u << bits) - 1;
    return (v ^ m) - m;
}

/** Classify a data-memory op: direction and access width. */
bool
memOpClass(Op op, bool &store, std::uint32_t &len)
{
    switch (op) {
      case Op::LW: case Op::LWNV: store = false; len = 4; return true;
      case Op::LH: case Op::LHU:  store = false; len = 2; return true;
      case Op::LB: case Op::LBU:  store = false; len = 1; return true;
      case Op::SW: store = true; len = 4; return true;
      case Op::SH: store = true; len = 2; return true;
      case Op::SB: store = true; len = 1; return true;
      default: return false;
    }
}

} // namespace

const char *
excKindName(ExcKind kind)
{
    switch (kind) {
      case ExcKind::Null: return "null";
      case ExcKind::Bounds: return "bounds";
      case ExcKind::Arithmetic: return "arithmetic";
      case ExcKind::User: return "user";
      case ExcKind::Watchdog: return "watchdog";
    }
    return "?";
}

Machine::Machine(const SystemConfig &config)
    : cfg(config),
      mem(config.memBytes),
      l2(config.l2Bytes, config.specBuffers.lineBytes, config.l2Assoc)
{
    // Batch accounting adds specShare*k at once where step() adds
    // specShare k times; that is bit-identical only when the share is
    // exactly representable.
    static_assert((SystemConfig::numCpus &
                   (SystemConfig::numCpus - 1)) == 0,
                  "fast dispatch needs 1/numCpus exactly representable: "
                  "numCpus must be a power of two");
    cores.reserve(cfg.numCpus);
    for (std::uint32_t i = 0; i < cfg.numCpus; ++i)
        cores.emplace_back(i, cfg);
    burstRunners.reserve(cfg.numCpus);
    roundMem.reserve(cfg.numCpus);
}

void
Machine::start(std::uint32_t method_id, const std::vector<Word> &args,
               Addr stack_top)
{
    if (args.size() > 4)
        fatal("start() supports at most 4 register arguments");
    for (auto &c : cores) {
        c.mode = CpuMode::Parked;
        c.regs.fill(0);
        c.stall = StallKind::None;
        c.stallCycles = 0;
        c.clearSpecState();
        c.tentativeRun = c.tentativeWait = 0;
        c.iteration = 0;
        c.traceState = TraceState::Idle;
        c.tentStart = cycle;
    }
    Core &c0 = cores[0];
    c0.mode = CpuMode::Sequential;
    c0.pc = {method_id, 0};
    c0.regs[R_SP] = stack_top;
    c0.regs[R_FP] = stack_top;
    c0.regs[R_RA] = kReturnSentinel;
    for (std::size_t i = 0; i < args.size(); ++i)
        c0.regs[R_A0 + i] = args[i];
    seqCpu = 0;
    specActive = false;
    curLs = nullptr;
    contextStack.clear();
    uncaughtExc = false;
    lastHeadProgress = cycle;
    watchdogTripped = false;
    soloMode = false;
    governorBlacklist.clear();
}

bool
Machine::halted() const
{
    return cores[seqCpu].mode == CpuMode::Halted;
}

bool
Machine::run(std::uint64_t max_cycles)
{
    {
        JRPM_HPROF(MachineRun);
        while (!halted() && max_cycles) {
            const std::uint64_t n = advance(max_cycles);
            if (n == 0)
                break;
            max_cycles -= n;
        }
        // Re-emit each CPU's current state so the exporter can close
        // the final spans at the last simulated cycle, not the last
        // change.
        if (JRPM_TRACE_ON())
            for (const auto &c : cores)
                JRPM_TRACE(static_cast<std::uint8_t>(c.id),
                           TraceEvt::StateChange, cycle,
                           static_cast<std::int32_t>(c.traceState));
    }
    // run() is a thread drain point: merge this thread's host-cycle
    // attribution so concurrent pipelines publish consistent totals.
    if (hostprof::enabled())
        hostprof::flushThread();
    return halted();
}

void
Machine::step()
{
    ++cycle;
    if (fault && fault->armed())
        pollFaults();
    if (specActive &&
        cycle - lastHeadProgress > cfg.watchdog.noProgressCycles) {
        watchdogFire();
        return;
    }
    for (auto &c : cores)
        stepCpu(c);
}

// ---------------------------------------------------------------------
// Event-horizon fast path
//
// run() advances through advance(), which consumes 1..budget cycles
// with accounting bit-identical to that many step() calls.  Cycles
// where something order-sensitive happens (speculation control,
// speculative memory ops the signatures cannot prove core-local,
// squashes, resolvable waits, armed fault injectors) always go
// through step() itself; everything in between is batched or burst.
// See DESIGN.md, "Simulator dispatch".
// ---------------------------------------------------------------------

bool
Machine::frameReady(Core &c)
{
    if (c.frameMethod != c.pc.method ||
        c.frameGen != code.generation()) {
        const NativeCode &m = code.method(c.pc.method);
        c.frameBase = m.insts.data();
        c.frameSpecClass = m.specClass.data();
        c.frameLinearRun = m.linearRun.data();
        c.frameLen = static_cast<std::uint32_t>(m.insts.size());
        c.frameMethod = c.pc.method;
        c.frameGen = code.generation();
    }
    return static_cast<std::uint32_t>(c.pc.index) < c.frameLen;
}

bool
Machine::burstStop(const Inst &inst) const
{
    // Speculation control reorders cross-core state (commits,
    // wakeups, parks); always resolved through step().  Everything
    // else is core-local outside speculation.
    return inst.op == Op::SCOP || inst.op == Op::SMEM;
}

bool
Machine::memEligibleFast(const Core &c, Op op, bool store, Addr addr,
                         std::uint32_t len) const
{
    if (c.mode != CpuMode::Speculative || c.directMode)
        return false;
    if (addr % len != 0 || !mem.valid(addr, len))
        return false; // would fault: keep the exact dispatch order
    if (store) {
        if (c.buffer.wouldOverflow(addr))
            return false;
        // Provably victim-free: the stored word misses every
        // more-speculative core's read-set signature, so the
        // violation broadcast cannot squash anyone mid-window.
        for (const auto &d : cores) {
            if (d.id == c.id || d.mode != CpuMode::Speculative ||
                d.iteration <= c.iteration)
                continue;
            if (d.tags.readSigHit(addr))
                return false;
        }
        return true;
    }
    // Loads: forwarding must be resolvable locally -- no
    // less-speculative buffer may hold the line...
    for (const auto &d : cores) {
        if (d.id == c.id || d.mode != CpuMode::Speculative ||
            d.iteration >= c.iteration)
            continue;
        if (d.buffer.writeSigHit(addr))
            return false;
    }
    // ...and tracking the read must not overflow the load buffer
    // (LWNV never records; locally-written words re-pin their line
    // best-effort, exactly like the reference path).
    if (op != Op::LWNV && !c.tags.writtenLocally(addr) &&
        !c.tags.canRecordLoad(addr))
        return false;
    return true;
}

bool
Machine::roundApprove()
{
    roundMem.clear();
    bool haveStore = false;
    bool haveLoad = false;
    const std::size_t nRunners = burstRunners.size();
    for (std::size_t ri = 0; ri < nRunners; ++ri) {
        Core *r = burstRunners[ri];
        if (r->runLeft)
            continue; // mid-run: approved through the run's last op
        // A runner that gained a stall (cache miss, same-round
        // forward) ran its whole round exactly; the window just
        // cannot open another one.  Squashes cannot happen in-window
        // (eligible stores are victim-free), but stay defensive.
        if (r->stall != StallKind::None || r->squashed ||
            !frameReady(*r))
            return false;
        const std::uint32_t idx =
            static_cast<std::uint32_t>(r->pc.index);
        const std::uint8_t lin = r->frameLinearRun[idx];
        if (lin) {
            // Straight-line transparent ops: no stall, no shared
            // state, no pc surprise until the run's last op.  The
            // whole run is approved with this one byte load; the
            // runner is not looked at again until the run ends.
            r->runLeft = lin;
            continue;
        }
        // A data-checked op that cannot change the pc extends its
        // approval into the transparent run that follows it, so the
        // runner skips a whole approval barrier per op.
        auto approveThrough = [&](std::uint32_t after) {
            const std::uint8_t cont =
                after < r->frameLen ? r->frameLinearRun[after]
                                    : std::uint8_t{0};
            r->runLeft = cont >= 255
                             ? std::uint8_t{255}
                             : static_cast<std::uint8_t>(cont + 1);
        };
        switch (r->frameSpecClass[idx]) {
          case kSpecExact:
            // Speculation control, traps, CP2 writes, halts: the
            // runtime and the shared write bus are order-sensitive.
            r->runLeft = 1;
            return false;
          case kSpecJr:
            // The jump target is unknown until the op executes:
            // one round, then re-approve at the new pc.
            r->runLeft = 1;
            if (r->regs[r->frameBase[idx].rs] == kReturnSentinel)
                return false;
            break;
          case kSpecDiv:
            // Core-local once the divisor is proven nonzero; falls
            // straight through into the following run.
            approveThrough(idx + 1);
            if (r->regs[r->frameBase[idx].rt] == 0) {
                r->runLeft = 1;
                return false;
            }
            break;
          case kSpecMem: {
            const Inst &inst = r->frameBase[idx];
            bool store = false;
            std::uint32_t len = 0;
            memOpClass(inst.op, store, len);
            // The operand registers cannot change between this check
            // and the op's round (each runner retires exactly the
            // checked instruction), so the address is final here.
            const Addr addr =
                r->regs[inst.rs] + static_cast<Word>(inst.imm);
            approveThrough(idx + 1);
            if (!memEligibleFast(*r, inst.op, store, addr, len)) {
                r->runLeft = 1;
                return false;
            }
            roundMemMask |= 1u << ri;
            roundMem.push_back({addr & ~3u, r->iteration, store});
            haveStore |= store;
            haveLoad |= !store;
            break;
          }
        }
    }
    // Eligibility checks each memory op against *committed* signature
    // state; two ops approved for the same round can still interact
    // with each other: a store plus a more-speculative load of the
    // same word (violation if the load lands first, same-cycle
    // forward if the store does).  Rare: close the window and let
    // step() order them.  A memory op only ever retires in the round
    // right after its approval barrier (a run never extends *into*
    // one), so every same-round pair meets here.  Aligned accesses
    // of <= 4 bytes overlap only if they share a word.
    if (haveStore && haveLoad) {
        for (const RoundMem &a : roundMem) {
            if (!a.store)
                continue;
            for (const RoundMem &b : roundMem) {
                if (!b.store && b.iteration > a.iteration &&
                    b.word == a.word)
                    return false;
            }
        }
    }
    return true;
}

void
Machine::noteSequentialStates(Core &c, TraceState s)
{
    for (auto &d : cores)
        noteState(d, d.id == c.id ? s : TraceState::Idle);
}

TraceState
Machine::specWindowState(const Core &c) const
{
    if (c.mode == CpuMode::Halted)
        return TraceState::Idle;
    if (c.mode == CpuMode::Parked)
        return TraceState::SpecWait;
    switch (c.stall) {
      case StallKind::None:
      case StallKind::Memory:
      case StallKind::Trap:
        return TraceState::SpecRun;
      case StallKind::Handler:
        return TraceState::SpecOverhead;
      default:
        return TraceState::SpecWait;
    }
}

std::uint64_t
Machine::advance(std::uint64_t budget)
{
    if (budget == 0)
        return 0;
    // Exact dispatch and armed fault injectors (they poll every
    // cycle) take the reference path wholesale.
    if (cfg.dispatch == Dispatch::Exact || (fault && fault->armed())) {
        JRPM_HPROF(StepExact);
        step();
        return 1;
    }
    return specActive ? advanceSpeculative(budget)
                      : advanceSequential(budget);
}

std::uint64_t
Machine::executeBurst(Core &c, std::uint64_t max_insts)
{
    std::uint64_t retired = 0;
    for (;;) {
        const Inst &inst = c.frameBase[c.pc.index];
        ++c.pc.index;
        ++nInsts;
        execInst(c, inst);
        ++retired;
        if (retired >= max_insts || c.stall != StallKind::None ||
            c.mode != CpuMode::Sequential || specActive)
            return retired;
        if (!frameReady(c) || burstStop(c.frameBase[c.pc.index]))
            return retired;
        ++cycle;
    }
}

std::uint64_t
Machine::advanceSequential(std::uint64_t budget)
{
    JRPM_HPROF(SeqDispatch);
    Core &c = cores[seqCpu];
    std::uint64_t used = 0;
    while (used < budget) {
        if (specActive || c.mode != CpuMode::Sequential)
            break; // reclassify in advance()
        switch (c.stall) {
          case StallKind::Memory:
          case StallKind::Trap: {
            const std::uint64_t k =
                std::min<std::uint64_t>(c.stallCycles, budget - used);
            ++cycle;
            noteSequentialStates(c, TraceState::Serial);
            cycle += k - 1;
            used += k;
            execStats.serial += static_cast<double>(k);
            c.stallCycles -= k;
            if (c.stallCycles == 0)
                c.stall = StallKind::None;
            continue;
          }
          case StallKind::Handler: {
            const std::uint64_t k =
                std::min<std::uint64_t>(c.stallCycles, budget - used);
            ++cycle;
            noteSequentialStates(c, TraceState::SerialOverhead);
            cycle += k - 1;
            used += k;
            execStats.overhead += static_cast<double>(k);
            c.stallCycles -= k;
            if (c.stallCycles == 0)
                c.stall = StallKind::None;
            continue;
          }
          case StallKind::WaitHead:
          case StallKind::Overflow:
          case StallKind::Exception: {
            // Resolves immediately outside speculation; one exact
            // reference cycle keeps the resolution order right.
            JRPM_HPROF(StepExact);
            step();
            ++used;
            continue;
          }
          case StallKind::None:
            break;
        }
        if (!frameReady(c) || burstStop(c.frameBase[c.pc.index])) {
            JRPM_HPROF(StepExact);
            step();
            ++used;
            continue;
        }
        ++cycle;
        ++used;
        noteSequentialStates(c, TraceState::Serial);
        const std::uint64_t b = executeBurst(c, budget - used + 1);
        used += b - 1;
        execStats.serial += static_cast<double>(b);
    }
    return used;
}

std::uint64_t
Machine::advanceSpeculative(std::uint64_t budget)
{
    std::uint64_t used = 0;
    while (used < budget) {
        if (!specActive || halted())
            break; // reclassify in advance()
        const Cycle deadline =
            lastHeadProgress + cfg.watchdog.noProgressCycles;
        if (cycle >= deadline) {
            JRPM_HPROF(StepExact);
            step(); // fires the watchdog at the exact cycle
            ++used;
            continue;
        }
        const std::uint64_t cap =
            std::min<std::uint64_t>(budget - used, deadline - cycle);

        // Classify every core: cycles to its next event, and whether
        // it executes.  Anything order-sensitive this cycle (squash,
        // resolvable wait, non-local instruction) falls back to one
        // reference step.
        std::uint64_t quiet = ~0ull;
        bool slow = false;
        {
            JRPM_HPROF(EventHorizon);
            burstRunners.clear();
            for (auto &d : cores) {
                if (d.mode == CpuMode::Halted ||
                    d.mode == CpuMode::Parked)
                    continue;
                if (d.squashed) {
                    slow = true;
                    break;
                }
                switch (d.stall) {
                  case StallKind::None:
                    burstRunners.push_back(&d);
                    break;
                  case StallKind::Memory:
                  case StallKind::Trap:
                  case StallKind::Handler:
                    quiet =
                        std::min<std::uint64_t>(quiet, d.stallCycles);
                    break;
                  default: // WaitHead / Overflow / Exception
                    if (isHead(d.id))
                        slow = true; // resolves this cycle
                    break;
                }
                if (slow)
                    break;
            }
            // First approval of a prospective window: all runner
            // approvals start from scratch (runLeft is 0 on every
            // core that was not just mid-window, see the resets).
            if (!slow && !roundApprove())
                slow = true;
        }
        if (slow || quiet == 0) {
            // A failed or unused approval may have granted runs to
            // earlier runners before rejecting a later one; they must
            // not survive into an exact step.
            for (Core *r : burstRunners)
                r->runLeft = 0;
            roundMemMask = 0;
            // The "why can't speculative mode batch?" count: this
            // window needed the cycle-exact reference path.
            ++execStats.specSlowSteps;
            if (curLs)
                ++curLs->slowSteps;
            JRPM_HPROF(StepExact);
            step();
            ++used;
            continue;
        }
        const std::uint64_t k = std::min<std::uint64_t>(quiet, cap);

        // Open a window of up to k cycles.  Runners retire one
        // provably core-local instruction per cycle in CPU order;
        // nobody else's classification can change under them, so the
        // Fig. 10 accounting and stall countdowns batch at the end.
        std::uint64_t b = 0;
        {
            JRPM_HPROF(SpecDispatch);
            inSpecWindow = true;
            ++cycle;
            for (auto &d : cores)
                noteState(d, specWindowState(d));
            for (Core *r : burstRunners)
                r->windowRunner = true;
            // Rounds execute in segments.  A segment is the longest
            // stretch every runner is approved for (the minimum of
            // their remaining runs, capped by the window).  A segment
            // of pure straight-line transparent instructions is
            // core-local by construction, so instead of the lockstep
            // round-robin its rounds execute as one tight consecutive
            // loop per runner -- same final state, far better host
            // locality.  Any data-checked op (memory, jr, div)
            // approves a single round, so segments containing one
            // degenerate to the exact interleave.  The next approval
            // only looks at runners whose run expired.
            Core *const *const runners = burstRunners.data();
            const std::size_t nRunners = burstRunners.size();
            for (;;) {
                std::uint64_t seg = k - b;
                for (std::size_t i = 0; i < nRunners; ++i)
                    seg = std::min<std::uint64_t>(
                        seg, runners[i]->runLeft);
                // A round that retires a memory op stays a lockstep
                // interleave even when every approval extends past it
                // (shared cache state is order-sensitive).
                if (roundMemMask)
                    seg = 1;
                bool expired = false;
                if (seg > 1) {
                    // A pc-altering op can only be the last of a run
                    // (linearRun terminates there), so within the
                    // segment the stream is consecutive.
                    for (std::size_t i = 0; i < nRunners; ++i) {
                        Core *r = runners[i];
                        const Inst *base = r->frameBase;
                        for (std::uint64_t j = 0; j < seg; ++j) {
                            const Inst &inst = base[r->pc.index];
                            ++r->pc.index;
                            execInst(*r, inst);
                        }
                        expired |= (r->runLeft -= seg) == 0;
                    }
                } else {
                    seg = 1;
                    for (std::size_t i = 0; i < nRunners; ++i) {
                        Core *r = runners[i];
                        const Inst &inst = r->frameBase[r->pc.index];
                        ++r->pc.index;
                        execInst(*r, inst);
                        expired |= --r->runLeft == 0;
                    }
                }
                b += seg;
                cycle += seg - 1;
                // Memory ops checked their stall at approval time in
                // the single-round scheme; with run extension the
                // miss is only discoverable now, right after the op's
                // round.  A stalled runner must not retire another
                // instruction, so the window closes exactly as if
                // the next approval had seen the stall.
                bool memStalled = false;
                if (roundMemMask) {
                    std::uint32_t m = roundMemMask;
                    roundMemMask = 0;
                    do {
                        const unsigned i =
                            static_cast<unsigned>(
                                __builtin_ctz(m));
                        m &= m - 1;
                        memStalled |=
                            runners[i]->stall != StallKind::None;
                    } while (m);
                }
                if (b >= k)
                    break;
                if (memStalled)
                    break;
                if (expired && !roundApprove())
                    break;
                ++cycle;
            }
            inSpecWindow = false;
            nInsts += b * nRunners;
            // No approval outlives its window: the next window (or an
            // exact step) must re-approve everyone.
            for (std::size_t i = 0; i < nRunners; ++i)
                runners[i]->runLeft = 0;
            roundMemMask = 0;
        }
        execStats.burstSpans.sample(b);
        if (curLs)
            curLs->burstSpans.sample(b);
        {
            JRPM_HPROF(EventHorizon);
            const double amt = specShare * static_cast<double>(b);
            // Runners are classified at window open: one that stalled
            // in its final round still ran every round, and its
            // countdown only starts next cycle -- so it must not fall
            // into the stall-batching switch below.
            for (Core *r : burstRunners)
                r->tentativeRun += amt;
            for (auto &d : cores) {
                if (d.windowRunner) {
                    d.windowRunner = false;
                    continue;
                }
                if (d.mode == CpuMode::Halted)
                    continue;
                if (d.mode == CpuMode::Parked) {
                    execStats.waitUsed += amt;
                    continue;
                }
                switch (d.stall) {
                  case StallKind::None:
                    d.tentativeRun += amt;
                    break;
                  case StallKind::Memory:
                  case StallKind::Trap:
                    d.tentativeRun += amt;
                    d.stallCycles -= b;
                    if (d.stallCycles == 0)
                        d.stall = StallKind::None;
                    break;
                  case StallKind::Handler:
                    execStats.overhead += amt;
                    d.stallCycles -= b;
                    if (d.stallCycles == 0)
                        d.stall = StallKind::None;
                    break;
                  default:
                    d.tentativeWait += amt;
                    break;
                }
            }
        }
        used += b;
    }
    return used;
}

HandlerCosts
Machine::activeCosts() const
{
    return hoistedHandlers ? HandlerCosts::hoisted() : cfg.handlers;
}

bool
Machine::isHead(std::uint32_t cpu) const
{
    const Core &c = cores[cpu];
    return specActive && c.mode == CpuMode::Speculative &&
           c.iteration == headIteration;
}

bool
Machine::speculating(std::uint32_t cpu) const
{
    return specActive && cores[cpu].mode == CpuMode::Speculative &&
           !isHead(cpu);
}

Word
Machine::reg(std::uint32_t cpu, std::uint8_t r) const
{
    return cores[cpu].regs[r];
}

void
Machine::setReg(std::uint32_t cpu, std::uint8_t r, Word v)
{
    if (r != R_ZERO)
        cores[cpu].regs[r] = v;
}

// ---------------------------------------------------------------------
// Per-cycle stepping and Fig. 10 accounting
// ---------------------------------------------------------------------

void
Machine::stepCpu(Core &c)
{
    const double share = specActive ? specShare : 1.0;

    if (c.mode == CpuMode::Halted) {
        noteState(c, TraceState::Idle);
        return;
    }

    if (c.mode == CpuMode::Parked) {
        if (specActive) {
            execStats.waitUsed += share;
            noteState(c, TraceState::SpecWait);
        } else {
            noteState(c, TraceState::Idle);
        }
        return;
    }

    if (!specActive && c.id != seqCpu) {
        noteState(c, TraceState::Idle);
        return; // a leftover non-seq CPU (should be parked)
    }

    // A pending squash preempts whatever the CPU was doing.
    if (c.squashed) {
        squashToRestart(c);
        execStats.overhead += share;
        noteState(c, specActive ? TraceState::SpecOverhead
                                : TraceState::SerialOverhead);
        return;
    }

    if (c.stall != StallKind::None) {
        bool resolved = false;
        switch (c.stall) {
          case StallKind::Memory:
          case StallKind::Trap:
            if (--c.stallCycles == 0)
                c.stall = StallKind::None;
            if (specActive)
                c.tentativeRun += share;
            else
                execStats.serial += share;
            noteState(c, specActive ? TraceState::SpecRun
                                    : TraceState::Serial);
            return;
          case StallKind::Handler:
            // Handler costs are TLS overhead even when charged at the
            // shutdown boundary where speculation is already off.
            if (--c.stallCycles == 0)
                c.stall = StallKind::None;
            execStats.overhead += share;
            noteState(c, specActive ? TraceState::SpecOverhead
                                    : TraceState::SerialOverhead);
            return;
          case StallKind::WaitHead:
            resolved = isHead(c.id) || !specActive;
            if (resolved)
                c.stall = StallKind::None;
            break;
          case StallKind::Overflow:
            if (isHead(c.id) || !specActive) {
                // Head may write through: drain early, go direct.
                c.buffer.drainTo(mem);
                c.directMode = true;
                c.stall = StallKind::None;
                resolved = true;
            }
            break;
          case StallKind::Exception:
            if (isHead(c.id) || !specActive) {
                c.stall = StallKind::None;
                dispatchException(c);
                resolved = true;
            }
            break;
          case StallKind::None:
            break;
        }
        if (specActive)
            c.tentativeWait += share;
        else
            execStats.serial += share;
        noteState(c, specActive ? TraceState::SpecWait
                                : TraceState::Serial);
        if (!resolved)
            return;
        return; // resolution consumed this cycle; execute next cycle
    }

    execute(c);
    if (specActive)
        c.tentativeRun += share;
    else
        execStats.serial += share;
    noteState(c, specActive ? TraceState::SpecRun : TraceState::Serial);
}

void
Machine::noteState(Core &c, TraceState s)
{
    if (c.traceState == s)
        return;
    c.traceState = s;
    JRPM_TRACE(static_cast<std::uint8_t>(c.id), TraceEvt::StateChange,
               cycle, static_cast<std::int32_t>(s));
}

void
Machine::retireTentative(Core &c, bool used)
{
    if (used) {
        execStats.runUsed += c.tentativeRun;
        execStats.waitUsed += c.tentativeWait;
    } else {
        execStats.runViolated += c.tentativeRun;
        execStats.waitViolated += c.tentativeWait;
        // Tell the exporter to recolor this track's run/wait spans
        // since the attempt began: those cycles were thrown away.
        if (c.tentativeRun + c.tentativeWait > 0)
            JRPM_TRACE(static_cast<std::uint8_t>(c.id),
                       TraceEvt::ViolatedWindow, cycle, 0,
                       cycle - c.tentStart);
    }
    c.tentativeRun = 0;
    c.tentativeWait = 0;
    c.tentStart = cycle;
}

void
Machine::chargeHandler(Core &c, std::uint32_t cycles)
{
    if (cycles == 0)
        return;
    if (fault) {
        const std::uint32_t mult = fault->handlerMultiplier(cycle);
        if (mult > 1) {
            JRPM_TRACE(Trace::kHostTrack, TraceEvt::FaultInjected,
                       cycle,
                       static_cast<std::int32_t>(
                           FaultKind::HandlerSpike),
                       mult);
            cycles *= mult;
        }
    }
    c.stall = StallKind::Handler;
    c.stallCycles = cycles;
}

// ---------------------------------------------------------------------
// Instruction execution
// ---------------------------------------------------------------------

void
Machine::execute(Core &c)
{
    if (!frameReady(c)) {
        // A wild pc can only come from speculative garbage (e.g. a
        // half-merged return address); defer like any speculative
        // fault.  Sequentially it is a compiler/simulator bug.
        if (specActive && c.mode == CpuMode::Speculative &&
            !isHead(c.id)) {
            c.exceptionPc = c.pc;
            c.pc.index = 0;
            raiseException(c.id, ExcKind::Null, 0);
            return;
        }
        panic("cpu%u pc out of range: %s:%d", c.id,
              code.method(c.pc.method).name.c_str(), c.pc.index);
    }
    const Inst &inst = c.frameBase[c.pc.index];
    ++c.pc.index;
    ++nInsts;
    execInst(c, inst);
}

void
Machine::execInst(Core &c, const Inst &inst)
{
    // pc has already been advanced past this instruction; the
    // faulting-pc for exceptions is therefore one slot back.
    const Pc instPc = {c.pc.method, c.pc.index - 1};

    auto &r = c.regs;
    auto wr = [&](std::uint8_t rd, Word v) {
        if (rd != R_ZERO)
            r[rd] = v;
    };
    auto f = [&](std::uint8_t reg) { return wordToFloat(r[reg]); };

    switch (inst.op) {
      case Op::ADDU: wr(inst.rd, r[inst.rs] + r[inst.rt]); break;
      case Op::SUBU: wr(inst.rd, r[inst.rs] - r[inst.rt]); break;
      case Op::MUL:
        // The low 32 bits are the same signed or unsigned; the
        // unsigned product wraps where a signed one would overflow.
        wr(inst.rd, r[inst.rs] * r[inst.rt]);
        break;
      case Op::DIV:
      case Op::REM: {
        if (r[inst.rt] == 0) {
            c.exceptionPc = instPc;
            raiseException(c.id, ExcKind::Arithmetic, 0);
            return;
        }
        SWord a = static_cast<SWord>(r[inst.rs]);
        SWord b = static_cast<SWord>(r[inst.rt]);
        if (a == INT32_MIN && b == -1) {
            wr(inst.rd, inst.op == Op::DIV ? r[inst.rs] : 0);
        } else {
            wr(inst.rd, static_cast<Word>(
                inst.op == Op::DIV ? a / b : a % b));
        }
        break;
      }
      case Op::DIVU:
      case Op::REMU:
        if (r[inst.rt] == 0) {
            c.exceptionPc = instPc;
            raiseException(c.id, ExcKind::Arithmetic, 0);
            return;
        }
        wr(inst.rd, inst.op == Op::DIVU ? r[inst.rs] / r[inst.rt]
                                        : r[inst.rs] % r[inst.rt]);
        break;
      case Op::AND: wr(inst.rd, r[inst.rs] & r[inst.rt]); break;
      case Op::OR: wr(inst.rd, r[inst.rs] | r[inst.rt]); break;
      case Op::XOR: wr(inst.rd, r[inst.rs] ^ r[inst.rt]); break;
      case Op::NOR: wr(inst.rd, ~(r[inst.rs] | r[inst.rt])); break;
      case Op::SLLV: wr(inst.rd, r[inst.rs] << (r[inst.rt] & 31)); break;
      case Op::SRLV: wr(inst.rd, r[inst.rs] >> (r[inst.rt] & 31)); break;
      case Op::SRAV:
        wr(inst.rd, static_cast<Word>(
            static_cast<SWord>(r[inst.rs]) >> (r[inst.rt] & 31)));
        break;
      case Op::SLT:
        wr(inst.rd, static_cast<SWord>(r[inst.rs]) <
                    static_cast<SWord>(r[inst.rt]));
        break;
      case Op::SLTU: wr(inst.rd, r[inst.rs] < r[inst.rt]); break;
      case Op::ADDIU:
        wr(inst.rd, r[inst.rs] + static_cast<Word>(inst.imm));
        break;
      case Op::ANDI:
        wr(inst.rd, r[inst.rs] & (static_cast<Word>(inst.imm) & 0xffff));
        break;
      case Op::ORI:
        wr(inst.rd, r[inst.rs] | (static_cast<Word>(inst.imm) & 0xffff));
        break;
      case Op::XORI:
        wr(inst.rd, r[inst.rs] ^ (static_cast<Word>(inst.imm) & 0xffff));
        break;
      case Op::SLTI:
        wr(inst.rd, static_cast<SWord>(r[inst.rs]) < inst.imm);
        break;
      case Op::SLTIU:
        wr(inst.rd, r[inst.rs] < static_cast<Word>(inst.imm));
        break;
      case Op::LUI:
        wr(inst.rd, static_cast<Word>(inst.imm) << 16);
        break;
      case Op::SLL: wr(inst.rd, r[inst.rs] << (inst.imm & 31)); break;
      case Op::SRL: wr(inst.rd, r[inst.rs] >> (inst.imm & 31)); break;
      case Op::SRA:
        wr(inst.rd, static_cast<Word>(
            static_cast<SWord>(r[inst.rs]) >> (inst.imm & 31)));
        break;
      case Op::FADD:
        wr(inst.rd, floatToWord(f(inst.rs) + f(inst.rt)));
        break;
      case Op::FSUB:
        wr(inst.rd, floatToWord(f(inst.rs) - f(inst.rt)));
        break;
      case Op::FMUL:
        wr(inst.rd, floatToWord(f(inst.rs) * f(inst.rt)));
        break;
      case Op::FDIV:
        wr(inst.rd, floatToWord(f(inst.rs) / f(inst.rt)));
        break;
      case Op::FNEG: wr(inst.rd, floatToWord(-f(inst.rs))); break;
      case Op::FCLT: wr(inst.rd, f(inst.rs) < f(inst.rt)); break;
      case Op::FCLE: wr(inst.rd, f(inst.rs) <= f(inst.rt)); break;
      case Op::FCEQ: wr(inst.rd, f(inst.rs) == f(inst.rt)); break;
      case Op::CVTSW:
        wr(inst.rd, floatToWord(
            static_cast<float>(static_cast<SWord>(r[inst.rs]))));
        break;
      case Op::CVTWS:
        wr(inst.rd, static_cast<Word>(
            static_cast<SWord>(f(inst.rs))));
        break;
      case Op::LW: case Op::LB: case Op::LBU: case Op::LH:
      case Op::LHU: case Op::LWNV: case Op::SW: case Op::SB:
      case Op::SH:
        execMemOp(c, inst);
        break;
      case Op::BEQ:
        if (r[inst.rs] == r[inst.rt])
            c.pc.index = inst.target;
        break;
      case Op::BNE:
        if (r[inst.rs] != r[inst.rt])
            c.pc.index = inst.target;
        break;
      case Op::BLEZ:
        if (static_cast<SWord>(r[inst.rs]) <= 0)
            c.pc.index = inst.target;
        break;
      case Op::BGTZ:
        if (static_cast<SWord>(r[inst.rs]) > 0)
            c.pc.index = inst.target;
        break;
      case Op::BLTZ:
        if (static_cast<SWord>(r[inst.rs]) < 0)
            c.pc.index = inst.target;
        break;
      case Op::BGEZ:
        if (static_cast<SWord>(r[inst.rs]) >= 0)
            c.pc.index = inst.target;
        break;
      case Op::BGE:
        if (static_cast<SWord>(r[inst.rs]) >=
            static_cast<SWord>(r[inst.rt]))
            c.pc.index = inst.target;
        break;
      case Op::BLT:
        if (static_cast<SWord>(r[inst.rs]) <
            static_cast<SWord>(r[inst.rt]))
            c.pc.index = inst.target;
        break;
      case Op::J:
        c.pc.index = inst.target;
        break;
      case Op::JAL:
        wr(R_RA, encodePc(c.pc));
        c.pc = {static_cast<std::uint32_t>(inst.imm), 0};
        break;
      case Op::JR: {
        Word ra = r[inst.rs];
        if (ra == kReturnSentinel) {
            if (specActive && c.mode == CpuMode::Speculative)
                panic("cpu%u returned past the root inside an STL",
                      c.id);
            exitVal = r[R_V0];
            c.mode = CpuMode::Halted;
        } else {
            c.pc = decodePc(ra);
        }
        break;
      }
      case Op::MFC2:
        switch (static_cast<Cp2Reg>(inst.imm)) {
          case Cp2Reg::Iteration:
            wr(inst.rd, static_cast<Word>(c.iteration));
            break;
          case Cp2Reg::CpuId:
            wr(inst.rd, c.id);
            break;
          case Cp2Reg::NumCpus:
            wr(inst.rd, cfg.numCpus);
            break;
          default:
            wr(inst.rd, globalCp2[inst.imm & 15]);
            break;
        }
        break;
      case Op::MTC2:
        globalCp2[inst.imm & 15] = r[inst.rs];
        break;
      case Op::SCOP:
        execScop(c, inst);
        break;
      case Op::SMEM:
        execSmem(c, inst);
        break;
      case Op::SLOOP:
        if (profiler && !specActive && c.id == seqCpu)
            profiler->onLoopEntry(inst.imm, cycle);
        break;
      case Op::EOI:
        if (profiler && !specActive && c.id == seqCpu)
            profiler->onLoopIteration(inst.imm, cycle);
        break;
      case Op::ENDLOOP:
        if (profiler && !specActive && c.id == seqCpu)
            profiler->onLoopExit(inst.imm, cycle);
        break;
      case Op::LWLANN:
        if (profiler && !specActive && c.id == seqCpu)
            profiler->onLocalLoad(inst.imm, cycle);
        break;
      case Op::SWLANN:
        if (profiler && !specActive && c.id == seqCpu)
            profiler->onLocalStore(inst.imm, cycle);
        break;
      case Op::TRAP:
        execTrap(c, inst);
        break;
      case Op::NOP:
        break;
      case Op::HALT:
        exitVal = r[R_V0];
        c.mode = CpuMode::Halted;
        break;
    }
}

// ---------------------------------------------------------------------
// Memory operations with TLS semantics
// ---------------------------------------------------------------------

std::uint32_t
Machine::cacheLatency(Core &c, Addr addr, bool is_store)
{
    if (!cfg.cacheTiming)
        return 0;
    if (is_store) {
        // Write-through, no-allocate: stores never stall the pipeline
        // (the write buffer hides them) but keep the tag state warm
        // and invalidate other L1 copies.
        if (c.l1.probe(addr))
            c.l1.access(addr);
        l2.access(addr);
        for (auto &d : cores)
            if (d.id != c.id)
                d.l1.invalidate(addr);
        return 0;
    }
    if (c.l1.access(addr))
        return 0;
    if (l2.access(addr)) {
        JRPM_TRACE(static_cast<std::uint8_t>(c.id), TraceEvt::MemStall,
                   cycle, static_cast<std::int32_t>(HitLevel::L2),
                   addr, cfg.l2Latency);
        return cfg.l2Latency;
    }
    JRPM_TRACE(static_cast<std::uint8_t>(c.id), TraceEvt::MemStall,
               cycle, static_cast<std::int32_t>(HitLevel::Memory),
               addr, cfg.memLatency);
    return cfg.memLatency;
}

std::uint32_t
Machine::doLoad(Core &c, Addr addr, std::uint32_t len, bool sign_extend,
                bool non_violating, Word &out, bool &faulted,
                std::uint32_t site, bool trap_context)
{
    faulted = false;
    const bool spec = specActive && c.mode == CpuMode::Speculative;

    if (addr % len != 0 || !mem.valid(addr, len)) {
        faulted = true;
        return 0;
    }

    Word raw;
    std::uint32_t latency = 0;

    if (!spec || c.directMode) {
        raw = len == 4 ? mem.readWord(addr)
            : len == 2 ? mem.readHalf(addr)
                       : mem.readByte(addr);
        latency = cacheLatency(c, addr, false);
    } else {
        // Gather the newest value visible to this thread: memory,
        // overlaid by less-speculative store buffers oldest-first,
        // overlaid by our own buffer.
        Word underlying = 0;
        if (len == 4)
            underlying = mem.readWord(addr);
        else if (len == 2)
            underlying = mem.readHalf(addr);
        else
            underlying = mem.readByte(addr);

        bool forwarded = false;
        std::uint64_t supplierIter = 0;
        // Write-set signature probe: when the line misses every
        // less-speculative buffer -- the common case -- the whole
        // overlay scan is provably a no-op and is skipped.  Inside a
        // burst window the round approval already probed the current
        // signatures (any prior-round store is visible to it, and a
        // same-round same-word store closes the window), so the scan
        // is a proven no-op and is not even probed for; only exact
        // dispatch counts sig_hits / sig_false_positives.
        bool mayForward = false;
        if (!inSpecWindow) {
            JRPM_HPROF(SigCheck);
            for (const auto &d : cores) {
                if (d.id == c.id || d.mode != CpuMode::Speculative ||
                    d.iteration >= c.iteration)
                    continue;
                if (d.buffer.writeSigHit(addr)) {
                    mayForward = true;
                    break;
                }
            }
        }
        if (mayForward) {
            ++execStats.sigHits;
            if (curLs)
                ++curLs->sigHits;
            JRPM_HPROF(ForwardScan);
            // Overlay active earlier threads in iteration order.  With
            // at most numCpus candidates, selection beats building and
            // sorting a heap-allocated list on every speculative load.
            std::uint64_t lastIter = 0;
            bool haveLast = false;
            for (;;) {
                const Core *next = nullptr;
                for (const auto &d : cores) {
                    if (d.id == c.id ||
                        d.mode != CpuMode::Speculative ||
                        d.iteration >= c.iteration)
                        continue;
                    if (haveLast && d.iteration <= lastIter)
                        continue;
                    if (!next || d.iteration < next->iteration)
                        next = &d;
                }
                if (!next)
                    break;
                if (next->buffer.coverage(addr, len) !=
                    Coverage::None) {
                    underlying =
                        next->buffer.readMerge(addr, len, underlying);
                    forwarded = true;
                    supplierIter = next->iteration;
                }
                lastIter = next->iteration;
                haveLast = true;
            }
            if (!forwarded) {
                ++execStats.sigFalsePositives;
                if (curLs)
                    ++curLs->sigFalsePositives;
            }
        }
        raw = c.buffer.readMerge(addr, len, underlying);

        if (forwarded) {
            // Distance from the most-speculative (winning) supplier:
            // how far the value travelled between iterations.
            const std::uint64_t dist =
                c.iteration > supplierIter
                    ? c.iteration - supplierIter
                    : 0;
            ++execStats.forwardedLoads;
            execStats.forwardDistance.sample(dist);
            if (curLs) {
                ++curLs->forwardedLoads;
                curLs->forwardDistance.sample(dist);
            }
        }

        if (!non_violating) {
            const bool local = c.tags.writtenLocally(addr);
            if (!local && !c.tags.recordLoad(addr, false)) {
                if (trap_context) {
                    // Trap microcode cannot stall mid-operation:
                    // track the read anyway and pay the stall at the
                    // next instruction boundary.
                    c.tags.forceRecordLoad(addr, false);
                    c.pendingOverflowStall = true;
                } else {
                    // Load-buffer overflow: stall until head, retry.
                    noteOverflowStall(c);
                    faulted = false;
                    return kTrapRetry; // sentinel: caller rewinds pc
                }
            }
            if (local)
                c.tags.recordLoad(addr, true);
        }
        latency = forwarded ? cfg.forwardLatency
                            : cacheLatency(c, addr, false);
    }

    if (len == 4)
        out = raw;
    else if (len == 2)
        out = sign_extend ? sext(raw, 16) : (raw & 0xffff);
    else
        out = sign_extend ? sext(raw, 8) : (raw & 0xff);

    if (profiler && !specActive && c.id == seqCpu)
        profiler->onHeapLoad(addr, cycle, site);
    return latency;
}

std::uint32_t
Machine::doStore(Core &c, Addr addr, std::uint32_t len, Word value,
                 bool &faulted, bool &stalled, std::uint32_t site,
                 bool trap_context)
{
    faulted = false;
    stalled = false;
    const bool spec = specActive && c.mode == CpuMode::Speculative;

    if (addr % len != 0 || !mem.valid(addr, len)) {
        faulted = true;
        return 0;
    }

    if (!spec) {
        if (len == 4)
            mem.writeWord(addr, value);
        else if (len == 2)
            mem.writeHalf(addr, static_cast<std::uint16_t>(value));
        else
            mem.writeByte(addr, static_cast<std::uint8_t>(value));
        std::uint32_t lat = cacheLatency(c, addr, true);
        if (profiler && c.id == seqCpu)
            profiler->onHeapStore(addr, cycle);
        return lat;
    }

    if (c.directMode) {
        if (len == 4)
            mem.writeWord(addr, value);
        else if (len == 2)
            mem.writeHalf(addr, static_cast<std::uint16_t>(value));
        else
            mem.writeByte(addr, static_cast<std::uint8_t>(value));
        cacheLatency(c, addr, true);
    } else {
        if (c.buffer.wouldOverflow(addr)) {
            if (trap_context) {
                // Keep buffering past the hardware capacity; the CPU
                // stalls until head after the trap completes, then
                // drains and writes through.
                c.pendingOverflowStall = true;
            } else {
                noteOverflowStall(c);
                stalled = true;
                return 0;
            }
        }
        c.buffer.write(addr, value, len);
        c.tags.recordStore(addr);
        const std::uint64_t occ = c.buffer.lineCount();
        execStats.storeBufOccupancy.sample(occ);
        if (curLs)
            curLs->storeBufOccupancy.sample(occ);
        cacheLatency(c, addr, true);
    }

    // Violation broadcast: any more-speculative thread that consumed
    // this word too early must restart (write-bus snoop in Hydra).
    // Inside a burst window the round approval already probed the
    // read-set signatures (a same-round same-word reader closes the
    // window), so the broadcast is a proven no-op; only exact
    // dispatch counts sig_hits / sig_false_positives.
    if (inSpecWindow)
        return 0;
    // Read-set signature probe first: a miss in every more-speculative
    // core proves no reader and skips the per-word broadcast.
    bool mayViolate = false;
    {
        JRPM_HPROF(SigCheck);
        for (const auto &d : cores) {
            if (d.id == c.id || d.mode != CpuMode::Speculative ||
                d.iteration <= c.iteration)
                continue;
            if (d.tags.readSigHit(addr)) {
                mayViolate = true;
                break;
            }
        }
    }
    if (!mayViolate)
        return 0;
    ++execStats.sigHits;
    if (curLs)
        ++curLs->sigHits;
    JRPM_HPROF(DepCheck);
    Core *victim = nullptr;
    for (auto &d : cores) {
        if (d.id == c.id || d.mode != CpuMode::Speculative ||
            d.iteration <= c.iteration)
            continue;
        bool hit = false;
        for (Addr w = addr & ~3u; w < addr + len; w += 4)
            if (d.tags.readBeforeWrite(w))
                hit = true;
        if (hit && (!victim || d.iteration < victim->iteration))
            victim = &d;
    }
    if (!victim) {
        ++execStats.sigFalsePositives;
        if (curLs)
            ++curLs->sigFalsePositives;
    }
    if (victim) {
        if (fault && fault->dueSuppress(cycle)) {
            // Detection logic "misses" this violation: the victim
            // keeps running on stale data.  The differential oracle
            // must catch the resulting divergence.
            ++execStats.violationsSuppressed;
            warnThrottled("fault.suppress",
                          "fault: suppressed violation at 0x%08x "
                          "(victim cpu%u, iteration %llu)", addr,
                          victim->id,
                          static_cast<unsigned long long>(
                              victim->iteration));
            JRPM_TRACE(Trace::kHostTrack, TraceEvt::FaultInjected,
                       cycle,
                       static_cast<std::int32_t>(
                           FaultKind::SuppressViolation),
                       addr);
        } else {
            execStats.noteViolation(addr);
            violate(*victim, addr, site, c.id);
        }
    }
    return 0;
}

void
Machine::execMemOp(Core &c, const Inst &inst)
{
    if (inSpecWindow) {
        // Retiring inside a burst window: the signature check proved
        // this op cannot fault, overflow or violate here; it may only
        // gain a stall, which closes the window after this round.
        // (No profiler scope: this retire path is hot enough that the
        // disabled-scope check itself is measurable; host cycles land
        // in the enclosing spec_dispatch slot.)
        ++execStats.specFastMem;
        if (curLs)
            ++curLs->specFastMem;
        execMemOpImpl(c, inst);
        return;
    }
    execMemOpImpl(c, inst);
}

void
Machine::execMemOpImpl(Core &c, const Inst &inst)
{
    const Addr addr = c.regs[inst.rs] + static_cast<Word>(inst.imm);
    const Pc instPc = {c.pc.method, c.pc.index - 1};
    ++nMemOps;

    if (isStore(inst.op)) {
        const std::uint32_t len =
            inst.op == Op::SW ? 4 : inst.op == Op::SH ? 2 : 1;
        bool faulted = false, stalled = false;
        std::uint32_t lat =
            doStore(c, addr, len, c.regs[inst.rt], faulted, stalled,
                    encodePc(instPc));
        if (stalled) {
            c.pc = instPc; // retry after the overflow drains
            return;
        }
        if (faulted) {
            c.exceptionPc = instPc;
            raiseException(c.id, ExcKind::Null, 0);
            return;
        }
        if (lat) {
            c.stall = StallKind::Memory;
            c.stallCycles = lat;
        }
        return;
    }

    const std::uint32_t len =
        (inst.op == Op::LW || inst.op == Op::LWNV) ? 4
        : (inst.op == Op::LH || inst.op == Op::LHU) ? 2 : 1;
    const bool sign = inst.op == Op::LB || inst.op == Op::LH;
    Word value = 0;
    bool faulted = false;
    std::uint32_t lat = doLoad(c, addr, len, sign,
                               inst.op == Op::LWNV, value, faulted,
                               encodePc(instPc));
    if (lat == kTrapRetry) {
        c.pc = instPc; // overflow stall; retry when head
        return;
    }
    if (faulted) {
        c.exceptionPc = instPc;
        raiseException(c.id, ExcKind::Null, 0);
        return;
    }
    if (inst.rd != R_ZERO)
        c.regs[inst.rd] = value;
    if (lat) {
        c.stall = StallKind::Memory;
        c.stallCycles = lat;
    }
}

std::uint32_t
Machine::trapLoadWord(std::uint32_t cpu, Addr addr, Word &value)
{
    Core &c = cores[cpu];
    bool faulted = false;
    std::uint32_t lat = doLoad(c, addr, 4, false, false, value,
                               faulted, 0, /*trap_context=*/true);
    if (faulted) {
        value = 0;
        return 0;
    }
    return lat;
}

std::uint32_t
Machine::trapStoreWord(std::uint32_t cpu, Addr addr, Word value)
{
    Core &c = cores[cpu];
    bool faulted = false, stalled = false;
    return doStore(c, addr, 4, value, faulted, stalled, /*site=*/0,
                   /*trap_context=*/true);
}

// ---------------------------------------------------------------------
// Speculation control (SCOP / SMEM)
// ---------------------------------------------------------------------

void
Machine::beginStl(Core &master, std::int32_t loop_id, Pc restart_pc)
{
    specActive = true;
    stlLoopId = loop_id;
    stlRestartPc = restart_pc;
    headIteration = 0;
    nextToAssign = 1;
    stlMaster = master.id;
    stlEntryCycle = cycle;
    master.mode = CpuMode::Speculative;
    master.iteration = 0;
    master.threadStart = cycle;
    master.tentStart = cycle;
    master.clearSpecState();
    ++execStats.stlEntries;
    lastHeadProgress = cycle;
    auto &ls = stlRuntime[loop_id];
    ++ls.entries;
    curLs = &ls;
    // A blacklisted loop still runs its STL code, but head-only:
    // sequential semantics at handler-overhead cost (§ graceful
    // degradation).
    soloMode = governorBlacklist.count(loop_id) != 0;
    if (soloMode)
        ++ls.soloEntries;
    JRPM_TRACE(static_cast<std::uint8_t>(master.id),
               TraceEvt::StlEntry, cycle, loop_id);
    JRPM_TRACE(static_cast<std::uint8_t>(master.id),
               TraceEvt::ThreadStart, cycle, loop_id, 0);
}

void
Machine::wakeSlaves(Core &master, Pc entry)
{
    if (soloMode)
        return; // degraded: the head covers every iteration alone
    for (auto &d : cores) {
        if (d.id == master.id || d.mode == CpuMode::Halted)
            continue;
        if (d.mode != CpuMode::Parked)
            panic("wake_slaves: cpu%u not parked", d.id);
        if (fault && fault->dueDropWakeup(cycle)) {
            // Lost wakeup: the iteration number is handed out but no
            // CPU will ever run it — the commit protocol deadlocks on
            // the hole and the watchdog must catch it.
            warnThrottled(
                "fault.drop",
                "fault: dropping wakeup of cpu%u (iteration %llu)",
                d.id,
                static_cast<unsigned long long>(nextToAssign));
            JRPM_TRACE(Trace::kHostTrack, TraceEvt::FaultInjected,
                       cycle,
                       static_cast<std::int32_t>(FaultKind::DropWakeup),
                       nextToAssign);
            ++nextToAssign;
            continue;
        }
        d.mode = CpuMode::Speculative;
        d.pc = entry;
        d.regs.fill(0);
        d.regs[R_GP] = globalCp2[static_cast<int>(Cp2Reg::SavedGp)];
        d.stall = StallKind::None;
        d.clearSpecState();
        d.iteration = nextToAssign++;
        d.threadStart = cycle;
        d.tentativeRun = d.tentativeWait = 0;
        d.tentStart = cycle;
        JRPM_TRACE(static_cast<std::uint8_t>(d.id),
                   TraceEvt::ThreadStart, cycle, stlLoopId,
                   d.iteration);
    }
}

void
Machine::parkOthers(std::uint32_t keep_cpu)
{
    for (auto &d : cores) {
        if (d.id == keep_cpu || d.mode == CpuMode::Halted)
            continue;
        if (d.mode == CpuMode::Speculative)
            retireTentative(d, false);
        d.mode = CpuMode::Parked;
        d.stall = StallKind::None;
        d.squashed = false;
        d.clearSpecState();
    }
}

void
Machine::execScop(Core &c, const Inst &inst)
{
    const HandlerCosts costs = activeCosts();
    switch (static_cast<ScopCmd>(inst.imm)) {
      case ScopCmd::EnableSpec:
        if (specActive)
            panic("enable_spec while speculation already active");
        hoistedHandlers = (inst.rs & 1) != 0;
        beginStl(c, inst.aux, {c.pc.method, inst.target});
        chargeHandler(c, costs.startup);
        break;
      case ScopCmd::DisableSpec: {
        if (!specActive || !isHead(c.id))
            panic("disable_spec by non-head cpu%u", c.id);
        auto &ls = stlRuntime[stlLoopId];
        ls.cyclesInside += cycle - stlEntryCycle;
        specActive = false;
        curLs = nullptr;
        c.mode = CpuMode::Sequential;
        seqCpu = c.id;
        retireTentative(c, true);
        chargeHandler(c, costs.shutdown);
        JRPM_TRACE(static_cast<std::uint8_t>(c.id), TraceEvt::StlExit,
                   cycle, stlLoopId, cycle - stlEntryCycle);
        break;
      }
      case ScopCmd::WakeSlaves:
        wakeSlaves(c, {c.pc.method, inst.target});
        break;
      case ScopCmd::KillSlaves:
        parkOthers(c.id);
        break;
      case ScopCmd::ResetCache:
        c.tags.clear();
        break;
      case ScopCmd::AdvanceCache:
        // New thread epoch for this CPU.
        c.tags.clear();
        c.iteration = nextToAssign++;
        c.threadStart = cycle;
        c.overflowed = false;
        c.directMode = false;
        JRPM_TRACE(static_cast<std::uint8_t>(c.id),
                   TraceEvt::ThreadStart, cycle, stlLoopId,
                   c.iteration);
        break;
      case ScopCmd::WaitHead:
        if (specActive && !isHead(c.id))
            c.stall = StallKind::WaitHead;
        break;
      case ScopCmd::SwitchBegin: {
        if (!specActive || !isHead(c.id))
            panic("switch_begin by non-head cpu%u", c.id);
        // Commit the head's progress mid-iteration, park the peers
        // (their outer iterations restart after the inner STL), and
        // save the outer decomposition.  Until switch_enable resets
        // the speculative state, this CPU's stores write through (it
        // is the head; its work is architectural).
        c.buffer.drainTo(mem);
        c.tags.clear();
        c.directMode = true;
        retireTentative(c, true);
        StlContext ctx;
        ctx.loopId = stlLoopId;
        ctx.restartPc = stlRestartPc;
        ctx.headIteration = headIteration;
        ctx.nextToAssign = nextToAssign;
        ctx.master = stlMaster;
        ctx.switchCpu = c.id;
        ctx.entryCycle = stlEntryCycle;
        ctx.solo = soloMode;
        for (const auto &d : cores)
            ctx.savedIterations.push_back(d.iteration);
        // Count one squash event if the switch discards in-flight
        // speculative peers (their outer iterations restart later).
        for (const auto &d : cores) {
            if (d.id != c.id && d.mode == CpuMode::Speculative) {
                ++execStats.squashCauses[static_cast<std::size_t>(
                    SquashCause::StlSwitch)];
                if (curLs)
                    ++curLs->squashCauses[static_cast<std::size_t>(
                        SquashCause::StlSwitch)];
                break;
            }
        }
        parkOthers(c.id);
        contextStack.push_back(std::move(ctx));
        break;
      }
      case ScopCmd::SwitchEnable: {
        if (contextStack.empty())
            panic("switch_enable without switch_begin");
        stlLoopId = inst.aux;
        stlRestartPc = {c.pc.method, inst.target};
        headIteration = 0;
        nextToAssign = 1;
        stlMaster = c.id;
        stlEntryCycle = cycle;
        lastHeadProgress = cycle;
        c.iteration = 0;
        c.threadStart = cycle;
        c.clearSpecState();
        auto &ls = stlRuntime[stlLoopId];
        ++ls.entries;
        curLs = &ls;
        soloMode = governorBlacklist.count(stlLoopId) != 0;
        if (soloMode)
            ++ls.soloEntries;
        chargeHandler(c, HandlerCosts::hoisted().startup);
        JRPM_TRACE(static_cast<std::uint8_t>(c.id), TraceEvt::StlEntry,
                   cycle, stlLoopId);
        break;
      }
      case ScopCmd::SwitchShutdown: {
        if (contextStack.empty())
            panic("switch_shutdown without switch_begin");
        if (!isHead(c.id))
            panic("switch_shutdown by non-head cpu%u", c.id);
        stlRuntime[stlLoopId].cyclesInside += cycle - stlEntryCycle;
        JRPM_TRACE(static_cast<std::uint8_t>(c.id), TraceEvt::StlExit,
                   cycle, stlLoopId, cycle - stlEntryCycle);
        retireTentative(c, true);
        parkOthers(c.id);
        StlContext ctx = std::move(contextStack.back());
        contextStack.pop_back();
        stlLoopId = ctx.loopId;
        stlRestartPc = ctx.restartPc;
        headIteration = ctx.headIteration;
        nextToAssign = ctx.nextToAssign;
        stlMaster = ctx.master;
        stlEntryCycle = ctx.entryCycle;
        soloMode = ctx.solo;
        curLs = &stlRuntime[stlLoopId];
        lastHeadProgress = cycle;
        // This CPU adopts the outer iteration of the CPU that
        // performed the switch; everyone else restarts theirs.
        for (auto &d : cores) {
            if (d.mode == CpuMode::Halted)
                continue;
            std::uint32_t src = d.id;
            if (d.id == c.id)
                src = ctx.switchCpu;
            else if (d.id == ctx.switchCpu)
                src = c.id;
            d.iteration = ctx.savedIterations[src];
            if (d.id == c.id)
                continue;
            if (soloMode)
                continue; // degraded outer STL: peers stay parked
            d.mode = CpuMode::Speculative;
            d.pc = stlRestartPc;
            d.threadStart = cycle;
            d.stall = StallKind::None;
            d.clearSpecState();
            d.tentativeRun = d.tentativeWait = 0;
            d.tentStart = cycle;
            JRPM_TRACE(static_cast<std::uint8_t>(d.id),
                       TraceEvt::ThreadStart, cycle, stlLoopId,
                       d.iteration);
        }
        c.threadStart = cycle;
        c.clearSpecState();
        chargeHandler(c, HandlerCosts::hoisted().shutdown);
        break;
      }
    }
}

void
Machine::commitThread(Core &c)
{
    JRPM_HPROF(Commit);
    lastHeadProgress = cycle;
    auto &ls = stlRuntime[stlLoopId];
    ++ls.commits;
    ls.threadCycles.sample(static_cast<double>(cycle - c.threadStart));
    ls.loadLines.sample(static_cast<double>(c.tags.readLineCount()));
    ls.storeLines.sample(static_cast<double>(c.buffer.lineCount()));
    ++execStats.commits;
    JRPM_TRACE(static_cast<std::uint8_t>(c.id), TraceEvt::ThreadCommit,
               cycle, stlLoopId, c.iteration);

    // Committed lines supersede stale copies in other L1s.
    if (cfg.cacheTiming)
        for (Addr line : c.buffer.bufferedLines())
            for (auto &d : cores)
                if (d.id != c.id)
                    d.l1.invalidate(line);

    if (fault) {
        std::uint64_t pick = 0;
        if (fault->dueCorrupt(cycle, pick)) {
            Addr corrupted = 0;
            if (c.buffer.corruptOneByte(pick, corrupted)) {
                warnThrottled(
                    "fault.corrupt",
                    "fault: corrupted speculative byte at 0x%08x "
                    "before commit (cpu%u, iteration %llu)",
                    corrupted, c.id,
                    static_cast<unsigned long long>(c.iteration));
                JRPM_TRACE(Trace::kHostTrack, TraceEvt::FaultInjected,
                           cycle,
                           static_cast<std::int32_t>(
                               FaultKind::CorruptCommit),
                           corrupted);
            }
        }
    }

    c.buffer.drainTo(mem);
    retireTentative(c, true);
}

void
Machine::execSmem(Core &c, const Inst &inst)
{
    const HandlerCosts costs = activeCosts();
    switch (static_cast<SmemCmd>(inst.imm)) {
      case SmemCmd::CommitBuffer:
        // Shutdown path: final (partial) thread becomes architectural
        // and subsequent stores (result write-back) go straight to
        // memory — the CPU is the head and about to leave the STL.
        c.buffer.drainTo(mem);
        c.directMode = true;
        retireTentative(c, true);
        break;
      case SmemCmd::CommitBufferAndHead:
        if (!isHead(c.id))
            panic("commit_buffer_and_head by non-head cpu%u", c.id);
        commitThread(c);
        ++headIteration;
        // The head-commit boundary is the only point where aborting
        // speculation leaves no iteration holes: everything up to
        // headIteration is architectural, everything after is
        // squashable.
        if (!soloMode && cfg.governor.enabled && governorShouldTrip())
            governorDegrade(c);
        chargeHandler(c, costs.eoi);
        break;
      case SmemCmd::KillBuffer:
        c.buffer.clear();
        chargeHandler(c, costs.restart);
        break;
    }
}

void
Machine::violate(Core &victim, Addr addr, std::uint32_t site,
                 std::uint32_t store_cpu, SquashCause cause)
{
    const std::size_t causeIdx = static_cast<std::size_t>(cause);
    ++execStats.squashCauses[causeIdx];
    if (cause == SquashCause::RawViolation)
        ++execStats
              .violationsByClass[static_cast<std::size_t>(
                  classifyAddr(addr))];
    if (specActive) {
        auto &ls = stlRuntime[stlLoopId];
        ++ls.violations;
        ++ls.squashCauses[causeIdx];
        if (cause == SquashCause::RawViolation)
            ++ls.violationsByClass[static_cast<std::size_t>(
                classifyAddr(addr))];
    }
    ViolationRecord rec;
    rec.cycle = cycle;
    rec.addr = addr;
    rec.storeSite = site;
    rec.loopId = stlLoopId;
    rec.storeCpu = static_cast<std::uint8_t>(store_cpu);
    rec.victimCpu = static_cast<std::uint8_t>(victim.id);
    rec.victimIteration = victim.iteration;
    rec.victimProgress = cycle - victim.threadStart;
    if (ledger.size() < Trace::kMaxLedger)
        ledger.push_back(rec);
    if (JRPM_TRACE_ON()) {
        Trace::global().recordViolation(rec);
        JRPM_TRACE(static_cast<std::uint8_t>(victim.id),
                   TraceEvt::ThreadViolated, cycle, stlLoopId, addr,
                   site);
    }
    const std::uint64_t from = victim.iteration;
    for (auto &d : cores) {
        if (d.mode != CpuMode::Speculative || d.iteration < from)
            continue;
        if (isHead(d.id)) {
            // The head holds committed state; squashing it is
            // unrecoverable.  In a clean run this is a simulator
            // bug — abort loudly.  Under fault injection the
            // protocol state is deliberately corrupted (e.g. a
            // suppressed squash), so contain the damage instead:
            // convert the run into a diagnosed watchdog failure.
            if (fault && fault->armed()) {
                warn("violation at 0x%08x would squash the head "
                     "(iteration %llu) under fault injection; "
                     "containing via watchdog", addr,
                     static_cast<unsigned long long>(d.iteration));
                watchdogFire();
                return;
            }
            panic("violation would squash the head thread");
        }
        d.squashed = true;
    }
}

void
Machine::squashToRestart(Core &c)
{
    JRPM_HPROF(Squash);
    retireTentative(c, false);
    c.clearSpecState();
    // Pending exception/trap state belongs to the squashed attempt:
    // a stale kind or value must not leak into the retry (the
    // exceptionPending flag is cleared by clearSpecState, but the
    // payload would survive to the next raiseException).
    c.exceptionKind = 0;
    c.exceptionValue = 0;
    c.exceptionPc = Pc{};
    c.stall = StallKind::None;
    c.stallCycles = 0;
    c.threadStart = cycle;
    c.pc = stlRestartPc;
    JRPM_TRACE(static_cast<std::uint8_t>(c.id), TraceEvt::ThreadRestart,
               cycle, stlLoopId, c.iteration);
}

// ---------------------------------------------------------------------
// Robustness: fault hooks, watchdog, speculation governor
// ---------------------------------------------------------------------

void
Machine::pollFaults()
{
    std::uint32_t arg = 0;
    if (fault->dueShrink(cycle, arg)) {
        warnThrottled("fault.shrink",
                      "fault: store buffers clamped to %u lines", arg);
        JRPM_TRACE(Trace::kHostTrack, TraceEvt::FaultInjected, cycle,
                   static_cast<std::int32_t>(
                       FaultKind::ShrinkStoreBuffer),
                   arg);
        for (auto &d : cores)
            d.buffer.limitLines(arg);
    }
    if (specActive && fault->dueSpurious(cycle, arg)) {
        // Victimize a running non-head speculative thread; the
        // protocol must absorb the squash and converge to the same
        // result (recovery, not detection).
        // Strictly more speculative than the head: a core that just
        // committed sits at its old iteration (below headIteration)
        // until EOI reassignment, and a squash sweeping up from
        // there would hit the new head.
        std::vector<Core *> candidates;
        for (auto &d : cores)
            if (d.mode == CpuMode::Speculative &&
                d.iteration > headIteration && !d.squashed)
                candidates.push_back(&d);
        if (!candidates.empty()) {
            Core &v = *candidates[arg % candidates.size()];
            warnThrottled("fault.spurious",
                          "fault: spurious violation on cpu%u "
                          "(iteration %llu)", v.id,
                          static_cast<unsigned long long>(v.iteration));
            JRPM_TRACE(Trace::kHostTrack, TraceEvt::FaultInjected,
                       cycle,
                       static_cast<std::int32_t>(
                           FaultKind::SpuriousViolation),
                       v.id);
            execStats.noteViolation(0);
            violate(v, 0, 0, v.id, SquashCause::SpuriousFault);
        }
    }
}

void
Machine::noteOverflowStall(Core &c)
{
    c.stall = StallKind::Overflow;
    ++execStats.bufferOverflowStalls;
    if (specActive)
        ++stlRuntime[stlLoopId].overflowStalls;
    JRPM_TRACE(static_cast<std::uint8_t>(c.id), TraceEvt::OverflowStall,
               cycle, stlLoopId);
}

void
Machine::watchdogFire()
{
    ++execStats.watchdogFires;
    ++execStats.squashCauses[static_cast<std::size_t>(
        SquashCause::Watchdog)];
    if (specActive)
        ++stlRuntime[stlLoopId].squashCauses[static_cast<std::size_t>(
            SquashCause::Watchdog)];
    watchdogTripped = true;
    warn("watchdog: no head commit for %llu cycles in loop %d "
         "(head iteration %llu, next to assign %llu); dumping state, "
         "squashing and halting",
         static_cast<unsigned long long>(cfg.watchdog.noProgressCycles),
         stlLoopId, static_cast<unsigned long long>(headIteration),
         static_cast<unsigned long long>(nextToAssign));
    for (const auto &d : cores)
        warn("watchdog:   cpu%u mode=%u stall=%u iteration=%llu "
             "pc=%u:%d", d.id, static_cast<unsigned>(d.mode),
             static_cast<unsigned>(d.stall),
             static_cast<unsigned long long>(d.iteration),
             d.pc.method, d.pc.index);
    JRPM_TRACE(Trace::kHostTrack, TraceEvt::WatchdogFired, cycle,
               stlLoopId, headIteration);
    stlRuntime[stlLoopId].cyclesInside += cycle - stlEntryCycle;
    specActive = false;
    curLs = nullptr;
    contextStack.clear();
    for (auto &d : cores) {
        if (d.mode == CpuMode::Halted)
            continue;
        if (d.mode == CpuMode::Speculative)
            retireTentative(d, false);
        d.mode = CpuMode::Parked;
        d.stall = StallKind::None;
        d.stallCycles = 0;
        d.clearSpecState();
    }
    // Terminate with a diagnostic uncatchable exception: the run is
    // reported as failed, not hung until the cycle limit.
    uncaughtExc = true;
    exitVal = static_cast<Word>(ExcKind::Watchdog);
    cores[seqCpu].mode = CpuMode::Halted;
}

bool
Machine::governorShouldTrip() const
{
    const auto it = stlRuntime.find(stlLoopId);
    if (it == stlRuntime.end())
        return false;
    const StlRuntimeStats &ls = it->second;
    if (ls.commits + ls.violations < cfg.governor.minSamples)
        return false;
    const double commits =
        static_cast<double>(ls.commits ? ls.commits : 1);
    return static_cast<double>(ls.violations) >
               cfg.governor.maxViolationsPerCommit * commits ||
           static_cast<double>(ls.overflowStalls) >
               cfg.governor.maxOverflowPerCommit * commits;
}

void
Machine::governorDegrade(Core &head)
{
    auto &ls = stlRuntime[stlLoopId];
    ++execStats.governorAborts;
    ++execStats.squashCauses[static_cast<std::size_t>(
        SquashCause::Governor)];
    ++ls.squashCauses[static_cast<std::size_t>(SquashCause::Governor)];
    ++ls.governorAborts;
    ++ls.soloEntries;
    governorBlacklist.insert(stlLoopId);
    warnThrottled("governor",
                  "governor: degrading loop %d to solo mode "
                  "(%llu violations, %llu overflow stalls, "
                  "%llu commits)", stlLoopId,
                  static_cast<unsigned long long>(ls.violations),
                  static_cast<unsigned long long>(ls.overflowStalls),
                  static_cast<unsigned long long>(ls.commits));
    JRPM_TRACE(Trace::kHostTrack, TraceEvt::GovernorDegrade, cycle,
               stlLoopId, ls.violations,
               static_cast<std::uint32_t>(ls.commits));
    // Everything up to headIteration just became architectural; the
    // peers' in-flight iterations are discarded and reassigned to the
    // head, which now runs them in order by itself.
    parkOthers(head.id);
    nextToAssign = headIteration;
    soloMode = true;
    lastHeadProgress = cycle;
}

// ---------------------------------------------------------------------
// Traps and exceptions
// ---------------------------------------------------------------------

void
Machine::execTrap(Core &c, const Inst &inst)
{
    const Pc instPc = {c.pc.method, c.pc.index - 1};

    // Throws are handled by the machine itself: $a0 holds the
    // exception kind, $a1 the value.  A nonzero aux names the real
    // faulting instruction (shared bounds/null-check throw blocks sit
    // outside the try ranges they serve).
    if (static_cast<TrapId>(inst.imm) == TrapId::Throw) {
        c.exceptionPc = inst.aux ? decodePc(
            static_cast<Word>(inst.aux)) : instPc;
        raiseException(c.id,
                       static_cast<ExcKind>(c.regs[R_A0]),
                       c.regs[R_A1]);
        return;
    }

    if (!runtime)
        panic("TRAP %d with no runtime installed", inst.imm);
    c.exceptionPc = instPc;
    std::uint32_t cost;
    {
        JRPM_HPROF(TrapRuntime);
        cost = runtime->trap(*this, c.id, static_cast<TrapId>(inst.imm));
    }
    if (cost == kTrapRetry) {
        c.pc = instPc;
        c.stall = StallKind::WaitHead;
        return;
    }
    if (c.stall != StallKind::None)
        return; // the trap raised an exception / stalled the CPU
    if (c.pendingOverflowStall) {
        // The trap's memory traffic exceeded the speculative buffer
        // capacity: stall until head, then drain and write through.
        c.pendingOverflowStall = false;
        noteOverflowStall(c);
        return;
    }
    if (cost) {
        c.stall = StallKind::Trap;
        c.stallCycles = cost;
    }
}

void
Machine::raiseException(std::uint32_t cpu, ExcKind kind, Word value)
{
    Core &c = cores[cpu];
    // The Throw trap takes the kind from $a0, which on a speculative
    // thread can be arbitrary mis-speculated bits.  Sanitize before
    // it is stored: a garbage kind defers like any speculative fault,
    // but must not survive to dispatch as an out-of-range enum.
    if (static_cast<std::int32_t>(kind) < 0 ||
        static_cast<std::int32_t>(kind) >
            static_cast<std::int32_t>(ExcKind::Watchdog)) {
        if (!(specActive && c.mode == CpuMode::Speculative &&
              !isHead(cpu)))
            panic("cpu%u raised unknown exception kind %d",
                  cpu, static_cast<std::int32_t>(kind));
        kind = ExcKind::Null;
    }
    c.exceptionKind = static_cast<std::int32_t>(kind);
    c.exceptionValue = value;
    if (specActive && c.mode == CpuMode::Speculative && !isHead(cpu)) {
        // Possibly a false exception from speculative data: wait to
        // become head (or be squashed) before treating it as real
        // (§5.1).
        c.exceptionPending = true;
        c.stall = StallKind::Exception;
        return;
    }
    dispatchException(c);
}

bool
Machine::requireNonSpeculative(std::uint32_t cpu)
{
    return !speculating(cpu);
}

void
Machine::dispatchException(Core &c)
{
    c.exceptionPending = false;
    const ExcKind kind = static_cast<ExcKind>(c.exceptionKind);
    const Word value = c.exceptionValue;

    if (specActive && c.mode == CpuMode::Speculative) {
        // The exception is real (we are the head).  If a catch region
        // of the current method covers the faulting pc *inside* the
        // STL, handle it locally without disturbing speculation.
        const NativeCode &m = code.method(c.exceptionPc.method);
        for (const auto &entry : m.catches) {
            if (c.exceptionPc.index >= entry.beginPc &&
                c.exceptionPc.index < entry.endPc &&
                (entry.kind == -1 ||
                 entry.kind == static_cast<std::int32_t>(kind))) {
                c.pc = {c.exceptionPc.method, entry.handlerPc};
                c.regs[R_V0] = value;
                return;
            }
        }
        // Not caught within the STL: terminate speculation (the head
        // thread's work so far is architectural) and unwind
        // sequentially on this CPU.
        stlRuntime[stlLoopId].cyclesInside += cycle - stlEntryCycle;
        JRPM_TRACE(static_cast<std::uint8_t>(c.id), TraceEvt::StlExit,
                   cycle, stlLoopId, cycle - stlEntryCycle);
        c.buffer.drainTo(mem);
        retireTentative(c, true);
        specActive = false;
        curLs = nullptr;
        contextStack.clear();
        c.mode = CpuMode::Sequential;
        seqCpu = c.id;
        parkOthers(c.id);
    }
    unwind(c, kind, value);
}

void
Machine::unwind(Core &c, ExcKind kind, Word value)
{
    switch (kind) {
      case ExcKind::Null:
      case ExcKind::Bounds:
      case ExcKind::Arithmetic:
      case ExcKind::User:
        break;
      case ExcKind::Watchdog:
        // Diagnostic kinds are never application-catchable: even a
        // catch-all handler must not swallow a watchdog abort.
        uncaughtExc = true;
        exitVal = value;
        c.mode = CpuMode::Halted;
        return;
      default:
        panic("unwind: invalid exception kind %d on cpu%u (%s)",
              static_cast<std::int32_t>(kind), c.id,
              excKindName(kind));
    }
    Pc at = c.exceptionPc;
    bool first = true;
    while (true) {
        const NativeCode &m = code.method(at.method);
        for (const auto &entry : m.catches) {
            if (at.index >= entry.beginPc && at.index < entry.endPc &&
                (entry.kind == -1 ||
                 entry.kind == static_cast<std::int32_t>(kind))) {
                c.pc = {at.method, entry.handlerPc};
                c.regs[R_V0] = value;
                return;
            }
        }
        // A frameless leaf keeps its return address in $ra; only the
        // innermost frame can be in that state.
        if (first && m.frameBytes == 0) {
            first = false;
            const Word ra = c.regs[R_RA];
            if (ra == kReturnSentinel) {
                uncaughtExc = true;
                exitVal = value;
                c.mode = CpuMode::Halted;
                return;
            }
            at = decodePc(ra);
            at.index -= 1;
            continue;
        }
        first = false;
        // Restore the callee-saved registers this frame spilled so
        // the eventual handler sees its caller-state intact, then pop
        // the frame: [fp-4] = saved ra, [fp-8] = saved fp.
        const Addr fp = c.regs[R_FP];
        for (const auto &[sreg, off] : m.savedRegs) {
            const Addr slot = fp + static_cast<Word>(off);
            if (mem.valid(slot, 4))
                c.regs[sreg] = mem.readWord(slot);
        }
        if (!mem.valid(fp - 8, 8)) {
            uncaughtExc = true;
            c.mode = CpuMode::Halted;
            return;
        }
        const Word ra = mem.readWord(fp - 4);
        const Word oldFp = mem.readWord(fp - 8);
        if (ra == kReturnSentinel) {
            uncaughtExc = true;
            exitVal = value;
            c.mode = CpuMode::Halted;
            return;
        }
        c.regs[R_SP] = fp;
        c.regs[R_FP] = oldFp;
        at = decodePc(ra);
        at.index -= 1; // the call site instruction
    }
}

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

void
Machine::setAddrRegions(std::vector<AddrRegion> regions)
{
    addrRegions = std::move(regions);
}

AddrClass
Machine::classifyAddr(Addr addr) const
{
    // A handful of regions; linear scan beats anything fancier.
    for (const AddrRegion &r : addrRegions)
        if (addr >= r.base && addr < r.limit)
            return r.cls;
    return AddrClass::Unknown;
}

std::uint64_t
Machine::l1Hits() const
{
    std::uint64_t n = 0;
    for (const auto &c : cores)
        n += c.l1.hits();
    return n;
}

std::uint64_t
Machine::l1Misses() const
{
    std::uint64_t n = 0;
    for (const auto &c : cores)
        n += c.l1.misses();
    return n;
}

void
Machine::publishMetrics(MetricsRegistry &reg) const
{
    reg.counter("tls.cycles").inc(cycle);
    reg.counter("tls.insts").inc(nInsts);
    reg.counter("tls.mem_ops").inc(nMemOps);
    for (const auto &c : cores)
        c.l1.publishMetrics(reg, strfmt("cache.l1.cpu%u", c.id));
    l2.publishMetrics(reg, "cache.l2");

    std::string p = "tls.";
#define JRPM_PUBLISH_COUNTER(path, metric, ...)                              \
    if (metric[0])                                                           \
        reg.counter(p + metric).inc(st.path);
#define JRPM_PUBLISH_SAMPLES(m, metric)                                      \
    if (metric[0])                                                           \
        reg.histogram(p + metric).merge(st.m);
#define JRPM_PUBLISH_CAUSES(m, n, name, metric, ...)                         \
    if (metric[0])                                                           \
        for (std::size_t i = 0; i < n; ++i)                                  \
            reg.counter(p + metric + name(i)).inc(st.m[i]);
    {
        const ExecStats &st = execStats;
        JRPM_EXEC_STATS(JRPM_STATS_SKIP, JRPM_PUBLISH_COUNTER,
                        JRPM_PUBLISH_COUNTER, JRPM_STATS_SKIP,
                        JRPM_PUBLISH_CAUSES)
    }
    for (const auto &[loop, st] : stlRuntime) {
        p = strfmt("tls.loop%d.", loop);
        JRPM_STL_STATS(JRPM_PUBLISH_COUNTER, JRPM_PUBLISH_COUNTER,
                       JRPM_PUBLISH_SAMPLES, JRPM_STATS_SKIP,
                       JRPM_PUBLISH_CAUSES)
    }
#undef JRPM_PUBLISH_COUNTER
#undef JRPM_PUBLISH_SAMPLES
#undef JRPM_PUBLISH_CAUSES
}

} // namespace jrpm

/**
 * @file
 * The Hydra CMP with thread-level speculation: four single-issue cores
 * stepped cycle by cycle, the TLS protocol (forwarding, RAW violation
 * detection, ordered commit, overflow stalls), the Table 1 handler
 * cost model, and the Fig. 10 execution-state accounting.
 *
 * This is the substrate everything else runs on: the JIT emits native
 * code into the machine's code space, the VM runtime answers its
 * traps, and the TEST profiler observes its annotated sequential
 * execution.
 */

#ifndef JRPM_TLS_MACHINE_HH
#define JRPM_TLS_MACHINE_HH

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "cpu/code_space.hh"
#include "cpu/config.hh"
#include "cpu/core.hh"
#include "cpu/hooks.hh"
#include "cpu/stats.hh"
#include "memory/cache.hh"
#include "memory/main_memory.hh"

namespace jrpm
{

/** Exception kinds raised by hardware or the Throw trap. */
enum class ExcKind : std::int32_t
{
    Null = 0,
    Bounds = 1,
    Arithmetic = 2,
    User = 3,
    /** Diagnostic: forward-progress watchdog fired (never catchable
     *  by application handlers). */
    Watchdog = 4,
};

/** Stable name for diagnostics ("null", "bounds", ...). */
const char *excKindName(ExcKind kind);

/** Return-address sentinel marking the bottom of the call stack. */
constexpr Word kReturnSentinel = 0xffffffff;

/**
 * Returned by RuntimeHooks::trap when the trap cannot execute
 * speculatively: the machine rewinds the TRAP and stalls the CPU
 * until it becomes the head thread, then retries.
 */
constexpr std::uint32_t kTrapRetry = 0xffffffff;

/** The simulated chip multiprocessor. */
class Machine
{
  public:
    explicit Machine(const SystemConfig &cfg = {});

    CodeSpace &codeSpace() { return code; }
    const CodeSpace &codeSpace() const { return code; }
    MainMemory &memory() { return mem; }
    const SystemConfig &config() const { return cfg; }

    /** Install the VM runtime that answers TRAP instructions. */
    void setRuntime(RuntimeHooks *hooks) { runtime = hooks; }

    /**
     * Install (or remove, with nullptr) the TEST profiler.  While a
     * profiler is attached, annotation instructions and heap accesses
     * of the sequential thread are reported to it.
     */
    void setProfiler(ProfileHook *hook) { profiler = hook; }

    /**
     * Install (or remove, with nullptr) a deterministic fault
     * injector.  The machine consults it at its TLS hook points
     * (violation detect, slave wakeup, commit, handler charge) and at
     * each cycle boundary for asynchronous events.
     */
    void setFaultInjector(FaultInjector *inj) { fault = inj; }

    /**
     * Begin sequential execution of a method on CPU 0.
     * @param method_id entry method
     * @param args      up to 4 arguments placed in $a0..$a3
     * @param stack_top initial $sp/$fp (grows down)
     */
    void start(std::uint32_t method_id, const std::vector<Word> &args,
               Addr stack_top);

    /**
     * Run until the program halts or @p max_cycles elapse.
     * @return true if the program halted.
     */
    bool run(std::uint64_t max_cycles = ~0ull);

    bool halted() const;
    Cycle now() const { return cycle; }

    /** Return value left in $v0 of the halting CPU. */
    Word exitValue() const { return exitVal; }
    bool uncaughtException() const { return uncaughtExc; }

    /** True if the forward-progress watchdog killed the run. */
    bool watchdogFired() const { return watchdogTripped; }

    /** True while any STL is active (head thread included); compare
     *  speculating(), which excludes the head. */
    bool speculationActive() const { return specActive; }

    // ---- differential oracle -----------------------------------------
    /** Copy of the memory pages the run wrote. */
    MemImage memorySnapshot() const { return mem.image(); }
    /** FNV-1a checksum of memory, skipping sorted @p skip regions. */
    std::uint64_t
    memoryChecksum(const std::vector<std::pair<Addr, std::uint32_t>>
                       &skip = {}) const
    {
        return mem.checksum(skip);
    }
    /** This run's squashes, oldest first, up to Trace::kMaxLedger:
     *  what the oracle blames a divergence on.  Kept whether or not
     *  the flight recorder is on. */
    const std::vector<ViolationRecord> &violations() const
    {
        return ledger;
    }

    const ExecStats &stats() const { return execStats; }
    ExecStats &stats() { return execStats; }
    const StlStatsMap &stlStats() const { return stlRuntime; }

    // ---- interface for the VM runtime (trap handlers) -------------
    Word reg(std::uint32_t cpu, std::uint8_t r) const;
    void setReg(std::uint32_t cpu, std::uint8_t r, Word v);
    bool speculating(std::uint32_t cpu) const;
    bool isHead(std::uint32_t cpu) const;

    /**
     * Memory access on behalf of a trap handler: flows through the
     * full TLS path (buffers, forwarding, violation broadcast).
     * @return latency cycles the trap should charge.
     */
    std::uint32_t trapLoadWord(std::uint32_t cpu, Addr addr,
                               Word &value);
    std::uint32_t trapStoreWord(std::uint32_t cpu, Addr addr,
                                Word value);

    /** Raise an exception from a trap handler. */
    void raiseException(std::uint32_t cpu, ExcKind kind, Word value);

    /**
     * Force this CPU to stall until it becomes the head thread (used
     * by traps that cannot execute speculatively, e.g. I/O).
     * @return true if the CPU is already safe to proceed.
     */
    bool requireNonSpeculative(std::uint32_t cpu);

    /** Number of dynamically executed instructions (all CPUs). */
    std::uint64_t instCount() const { return nInsts; }

    /** Per-CPU view, for tests. */
    const Core &core(std::uint32_t cpu) const { return cores[cpu]; }

    // ---- cache-model counters (timing diagnostics) -----------------
    std::uint64_t l1Hits() const;
    std::uint64_t l1Misses() const;
    std::uint64_t l2Hits() const { return l2.hits(); }
    std::uint64_t l2Misses() const { return l2.misses(); }

    /** Add this run's counters to @p reg under "tls." / "cache."
     *  (per-STL ones under "tls.loop<id>."). */
    void publishMetrics(MetricsRegistry &reg) const;

    // ---- dependence telemetry (observatory) -------------------------
    /** One contiguous address range with a variable-class label. */
    struct AddrRegion
    {
        Addr base = 0;
        Addr limit = 0;   ///< exclusive
        AddrClass cls = AddrClass::Unknown;
    };

    /** Install the VM memory-layout regions used to bucket violated
     *  addresses by variable class (stack/heap/static/scratch). */
    void setAddrRegions(std::vector<AddrRegion> regions);

    /** Variable-class bucket for @p addr (Unknown if unmapped). */
    AddrClass classifyAddr(Addr addr) const;

  private:
    // ---- machine state ---------------------------------------------
    SystemConfig cfg;
    CodeSpace code;
    MainMemory mem;
    CacheModel l2;
    std::vector<Core> cores;
    RuntimeHooks *runtime = nullptr;
    ProfileHook *profiler = nullptr;
    FaultInjector *fault = nullptr;
    /** CP2 registers shared through the write bus (saved_fp etc.). */
    std::array<Word, 16> globalCp2{};

    Cycle cycle = 0;
    std::uint64_t nInsts = 0;
    std::uint64_t nMemOps = 0;
    Word exitVal = 0;
    bool uncaughtExc = false;
    std::uint32_t seqCpu = 0;      ///< CPU owning sequential execution

    // ---- STL (speculation) state ------------------------------------
    struct StlContext
    {
        std::int32_t loopId = -1;
        Pc restartPc;
        std::uint64_t headIteration = 0;
        std::uint64_t nextToAssign = 0;
        std::uint32_t master = 0;
        std::uint32_t switchCpu = 0; ///< CPU that performed the switch
        Cycle entryCycle = 0;
        bool solo = false;           ///< outer STL was head-only
        /** saved per-CPU iterations for multilevel switches */
        std::vector<std::uint64_t> savedIterations;
    };

    bool specActive = false;
    std::int32_t stlLoopId = -1;
    Pc stlRestartPc;
    std::uint64_t headIteration = 0;
    std::uint64_t nextToAssign = 0;
    std::uint32_t stlMaster = 0;
    Cycle stlEntryCycle = 0;
    bool hoistedHandlers = false;  ///< §4.2.7 cost model active
    std::vector<StlContext> contextStack; ///< multilevel (§4.2.6)

    // ---- graceful degradation ---------------------------------------
    /** Cycle of the last head commit / STL boundary (watchdog). */
    Cycle lastHeadProgress = 0;
    bool watchdogTripped = false;
    /** Governor degraded the current STL: only the head runs; slave
     *  wakeups are suppressed and parked peers stay parked. */
    bool soloMode = false;
    std::unordered_set<std::int32_t> governorBlacklist;

    ExecStats execStats;
    StlStatsMap stlRuntime;
    /** This run's violation ledger (see violations()). */
    std::vector<ViolationRecord> ledger;

    /** Cached &stlRuntime[stlLoopId] so per-window telemetry avoids a
     *  map lookup; kept in sync wherever stlLoopId changes.  Map nodes
     *  are address-stable, so the pointer survives later insertions. */
    StlRuntimeStats *curLs = nullptr;

    /** VM layout regions for classifyAddr (few entries; linear scan). */
    std::vector<AddrRegion> addrRegions;

    // ---- event-horizon fast path ------------------------------------
    /** Each CPU's share of a speculative cycle (Fig. 10 buckets). */
    static constexpr double specShare = 1.0 / SystemConfig::numCpus;
    /** Scratch list of cores executing in the current burst window
     *  (reused across windows to avoid per-window allocation). */
    std::vector<Core *> burstRunners;
    /** True while a speculative burst window is executing its rounds:
     *  memory ops reached from there were proved core-local by the
     *  signature check (spec_fast_mem accounting). */
    bool inSpecWindow = false;
    /** One approved memory op of the current round (hazard check). */
    struct RoundMem
    {
        Addr word;
        std::uint64_t iteration;
        bool store;
    };
    /** Scratch list of the round's approved memory ops (<= numCpus),
     *  reused across rounds to avoid per-round allocation. */
    std::vector<RoundMem> roundMem;

    /**
     * Bit i set: burstRunners[i]'s next round retires an approved
     * memory op.  That round must execute as a lockstep interleave
     * (shared cache state is order-sensitive) and the op may gain a
     * miss stall, which is checked right after the round instead of
     * at the next approval -- the approval already extends into the
     * transparent run that follows the op.  Always consumed by the
     * round after the approval that set it; cleared with runLeft on
     * every window close and slow fallback.
     */
    std::uint32_t roundMemMask = 0;

    /**
     * Advance by 1..@p budget cycles with accounting bit-identical to
     * that many step() calls, batching quiet spans and bursting
     * event-free instruction runs.  Returns the cycles consumed.
     */
    std::uint64_t advance(std::uint64_t budget);
    std::uint64_t advanceSequential(std::uint64_t budget);
    std::uint64_t advanceSpeculative(std::uint64_t budget);
    /** Retire up to @p max_insts sequential instructions, one cycle
     *  each; the caller verified the first is in range and not a
     *  burst stopper.  Returns instructions retired (>= 1). */
    std::uint64_t executeBurst(Core &c, std::uint64_t max_insts);
    /** Decode-and-execute one instruction (pc already advanced). */
    void execInst(Core &c, const Inst &inst);
    /** Revalidate @p c's decoded-frame cache; false if pc is outside
     *  the method (wild pc). */
    bool frameReady(Core &c);
    /** True if @p inst must take the per-cycle path outside
     *  speculation: speculation control reorders cross-core state. */
    bool burstStop(const Inst &inst) const;
    /**
     * Approve the next round for every runner whose remaining
     * approved run (Core::runLeft) has expired; false if the window
     * must close.  A runner sitting on a straight-line transparent
     * run approves its whole run with one byte load (JIT-side table)
     * and is not looked at again until the run ends; memory ops run
     * the signature eligibility check and approve exactly one round,
     * so every memory op is re-checked against the signatures of the
     * round it executes in.  Approved same-round store/load pairs to
     * one word close the window so step() orders them cycle-exactly.
     * Callers must guarantee runLeft == 0 for all runners on the
     * first approval of a window (see the reset on window close).
     */
    bool roundApprove();
    /** True if speculative memory op (@p store, @p addr, @p len) may
     *  retire inside a burst window: it provably cannot fault,
     *  overflow a buffer, forward from another core or violate a
     *  reader (write/read-set signature check).  Stalls it *gains*
     *  (cache misses) close the window after its round instead. */
    bool memEligibleFast(const Core &c, Op op, bool store, Addr addr,
                         std::uint32_t len) const;
    /** Emit this cycle's states for a sequential span: @p s for the
     *  sequential CPU, Idle for everyone else, in CPU order. */
    void noteSequentialStates(Core &c, TraceState s);
    /** The state a core occupies for a whole speculative window. */
    TraceState specWindowState(const Core &c) const;

    // ---- stepping ---------------------------------------------------
    /** Advance the machine by one cycle: the per-cycle reference
     *  that Dispatch::Exact runs and every fast path must match. */
    void step();
    void stepCpu(Core &c);
    void execute(Core &c);
    void execMemOp(Core &c, const Inst &inst);
    void execMemOpImpl(Core &c, const Inst &inst);
    void execScop(Core &c, const Inst &inst);
    void execSmem(Core &c, const Inst &inst);
    void execTrap(Core &c, const Inst &inst);

    // ---- TLS mechanics ----------------------------------------------
    /** Perform a data load with full TLS semantics.  In trap
     *  context the load may exceed the load-buffer capacity; the CPU
     *  then stalls until head at the next instruction boundary. */
    std::uint32_t doLoad(Core &c, Addr addr, std::uint32_t len,
                         bool sign_extend, bool non_violating,
                         Word &out, bool &faulted,
                         std::uint32_t site = 0,
                         bool trap_context = false);
    /** Perform a data store with full TLS semantics (see doLoad for
     *  trap context). */
    std::uint32_t doStore(Core &c, Addr addr, std::uint32_t len,
                          Word value, bool &faulted, bool &stalled,
                          std::uint32_t site = 0,
                          bool trap_context = false);

    /** Squash CPU @p victim and everything more speculative.
     *  @p addr/@p site/@p store_cpu attribute the violating store;
     *  @p cause feeds the squash-cause telemetry. */
    void violate(Core &victim, Addr addr, std::uint32_t site,
                 std::uint32_t store_cpu,
                 SquashCause cause = SquashCause::RawViolation);
    /** Reset one CPU to its STL restart point. */
    void squashToRestart(Core &c);
    /** Commit the thread of @p c (must be head). */
    void commitThread(Core &c);
    /** Move tentative cycle accounting into used buckets. */
    void retireTentative(Core &c, bool used);
    /** Emit a flight-recorder StateChange if the state changed. */
    void noteState(Core &c, TraceState s);

    void beginStl(Core &master, std::int32_t loop_id, Pc restart_pc);
    void wakeSlaves(Core &master, Pc entry);
    void parkOthers(std::uint32_t keep_cpu);
    void chargeHandler(Core &c, std::uint32_t cycles);

    void dispatchException(Core &c);
    void unwind(Core &c, ExcKind kind, Word value);

    // ---- robustness -------------------------------------------------
    /** Fire asynchronous fault events (spurious violation, buffer
     *  shrink) due this cycle. */
    void pollFaults();
    /** Count an overflow stall against stats and the current loop. */
    void noteOverflowStall(Core &c);
    /** No head commit for too long: dump diagnostics, squash, halt. */
    void watchdogFire();
    /** True if the current loop's misbehaviour warrants degrading. */
    bool governorShouldTrip() const;
    /** Abort speculation on the current loop: blacklist it, park the
     *  peers and continue head-only (called at a head commit). */
    void governorDegrade(Core &head);

    std::uint32_t cacheLatency(Core &c, Addr addr, bool is_store);
    HandlerCosts activeCosts() const;
};

} // namespace jrpm

#endif // JRPM_TLS_MACHINE_HH

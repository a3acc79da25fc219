/**
 * @file
 * The Jrpm controller — the paper's primary contribution (Fig. 1):
 *
 *  1. compile bytecodes natively with annotation instructions,
 *  2. run the annotated program sequentially while TEST collects
 *     statistics on the prospective thread decompositions,
 *  3. post-process the profile and choose the decompositions with
 *     the best predicted speedups,
 *  4. recompile the selected loops with TLS instructions,
 *  5. run the native TLS code.
 *
 * JrpmSystem drives all five steps over a workload and produces the
 * report the benchmark harnesses turn into the paper's tables and
 * figures, including the Fig. 9 whole-lifecycle cycle accounting
 * (compile + profile + recompile + GC + application).
 */

#ifndef JRPM_CORE_JRPM_HH
#define JRPM_CORE_JRPM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bytecode/bytecode.hh"
#include "common/cancel.hh"
#include "common/fault.hh"
#include "core/oracle.hh"
#include "crystal/crystal.hh"
#include "jit/compiler.hh"
#include "profile/analyzer.hh"
#include "tls/machine.hh"
#include "tracer/test_profiler.hh"
#include "vm/runtime.hh"

namespace jrpm
{

/** A benchmark program plus its run parameters and Table 3/4 notes. */
struct Workload
{
    std::string name;
    std::string category;         ///< "integer" | "fp" | "multimedia"
    std::string description;
    std::string dataSet;          ///< Table 3 column (b) text
    BcProgram program;
    std::vector<Word> mainArgs;
    std::vector<Word> profileArgs; ///< empty = same as mainArgs
    bool analyzable = false;       ///< Table 3 column (a)
    bool dataSetSensitive = false;
    std::uint32_t manualLines = 0; ///< Table 4: lines modified
    std::string manualNote;        ///< Table 4: what was transformed
};

/** Crystal repository wiring: warm-start policy for this instance. */
struct CrystalRunConfig
{
    /** Borrowed, shared, thread-safe; nullptr disables crystal. */
    CrystalRepo *repo = nullptr;
    WarmMode warm = WarmMode::Auto;
};

/** Full configuration of a Jrpm instance. */
struct JrpmConfig
{
    SystemConfig sys;
    JitConfig jit;
    AnalyzerConfig analyzer;
    VmConfig vm;
    TracerConfig tracer;
    /** Persistent decomposition repository (warm-start). */
    CrystalRunConfig crystal;
    /** Differential oracle against the sequential golden run. */
    OracleConfig oracle;
    /** Faults injected into the TLS run (robustness harness). */
    FaultPlan faultPlan;
    /** Cooperative cancel/deadline token, polled between the Fig. 1
     *  pipeline stages; a stop turns the run into a fatal() (a
     *  per-case error under ScopedFatalCapture).  Empty = never. */
    CancelToken cancel;
    /** microJIT speed model: cycles per bytecode compiled. */
    double cyclesPerBytecodeCompile = 250.0;
    /** recompilation touches only STL-bearing methods. */
    double recompileFraction = 0.4;
    std::uint64_t maxCycles = 4'000'000'000ull;
};

/** Outcome of one machine run. */
struct RunOutcome
{
    bool halted = false;
    bool uncaught = false;
    Word exitValue = 0;
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    ExecStats stats;
    StlStatsMap stl;
    VmStats vm;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    /** Oracle capture (zero / null when the oracle is off). */
    std::uint64_t memChecksum = 0;
    std::shared_ptr<const MemImage> memImage; ///< Strict mode only
    /** The run's own violation ledger (Strict mode only): what the
     *  oracle blames a divergence on. */
    std::vector<ViolationRecord> violations;
    bool watchdogFired = false;
    std::uint32_t faultsInjected = 0;
};

/**
 * First difference between two runs of one program ("" when they
 * agree), as "<field>: <a> vs <b>".  Compares what the simulated
 * machine did: results, VM output and counters, cycle, instruction
 * and cache counts, the oracle's memory checksum, the violation
 * address map and every ExecStats row whose `diff` column is true
 * (cpu/stats.hh).  The other rows count how the simulator stepped
 * and differ between Dispatch::Fast and Dispatch::Exact.
 */
std::string outcomeDiff(const RunOutcome &a, const RunOutcome &b);

/** Fig. 9 lifecycle components, in cycles. */
struct PhaseBreakdown
{
    std::uint64_t compile = 0;
    std::uint64_t profiling = 0;
    std::uint64_t recompile = 0;
    std::uint64_t application = 0;
    std::uint64_t gc = 0;

    std::uint64_t
    total() const
    {
        return compile + profiling + recompile + application + gc;
    }
};

/** Everything the benches need about one workload's Jrpm run. */
struct JrpmReport
{
    std::string name;
    RunOutcome seqMain;       ///< plain sequential, main input
    RunOutcome seqProfileIn;  ///< plain sequential, profile input
    RunOutcome profiled;      ///< annotated run, profile input
    RunOutcome tls;           ///< speculative run, main input
    /** TEST's per-loop profiles; empty on a warm start, which
     *  profiles nothing (like `profiled`). */
    std::map<std::int32_t, LoopProfile> profiles;
    std::vector<SelectedStl> selections;
    PhaseBreakdown phases;

    /** Crystal: the repository key of this (workload, config). */
    std::uint64_t fingerprint = 0;
    /** True when steps 2-3 were skipped via a repository hit. */
    bool warmStart = false;
    /** The warm entry was demoted after this run (mis-prediction,
     *  divergence or watchdog). */
    bool demoted = false;

    double profilingSlowdown = 1.0;  ///< Fig. 8 left bar
    double predictedTlsCycles = 0;   ///< Fig. 8 middle bar (x seq)
    double actualSpeedup = 1.0;      ///< Fig. 8 right bar (inverse)
    double totalSpeedup = 1.0;       ///< Fig. 9
    bool outputsMatch = false;       ///< TLS == sequential results
    OracleReport oracle;             ///< differential verdict

    /** Hottest violating store addresses of the TLS run, count-desc. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> topViolations;
};

/** The Jrpm system instance for one workload. */
class JrpmSystem
{
  public:
    JrpmSystem(Workload workload, JrpmConfig cfg = {});

    /** Run the full Fig. 1 pipeline and report. */
    JrpmReport run();

    /** Step 2 only: profile and return the raw TEST statistics. */
    std::map<std::int32_t, LoopProfile> profileOnly();

    /** Steps 2+3 only: profile and select. */
    std::vector<SelectedStl> selectOnly();

    /**
     * One sequential run.
     * @param annotated compile with TEST annotations
     * @param prof      profiler to attach (may be nullptr)
     */
    RunOutcome runSequential(const std::vector<Word> &args,
                             bool annotated, TestProfiler *prof);

    /** One speculative run with the given selections. */
    RunOutcome runTls(const std::vector<Word> &args,
                      const std::vector<SelectedStl> &selections);

    const Jit &jit() const { return theJit; }
    const JrpmConfig &config() const { return cfg; }
    const Workload &workload() const { return load; }

  private:
    Workload load;
    JrpmConfig cfg;
    Jit theJit;

    RunOutcome runOn(Machine &m, const std::vector<Word> &args);

    /** The Fig. 1 pipeline body; run() wraps it with the host-side
     *  profiler's Pipeline slot. */
    JrpmReport runPipeline();

    /**
     * Enforce the one-active-STL-at-a-time constraint across the
     * call graph: a selected loop whose body can (transitively) call
     * into a method holding another selected loop would re-enter
     * speculation; the lower-coverage selection is dropped.
     */
    std::vector<SelectedStl>
    filterDynamicNesting(std::vector<SelectedStl> selections) const;
};

} // namespace jrpm

#endif // JRPM_CORE_JRPM_HH

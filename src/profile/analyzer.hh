/**
 * @file
 * Profile analyzer: turns accumulated TEST statistics into predicted
 * TLS performance and selects the speculative thread loops to
 * recompile (§3.1 of the paper).
 *
 * Selection rules from the paper: only loops with average
 * iterations-per-entry >> 1, speculative buffer overflow frequency
 * << 1 and predicted speedup > 1.2 become STLs; within a loop nest —
 * where only one level may speculate at a time — the level with the
 * lowest estimated execution time wins.
 */

#ifndef JRPM_PROFILE_ANALYZER_HH
#define JRPM_PROFILE_ANALYZER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cpu/config.hh"
#include "tracer/test_profiler.hh"

namespace jrpm
{

/** Static shape of a natural loop as reported by the compiler. */
struct LoopInfo
{
    std::int32_t loopId = -1;
    std::int32_t parentId = -1;   ///< enclosing loop, -1 if top level
    std::uint32_t methodId = 0;
};

/** The analyzer's fixed selection heuristics (§3.1) and costs; no
 *  member is settable. */
struct AnalyzerConfig
{
    /** The New costs (Table 1), whatever the machine runs with. */
    static constexpr HandlerCosts handlers{};
    static constexpr double minItersPerEntry = 3.0; ///< ">> 1"
    /** Fixed per-iteration cost of the recompiled EOI block (the
     *  wait/commit/advance/jump instructions of Fig. 4). */
    static constexpr double eoiBlockCycles = 5.0;
    /** Commits pass the head serially; thread starts cannot be
     *  closer than this regardless of thread size. */
    static constexpr double minCommitInterval = 3.0;
    static constexpr double maxOverflowFrequency = 0.10; ///< "<< 1"
    static constexpr double minPredictedSpeedup = 1.2;
    /** Sync-lock plan thresholds (§4.2.4): dependency occurs in more
     *  than this fraction of threads ... */
    static constexpr double syncDepFrequency = 0.8;
    /** ... and its arc length is much shorter than the thread. */
    static constexpr double syncArcLengthRatio = 0.5;
    /** Multilevel plan (§4.2.6): the inner loop is entered in fewer
     *  than this fraction of outer iterations. */
    static constexpr double multilevelEntryRatio = 0.2;
};

/** Predicted TLS behaviour of one potential STL. */
struct StlPrediction
{
    std::int32_t loopId = -1;
    double avgThreadSize = 0;
    double itersPerEntry = 0;
    double coverageCycles = 0;
    double depFrequency = 0;
    double avgArcDistance = 0;
    double avgArcSlack = 0;     ///< storeOffset - loadOffset, clamped
    double overflowFrequency = 0;
    double avgLoadLines = 0;
    double avgStoreLines = 0;
    double predictedSpeedup = 1.0;
    double predictedTlsCycles = 0;
    bool eligible = false;
    std::string reason;         ///< why not eligible (diagnostics)
};

/** How a selected STL should be compiled (the optimization plan). */
struct OptPlan
{
    bool syncLock = false;       ///< §4.2.4 thread synchronizing lock
    std::int32_t syncLocalVar = -1; ///< the protected carried local
    bool multilevel = false;     ///< §4.2.6 switch target exists
    std::int32_t multilevelInner = -1;
    bool hoistHandlers = false;  ///< §4.2.7
};

/** One loop chosen for recompilation into speculative threads. */
struct SelectedStl
{
    std::int32_t loopId = -1;
    StlPrediction prediction;
    OptPlan plan;
};

/** The analysis + selection engine. */
class Analyzer
{
  public:
    explicit Analyzer(const AnalyzerConfig &cfg = {});

    /** Predict TLS performance of one loop from its profile. */
    StlPrediction predict(const LoopProfile &profile) const;

    /**
     * Choose the set of STLs over a loop forest.
     * @param loops    static loop structure from the compiler
     * @param profiles TEST profiles keyed by loop id
     * @return selections, best-covered first
     */
    std::vector<SelectedStl>
    select(const std::vector<LoopInfo> &loops,
           const std::map<std::int32_t, LoopProfile> &profiles) const;

  private:
    AnalyzerConfig cfg;

    /** Estimated cycles if the subtree rooted at a loop executes with
     *  the best decomposition choice; fills chosen set. */
    double bestSubtreeTime(
        std::int32_t loop,
        const std::map<std::int32_t, std::vector<std::int32_t>> &kids,
        const std::map<std::int32_t, LoopProfile> &profiles,
        std::vector<SelectedStl> &chosen) const;
};

} // namespace jrpm

#endif // JRPM_PROFILE_ANALYZER_HH

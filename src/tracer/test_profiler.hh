/**
 * @file
 * TEST — the Tracer for Extracting Speculative Threads (§3.2 of the
 * Jrpm paper; Chen & Olukotun, CGO'03).
 *
 * Hardware model: while an annotated program runs *sequentially*,
 * the otherwise-idle speculative store buffers hold timestamps (three
 * partitions for heap store timestamps, one for cache-line
 * timestamps, one for local-variable store timestamps), and an array
 * of eight comparator banks — one per potential STL being analyzed —
 * compares incoming timestamps against thread-start timestamps to
 * find inter-thread dependency arcs and speculative buffer
 * requirements.
 *
 * Two analyses per bank (§3.1):
 *  - load dependency analysis: on a load, the timestamp of the last
 *    store to that address reveals whether an earlier *iteration*
 *    produced the value; the smallest-distance arc per thread is the
 *    critical arc limiting parallelism;
 *  - speculative state overflow analysis: cache-line timestamps count
 *    the lines a thread would pin in the load buffer / occupy in the
 *    store buffer, flagging threads that exceed the hardware limits.
 */

#ifndef JRPM_TRACER_TEST_PROFILER_HH
#define JRPM_TRACER_TEST_PROFILER_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/metrics.hh"
#include "common/stats.hh"
#include "cpu/hooks.hh"
#include "memory/spec_state.hh"

namespace jrpm
{

/** Geometry of the TEST hardware: what tests vary, then what is fixed. */
struct TracerConfig
{
    std::uint32_t numBanks = 8;        ///< comparator banks
    std::uint32_t storeBufferLines = 64;
    /** Banks stealable from consistently-overflowing outer loops. */
    bool allowBankStealing = true;

    static constexpr std::uint32_t lineBytes = SpecBufferConfig::lineBytes;
    static constexpr std::uint32_t loadBufferLines = 512;
    /** Thread-start history depth per bank; arcs reaching farther
     *  back are reported at this maximum distance. */
    static constexpr std::uint32_t startHistory = 128;
};

/** A critical-arc source: a heap load site or a local variable. */
struct ArcSite
{
    bool isLocal = false;
    std::uint32_t id = 0;   ///< encoded pc of the load, or var id

    bool
    operator<(const ArcSite &o) const
    {
        return isLocal != o.isLocal ? isLocal < o.isLocal : id < o.id;
    }
};

/** Accumulated profile of one potential STL. */
struct LoopProfile
{
    std::int32_t loopId = -1;

    std::uint64_t entries = 0;
    std::uint64_t iterations = 0;      ///< observed threads
    std::uint64_t skippedEntries = 0;  ///< no comparator bank free
    SampleStat threadSize;             ///< cycles per thread

    // Load dependency analysis results (critical arcs only).
    std::uint64_t depThreads = 0;      ///< threads with an arc
    SampleStat arcDistance;            ///< iterations spanned
    SampleStat arcStoreOffset;         ///< store time within producer
    SampleStat arcLoadOffset;          ///< load time within consumer
    std::map<ArcSite, std::uint64_t> arcSites; ///< who consumed

    // Speculative state overflow analysis results.
    SampleStat loadLines;              ///< lines read per thread
    SampleStat storeLines;             ///< lines written per thread
    std::uint64_t overflowThreads = 0;

    /** Fraction of threads with an inter-thread dependency. */
    double
    depFrequency() const
    {
        return iterations ? static_cast<double>(depThreads) /
                            static_cast<double>(iterations)
                          : 0.0;
    }

    /** Fraction of threads whose state overflows the buffers. */
    double
    overflowFrequency() const
    {
        return iterations ? static_cast<double>(overflowThreads) /
                            static_cast<double>(iterations)
                          : 0.0;
    }

    /** Average loop iterations per entry into the loop. */
    double
    itersPerEntry() const
    {
        return entries ? static_cast<double>(iterations) /
                         static_cast<double>(entries)
                       : 0.0;
    }

    /** Total cycles observed inside this loop. */
    double coverage() const { return threadSize.sum(); }

    /** The dominant critical-arc consumer site, if any. */
    bool dominantArcSite(ArcSite &site, double &fraction) const;
};

/** The TEST profiling hardware + readout software. */
class TestProfiler : public ProfileHook
{
  public:
    explicit TestProfiler(const TracerConfig &cfg = {});

    // ProfileHook interface --------------------------------------
    void onLoopEntry(std::int32_t loop_id, Cycle now) override;
    void onLoopIteration(std::int32_t loop_id, Cycle now) override;
    void onLoopExit(std::int32_t loop_id, Cycle now) override;
    void onHeapLoad(Addr addr, Cycle now, std::uint32_t site) override;
    void onHeapStore(Addr addr, Cycle now) override;
    void onLocalLoad(std::int32_t var, Cycle now) override;
    void onLocalStore(std::int32_t var, Cycle now) override;

    /** Accumulated per-loop profiles. */
    const std::map<std::int32_t, LoopProfile> &profiles() const
    {
        return results;
    }

    /**
     * The paper's "sufficient data" heuristic: at least 1000
     * iterations observed, or the loop consistently overflows.
     */
    bool enoughData(std::int32_t loop_id) const;

    /** True if every watched loop has enough data. */
    bool enoughData() const;

    /** Forget everything (reprofiling). */
    void reset();

    /** Register per-loop profile counters under "tracer.". */
    void publishMetrics(MetricsRegistry &reg) const;

  private:
    struct Bank
    {
        bool active = false;
        std::int32_t loopId = -1;
        Cycle entryTs = 0;
        std::uint64_t curIter = 0;
        Cycle threadStartTs = 0;
        /** ring of recent thread start timestamps, oldest first */
        std::vector<Cycle> startRing;

        // Current-thread analysis state.
        bool haveArc = false;
        std::uint64_t bestDist = 0;
        Cycle bestStoreTs = 0;
        Cycle bestLoadTs = 0;
        ArcSite bestSite;
        std::uint32_t loadLinesThis = 0;
        std::uint32_t storeLinesThis = 0;
        bool overflowThis = false;
        /** per-line last-touched iteration, for line dedup */
        std::unordered_map<Addr, std::uint64_t> loadLineIter;
        std::unordered_map<Addr, std::uint64_t> storeLineIter;

        LoopProfile acc;
    };

    TracerConfig config;
    std::vector<Bank> banks;
    std::unordered_map<std::int32_t, std::size_t> bankOf;
    std::map<std::int32_t, LoopProfile> results;

    /** Timestamp tables held in the repurposed store buffers. */
    std::unordered_map<Addr, Cycle> heapStoreTs;
    std::unordered_map<std::int32_t, Cycle> localStoreTs;

    void recordLoadEvent(Cycle store_ts, Cycle now, ArcSite site);
    void recordLineAccess(Addr addr, bool is_store);
    void finishThread(Bank &bank, Cycle now);
    void flushBank(Bank &bank, Cycle now);
    Bank *allocateBank(std::int32_t loop_id, Cycle now);
};

} // namespace jrpm

#endif // JRPM_TRACER_TEST_PROFILER_HH

/**
 * @file
 * Execution statistics: the Fig. 10 state breakdown plus the per-STL
 * runtime numbers reported in Table 3.
 */

#ifndef JRPM_CPU_STATS_HH
#define JRPM_CPU_STATS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/stats.hh"

namespace jrpm
{

/**
 * Why a speculative thread (attempt) was discarded.  One event is
 * counted per squash *event*, not per squashed core: a RAW violation
 * that kills three more-speculative threads counts once.
 */
enum class SquashCause : std::uint8_t
{
    RawViolation,  ///< true RAW dependence detected at a store
    SpuriousFault, ///< injected spurious violation (fault campaign)
    StlSwitch,     ///< STL switch discarded in-flight speculation
    Watchdog,      ///< forward-progress watchdog fired
    Governor,      ///< speedup governor degraded the loop to solo
};

inline constexpr std::size_t kNumSquashCauses = 5;

inline const char *
squashCauseName(std::size_t cause)
{
    static const char *const names[kNumSquashCauses] = {
        "raw_violation", "spurious_fault", "stl_switch", "watchdog",
        "governor",
    };
    return cause < kNumSquashCauses ? names[cause] : "?";
}

/**
 * Coarse variable-class bucket for a violated address, derived from
 * the VM memory layout.  Maps onto the analyzer's vocabulary: Stack
 * holds locals/privates/carried spills, Heap is the analyzer's Memory
 * class, Static covers invariants/static fields, Scratch is VM-internal
 * state (lock table, per-CPU scratch).
 */
enum class AddrClass : std::uint8_t
{
    Unknown,
    Stack,
    Heap,
    Static,
    Scratch,
};

inline constexpr std::size_t kNumAddrClasses = 5;

inline const char *
addrClassName(std::size_t cls)
{
    static const char *const names[kNumAddrClasses] = {
        "unknown", "stack", "heap", "static", "scratch",
    };
    return cls < kNumAddrClasses ? names[cls] : "?";
}

/**
 * Cheap always-on histogram for hot-path telemetry: count/sum/max plus
 * log2 buckets.  A sample is a handful of integer ops (no floating
 * point, no allocation), so it can run per speculative window without
 * perturbing simulation speed; SampleStat stays the tool for the
 * colder Table 3 statistics.
 */
struct SpanHist
{
    static constexpr std::size_t kBuckets = 32;

    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> log2Buckets{};

    void
    sample(std::uint64_t v)
    {
        ++count;
        sum += v;
        if (v > max)
            max = v;
        const unsigned b =
            v == 0 ? 0u
                   : static_cast<unsigned>(64 - __builtin_clzll(v));
        ++log2Buckets[b < kBuckets ? b : kBuckets - 1];
    }

    double
    mean() const
    {
        return count ? static_cast<double>(sum) / count : 0.0;
    }

    void
    merge(const SpanHist &o)
    {
        count += o.count;
        sum += o.sum;
        if (o.max > max)
            max = o.max;
        for (std::size_t i = 0; i < kBuckets; ++i)
            log2Buckets[i] += o.log2Buckets[i];
    }
};

/*
 * Stats field tables.  Each row names one field once; the struct
 * declarations below, Machine::publishMetrics, the report JSON,
 * outcomeDiff and the forge capsule are all generated from them.  A
 * table macro takes one handler per row kind:
 *
 *   BUCKET(member)                       double Fig. 10 bucket
 *   COUNTER(member, metric, key[, diff]) std::uint64_t event count
 *   VIEW(path, metric, key[, diff])      a count read through another
 *                                        field (not declared)
 *   SAMPLES(member, metric)              SampleStat
 *   HIST(member, key[, diff])            SpanHist
 *   CAUSES(member, n, name, metric, key[, diff])
 *                                        std::array<std::uint64_t, n>
 *                                        indexed by name(i)'s enum
 *
 * `metric` is the MetricsRegistry counter (histogram for SAMPLES)
 * under the run's "tls." or "tls.loop<id>." prefix, `key` the report
 * JSON member; "" for either means the field is not published there.
 * `diff` says whether outcomeDiff (core/jrpm.hh) compares the field:
 * dispatch-shape counters describe how the simulator stepped, not
 * what the simulated machine did, and differ between the fast and
 * the exact dispatch tier.  Rows are in report JSON order within each
 * kind.  Adding a counter is one row plus its increment.
 */

/**
 * ExecStats: the six Fig. 10 buckets are CPU-normalized wall-clock
 * cycles (a serial cycle adds 1 to `serial`; a cycle inside an STL
 * adds 1/numCpus to the bucket of each CPU's current activity, so the
 * buckets sum to total wall-clock cycles), then the dependence
 * telemetry of the run.
 */
#define JRPM_EXEC_STATS(BUCKET, COUNTER, VIEW, HIST, CAUSES)                 \
    BUCKET(serial)                                                           \
    BUCKET(runUsed)                                                          \
    BUCKET(waitUsed)                                                         \
    BUCKET(overhead)                                                         \
    BUCKET(runViolated)                                                      \
    BUCKET(waitViolated)                                                     \
    /* event-free burst lengths per speculative window (instructions) */    \
    HIST(burstSpans, "burstSpans", false)                                    \
    VIEW(burstSpans.count, "spec_windows", "specWindows", false)             \
    VIEW(burstSpans.sum, "spec_window_insts", "specWindowInsts", false)      \
    /* windows that fell back to the cycle-exact step() path */              \
    COUNTER(specSlowSteps, "spec_slow_steps", "specSlowSteps", false)        \
    /* speculative memory ops retired inside a burst window (the */         \
    /* signature fast path proved them core-local) */                        \
    COUNTER(specFastMem, "spec_fast_mem", "specFastMem", false)              \
    /* write/read-set signature probes that hit and ran the exact */        \
    /* forwarding or broadcast scan */                                       \
    COUNTER(sigHits, "sig_hits", "sigHits", false)                           \
    /* signature hits whose exact scan then found nothing (aliasing); */    \
    /* pure fallback cost, never a correctness event */                      \
    COUNTER(sigFalsePositives, "sig_false_positives", "sigFalsePositives",   \
            false)                                                           \
    /* speculative loads satisfied from a less-speculative buffer */        \
    COUNTER(forwardedLoads, "forwarded_loads", "forwardedLoads", true)       \
    /* committed speculative threads */                                      \
    COUNTER(commits, "commits", "commits", true)                             \
    COUNTER(stlEntries, "stl_entries", "stlEntries", true)                   \
    COUNTER(bufferOverflowStalls, "overflow_stalls", "overflowStalls", true) \
    /* RAW squash events */                                                  \
    COUNTER(violations, "violations", "", true)                              \
    /* new violating addresses past kMaxViolationAddrs */                    \
    COUNTER(violationAddrsDropped, "", "", true)                             \
    /* forward-progress timeouts */                                          \
    COUNTER(watchdogFires, "watchdog_fires", "", true)                       \
    /* STLs degraded to solo mode */                                         \
    COUNTER(governorAborts, "governor_aborts", "", true)                     \
    /* violations whose detection was suppressed (fault injection) */        \
    COUNTER(violationsSuppressed, "violations_suppressed", "", true)         \
    /* iteration distance the forwarded value travelled */                   \
    HIST(forwardDistance, "forwardDistance", true)                           \
    /* store-buffer line occupancy sampled at each speculative store */      \
    HIST(storeBufOccupancy, "storeBufOccupancy", true)                       \
    /* squash events by cause (one per event, not per squashed core) */     \
    CAUSES(squashCauses, kNumSquashCauses, squashCauseName, "squash.",       \
           "squashCauses", true)                                             \
    /* RAW-violated addresses by variable class */                           \
    CAUSES(violationsByClass, kNumAddrClasses, addrClassName,                \
           "violations_by_class.", "violationsByClass", true)

/** StlRuntimeStats: one executed STL (Table 3 columns g-k) plus its
 *  dependence telemetry. */
#define JRPM_STL_STATS(COUNTER, VIEW, SAMPLES, HIST, CAUSES)                 \
    COUNTER(entries, "entries", "entries")                                   \
    COUNTER(commits, "commits", "commits")                                   \
    COUNTER(violations, "violations", "violations")                          \
    /* wall cycles with this STL active */                                   \
    COUNTER(cyclesInside, "cycles_inside", "cyclesInside")                   \
    /* buffer-overflow stalls here */                                        \
    COUNTER(overflowStalls, "overflow_stalls", "overflowStalls")             \
    /* entries run head-only */                                              \
    COUNTER(soloEntries, "solo_entries", "soloEntries")                      \
    /* cycle-exact fallback windows */                                       \
    COUNTER(slowSteps, "slow_steps", "slowSteps")                            \
    /* memory ops retired in-window */                                       \
    COUNTER(specFastMem, "spec_fast_mem", "specFastMem")                     \
    /* signature probes that hit, and hits with empty scans */               \
    COUNTER(sigHits, "sig_hits", "sigHits")                                  \
    COUNTER(sigFalsePositives, "sig_false_positives", "sigFalsePositives")   \
    COUNTER(forwardedLoads, "forwarded_loads", "forwardedLoads")             \
    /* governor trips on this loop */                                        \
    COUNTER(governorAborts, "governor_aborts", "")                           \
    VIEW(burstSpans.count, "burst_windows", "")                              \
    VIEW(burstSpans.sum, "burst_insts", "")                                  \
    /* committed thread sizes */                                             \
    SAMPLES(threadCycles, "thread_cycles")                                   \
    /* speculatively-read lines and store-buffer lines per thread */        \
    SAMPLES(loadLines, "")                                                   \
    SAMPLES(storeLines, "")                                                  \
    HIST(burstSpans, "burstSpans")                                           \
    /* iteration distance of forwards */                                     \
    HIST(forwardDistance, "forwardDistance")                                 \
    /* lines buffered at each store */                                       \
    HIST(storeBufOccupancy, "storeBufOccupancy")                             \
    CAUSES(squashCauses, kNumSquashCauses, squashCauseName, "",              \
           "squashCauses")                                                   \
    CAUSES(violationsByClass, kNumAddrClasses, addrClassName, "",            \
           "violationsByClass")

/** Row handler that generates nothing. */
#define JRPM_STATS_SKIP(...)
#define JRPM_STATS_DECLARE_BUCKET(m) double m = 0;
#define JRPM_STATS_DECLARE_COUNTER(m, ...) std::uint64_t m = 0;
#define JRPM_STATS_DECLARE_SAMPLES(m, ...) SampleStat m;
#define JRPM_STATS_DECLARE_HIST(m, ...) SpanHist m;
#define JRPM_STATS_DECLARE_CAUSES(m, n, ...) std::array<std::uint64_t, n> m{};

/** Breakdown of execution into the six Fig. 10 states, plus the
 *  run's dependence telemetry (see JRPM_EXEC_STATS). */
struct ExecStats
{
    JRPM_EXEC_STATS(JRPM_STATS_DECLARE_BUCKET, JRPM_STATS_DECLARE_COUNTER,
                    JRPM_STATS_SKIP, JRPM_STATS_DECLARE_HIST,
                    JRPM_STATS_DECLARE_CAUSES)

    /** Addresses whose stores caused violations (diagnostics).
     *  Bounded: at most kMaxViolationAddrs distinct addresses are
     *  tracked; further new addresses bump violationAddrsDropped. */
    std::map<std::uint64_t, std::uint64_t> violationAddrs;

    static constexpr std::size_t kMaxViolationAddrs = 128;

    /** Count one violation against @p addr, respecting the cap. */
    void
    noteViolation(std::uint64_t addr)
    {
        ++violations;
        auto it = violationAddrs.find(addr);
        if (it != violationAddrs.end()) {
            ++it->second;
        } else if (violationAddrs.size() < kMaxViolationAddrs) {
            violationAddrs.emplace(addr, 1);
        } else {
            ++violationAddrsDropped;
        }
    }

    double
    total() const
    {
        return serial + runUsed + waitUsed + overhead + runViolated +
               waitViolated;
    }

    void
    reset()
    {
        *this = ExecStats();
    }
};

/** Runtime behaviour of one executed STL (see JRPM_STL_STATS). */
struct StlRuntimeStats
{
    JRPM_STL_STATS(JRPM_STATS_DECLARE_COUNTER, JRPM_STATS_SKIP,
                   JRPM_STATS_DECLARE_SAMPLES, JRPM_STATS_DECLARE_HIST,
                   JRPM_STATS_DECLARE_CAUSES)

    /** Total squash events on this loop, all causes. */
    std::uint64_t
    totalSquashes() const
    {
        std::uint64_t t = 0;
        for (std::uint64_t c : squashCauses)
            t += c;
        return t;
    }
};

/** Per-loop-id runtime stats for a whole program run. */
using StlStatsMap = std::map<std::int32_t, StlRuntimeStats>;

} // namespace jrpm

#endif // JRPM_CPU_STATS_HH

/**
 * @file
 * Hierarchical metrics registry for the Jrpm stack.
 *
 * Every component registers named counters, gauges and histograms
 * under dotted paths ("tls.commits", "cache.l1.cpu0.misses", ...)
 * instead of growing ad-hoc stat members.  Lookup happens once at
 * wiring time and hands back a reference whose address is stable for
 * the registry's lifetime, so hot paths pay a plain increment.  One
 * `dumpText()` / `dumpJson()` renders the whole tree; `JrpmSystem`
 * wires it into `JrpmReport` and `--metrics-out=`.
 */

#ifndef JRPM_COMMON_METRICS_HH
#define JRPM_COMMON_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/stats.hh"

namespace jrpm
{

/**
 * A monotonically increasing count of events.  Increments are atomic
 * (relaxed): the batch driver's concurrent pipelines publish into one
 * shared registry, so same-named counters aggregate across jobs
 * instead of corrupting each other.
 */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        v.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return v.load(std::memory_order_relaxed);
    }

    void reset() { v.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v{0};
};

/** A point-in-time value (last write wins, atomically). */
class Gauge
{
  public:
    void
    set(double value)
    {
        v.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return v.load(std::memory_order_relaxed);
    }

    void reset() { v.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> v{0.0};
};

/** A sample distribution: count/mean/stddev/min/max via SampleStat.
 *  Mutations and reads serialize on a per-metric mutex (Welford's
 *  update is read-modify-write and cannot be lock-free). */
class HistogramMetric
{
  public:
    void
    sample(double value)
    {
        std::lock_guard<std::mutex> lock(mu);
        s.sample(value);
    }

    /** Fold a pre-aggregated accumulator in (Chan's merge). */
    void
    merge(const SampleStat &other)
    {
        std::lock_guard<std::mutex> lock(mu);
        s.merge(other);
    }

    /** A consistent snapshot of the accumulator. */
    SampleStat
    summary() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return s;
    }

    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mu);
        s.reset();
    }

  private:
    mutable std::mutex mu;
    SampleStat s;
};

/**
 * The process-wide metrics registry.  Registering the same name twice
 * returns the same metric; registering a name as two different kinds
 * is a programming error and panics.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &
    global()
    {
        static MetricsRegistry r;
        return r;
    }

    /** Get-or-create; the returned reference stays valid forever. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    HistogramMetric &histogram(const std::string &name);

    /** Number of registered metrics. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return entries.size();
    }

    /** Zero every metric (registrations are kept). */
    void reset();

    /** Drop every metric (for test isolation). */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu);
        entries.clear();
    }

    /** One line per metric, sorted by name. */
    std::string dumpText() const;

    /** Flat JSON object keyed by metric name. */
    std::string dumpJson() const;

    /** Dump to a file: JSON if @p path ends in ".json", else text. */
    bool writeFile(const std::string &path) const;

  private:
    enum class Kind { Counter, Gauge, Histogram };

    /** Non-copyable (atomics + mutex); constructed in place. */
    struct Entry
    {
        Kind kind = Kind::Counter;
        Counter c;
        Gauge g;
        HistogramMetric h;
    };

    Entry &fetch(const std::string &name, Kind kind);

    /** Guards the map structure; metric values have their own
     *  synchronization so hot-path increments stay lock-free. */
    mutable std::mutex mu;

    /** node-based map: entry addresses survive later insertions. */
    std::map<std::string, Entry> entries;
};

} // namespace jrpm

#endif // JRPM_COMMON_METRICS_HH

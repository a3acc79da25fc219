/**
 * @file
 * Host-parallel batch driver: runs independent JrpmSystem pipelines
 * concurrently on the host.
 *
 * Each job owns its complete simulated world — one Machine, one VM,
 * one JIT — so jobs share no mutable state beyond the thread-safe
 * process-wide observability singletons (Trace, MetricsRegistry, the
 * log throttle) and, optionally, one crystal repository that
 * warm-starts repeat workloads.  Every job becomes one task of the
 * FIFO job pool (driver/pool.hh) and writes its own input-indexed
 * result slot, so a batch's reports are byte-identical whether it
 * ran with one worker or sixteen.
 *
 * runContained() is the one place a host job is contained: the batch
 * driver, the service's request run and both fleet-worker modes call
 * it, so a fatal() or an exception fails that job, not the process.
 *
 * Cancellation: a batch can carry a CancelToken; it is polled at
 * batch-case boundaries, so cancelling (or an expired deadline)
 * turns every not-yet-started case into a per-case error instead of
 * leaking running workers for the rest of the batch.
 */

#ifndef JRPM_DRIVER_DRIVER_HH
#define JRPM_DRIVER_DRIVER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hh"
#include "core/jrpm.hh"
#include "crystal/crystal.hh"

namespace jrpm
{

/** Pool geometry and crystal policy for a batch. */
struct DriverConfig
{
    /** Concurrent pipelines (0 or 1 = serial). */
    std::uint32_t jobs = 1;
    /** Crystal repository directory; empty = no repository (unless a
     *  job's config already carries one). */
    std::string repoDir;
    /** Warm-start policy applied to jobs without an explicit one. */
    WarmMode warm = WarmMode::Auto;
    /** Per-job progress lines via inform(). */
    bool progress = false;
    /** Optional batch-wide cancel/deadline token, polled at case
     *  boundaries; cancelled cases report error "cancelled" (or
     *  "deadline").  Empty = never cancelled. */
    CancelToken cancel;
};

/** One unit of work: a workload plus its full pipeline config. */
struct DriverJob
{
    Workload workload;
    JrpmConfig cfg;
    /**
     * Optional custom runner replacing the default
     * JrpmSystem(workload, cfg).run() pipeline — the forge campaign
     * uses this to add forced-speculation sweeps per scenario while
     * still riding the pool's scheduling, ordering and error
     * containment.  The workload field still labels the job for
     * progress output; crystal attachment is skipped (a custom
     * runner owns its own config).
     */
    std::function<JrpmReport()> custom;
};

/** What one job produced. */
struct DriverResult
{
    JrpmReport report;
    bool ok = false;          ///< pipeline ran to completion
    std::string error;        ///< exception text when !ok
    double wallMs = 0.0;      ///< host wall-clock for this job
};

/**
 * Order statistics over one batch metric, for campaign analytics and
 * batch summaries.  Percentiles use the nearest-rank method over the
 * sorted samples; an empty sample set yields all zeros.
 */
struct PercentileSummary
{
    std::uint64_t n = 0;
    double min = 0, p50 = 0, p90 = 0, p99 = 0, p999 = 0, max = 0,
           mean = 0;
};

/** Summarize @p samples (consumed: sorted in place). */
PercentileSummary summarizePercentiles(std::vector<double> samples);

/**
 * Run one host job contained: fatal() inside @p body throws instead
 * of exiting (ScopedFatalCapture), and any exception it throws
 * becomes the result's error text.  Always fills wallMs with the
 * host wall-clock time of the body.
 */
DriverResult runContained(const std::function<JrpmReport()> &body);

/** The batch driver (see file header). */
class BatchDriver
{
  public:
    explicit BatchDriver(DriverConfig cfg);
    ~BatchDriver();

    /**
     * Run every job, up to cfg.jobs at a time.  Results are in input
     * order regardless of completion order.  Jobs whose config lacks
     * a crystal repo get the driver's (when configured).
     */
    std::vector<DriverResult> run(std::vector<DriverJob> jobs);

    /** The driver-owned repository, or nullptr. */
    CrystalRepo *repo() { return repoOwned.get(); }

    const DriverConfig &config() const { return cfg; }

  private:
    DriverConfig cfg;
    std::unique_ptr<CrystalRepo> repoOwned;
};

} // namespace jrpm

#endif // JRPM_DRIVER_DRIVER_HH

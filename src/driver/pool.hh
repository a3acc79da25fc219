/**
 * @file
 * The host's job pool, shared by the batch driver and the Jrpm
 * service front-end.
 *
 * Host jobs are coarse and independent — one Fig. 1 pipeline or one
 * forge case each — and every one is submitted from outside the
 * pool; no task submits a task.  So the pool is one FIFO queue under
 * one lock: a free worker takes the oldest task, and idle workers
 * park on a condition variable until a submission wakes them.
 *
 * Determinism contract: the pool schedules, it never orders results.
 * Callers that need ordered output (the batch driver, the service's
 * per-request responses) index a result slot per task, so the output
 * bytes are independent of the worker count and of which worker ran
 * which task — test_driver.cc and test_service.cc pin this.
 *
 * Tasks should not throw: the pool runs them under a catch-all and
 * counts escaped exceptions (taskFaults) instead of dying, because
 * one poisoned request must never take down the multi-tenant server.
 */

#ifndef JRPM_DRIVER_POOL_HH
#define JRPM_DRIVER_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace jrpm
{

/** Point-in-time pool observability (for the stats frame). */
struct PoolStats
{
    std::uint32_t workers = 0;
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
    /** Always 0: the pool does not steal.  Kept because the
     *  end-to-end benchmark reads it (perfbench `service.steals`). */
    std::uint64_t steals = 0;
    std::uint64_t taskFaults = 0; ///< exceptions escaping tasks
    std::uint64_t queued = 0;     ///< waiting in the queue right now
    std::uint64_t inflight = 0;   ///< submitted, not yet finished
};

/** The FIFO job pool (see file header). */
class JobPool
{
  public:
    /** Spawns @p workers threads (clamped to >= 1). */
    explicit JobPool(std::uint32_t workers);

    /** Runs every queued task, then joins the workers. */
    ~JobPool();

    JobPool(const JobPool &) = delete;
    JobPool &operator=(const JobPool &) = delete;

    /** Enqueue @p task behind every task submitted before it. */
    void submit(std::function<void()> task);

    /** Block until every task submitted so far has finished.
     *  Reusable: the pool accepts more work afterwards. */
    void drain();

    std::uint32_t workers() const
    {
        return static_cast<std::uint32_t>(threads.size());
    }

    PoolStats stats() const;

  private:
    void workerLoop();

    /** Guards the queue, the counters and `stopping`. */
    mutable std::mutex mu;
    std::condition_variable workCv;  ///< work arrived / stopping
    std::condition_variable drainCv; ///< inflight reached zero
    std::deque<std::function<void()>> queue;
    bool stopping = false;
    std::uint64_t nSubmitted = 0;
    std::uint64_t nExecuted = 0;
    std::uint64_t nFaults = 0;
    std::uint64_t inflight = 0;

    /** Last: the workers are joined before the state they use dies. */
    std::vector<std::jthread> threads;
};

} // namespace jrpm

#endif // JRPM_DRIVER_POOL_HH

#include "pool.hh"

#include <exception>

#include "common/logging.hh"

namespace jrpm
{

JobPool::JobPool(std::uint32_t workers)
{
    const std::uint32_t n = workers < 1 ? 1 : workers;
    threads.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        threads.emplace_back([this] { workerLoop(); });
}

JobPool::~JobPool()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    workCv.notify_all();
    // The jthreads join on destruction; workers empty the queue
    // before exiting (see workerLoop).
}

void
JobPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(task));
        ++nSubmitted;
        ++inflight;
    }
    workCv.notify_one();
}

void
JobPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu);
            workCv.wait(lock,
                        [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping, and nothing left to run
            task = std::move(queue.front());
            queue.pop_front();
            // Counted at dequeue, not return: a task may publish its
            // own completion (the service replies from inside the
            // task), so counting afterwards would let an observer
            // see the result before the counter ticks.
            ++nExecuted;
        }
        bool faulted = true;
        try {
            task();
            faulted = false;
        } catch (const std::exception &e) {
            warn("pool: task threw: %s", e.what());
        } catch (...) {
            warn("pool: task threw a non-std exception");
        }
        // Release the task's captures before drain() can return.
        task = nullptr;
        std::lock_guard<std::mutex> lock(mu);
        nFaults += faulted;
        if (--inflight == 0)
            drainCv.notify_all();
    }
}

void
JobPool::drain()
{
    std::unique_lock<std::mutex> lock(mu);
    drainCv.wait(lock, [this] { return inflight == 0; });
}

PoolStats
JobPool::stats() const
{
    PoolStats s;
    s.workers = workers();
    std::lock_guard<std::mutex> lock(mu);
    s.submitted = nSubmitted;
    s.executed = nExecuted;
    s.taskFaults = nFaults;
    s.queued = queue.size();
    s.inflight = inflight;
    return s;
}

} // namespace jrpm

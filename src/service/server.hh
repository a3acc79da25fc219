/**
 * @file
 * Jrpm-as-a-service: a long-lived multi-tenant TCP server that
 * accepts programs over the wire protocol (protocol.hh) and runs
 * them through the existing Fig. 1 pipeline.
 *
 * Architecture: one poll(2)-driven event thread owns every socket —
 * it accepts connections, extracts frames, decodes requests, answers
 * the cheap kinds (status/cancel/stats/shutdown) inline and hands
 * submissions to the FIFO job pool (driver/pool.hh).  Pool workers
 * run the pipeline under runContained() (driver/driver.hh),
 * serialize the result frame and push it onto a completion queue; a
 * self-pipe wakes the event thread to flush completions onto their
 * connections.  No socket is ever
 * touched off the event thread, so there are no per-connection
 * locks.
 *
 * Warm cache: with a cache directory the server owns one crystal
 * repository, bounded to `capacity` entries (LRU by file mtime, a
 * lookup hit refreshes the mtime), and attaches it to every
 * submission with the request's warm mode (auto when it names none).
 * Repeat submissions of the same program and config skip profiling
 * and analysis.
 *
 * Backpressure: submissions are admitted only while
 * (queued + running) < admissionCap; beyond that the server answers
 * with a 503-style "busy" error frame immediately instead of
 * buffering unbounded work.
 *
 * Deadlines and cancellation: each submission carries a CancelToken;
 * `deadlineMs` arms it, a cancel frame fires it.  Workers poll the
 * token between pipeline stages (and the batch driver between
 * cases), and the PR 2 forward-progress watchdog plus maxCycles
 * bound each individual stage, so a deadline cannot leak a worker
 * forever.
 *
 * Graceful shutdown (shutdown frame or shutdown()): stop accepting
 * connections, answer every new submission with "shutdown", drain
 * the in-flight requests, flush their responses, then close.
 */

#ifndef JRPM_SERVICE_SERVER_HH
#define JRPM_SERVICE_SERVER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/jrpm.hh"
#include "crystal/crystal.hh"
#include "driver/pool.hh"
#include "service/protocol.hh"

namespace jrpm
{
namespace svc
{

/** The warm cache's repository (see file header). */
struct CacheConfig
{
    /** Repository directory; empty disables the cache. */
    std::string dir;
    /** Max entries on disk (0 = unbounded). */
    std::size_t capacity = 256;
};

/** Server geometry and policy. */
struct ServiceConfig
{
    /** TCP port on 127.0.0.1; 0 picks an ephemeral port (see
     *  JrpmService::port() after start()). */
    std::uint16_t port = 0;
    /** Job pool width. */
    std::uint32_t workers = 4;
    /** Max submissions queued + running before "busy" rejects. */
    std::uint32_t admissionCap = 64;
    /** Per-frame payload cap. */
    std::size_t maxFrame = kDefaultMaxFrame;
    /** Warm cache (crystal repository). */
    CacheConfig cache;
    /** Base pipeline config applied to every submission. */
    JrpmConfig base;
    /** Run named workloads on their (smaller) profiling inputs. */
    bool quick = true;
};

/** Point-in-time server counters (also in the stats frame). */
struct ServiceCounters
{
    std::uint64_t connectionsAccepted = 0;
    std::uint64_t connectionsOpen = 0;
    std::uint64_t requests = 0;       ///< decoded request frames
    std::uint64_t submits = 0;        ///< admitted submissions
    std::uint64_t results = 0;        ///< result frames sent
    std::uint64_t rejectedBusy = 0;   ///< admission backpressure
    std::uint64_t rejectedShutdown = 0;
    std::uint64_t protocolErrors = 0; ///< bad frames / requests
    std::uint64_t cancelled = 0;      ///< cancel/deadline outcomes
    std::uint64_t pipelineErrors = 0;
    std::uint64_t inflight = 0;       ///< admitted, not yet answered
};

/** The server (see file header). */
class JrpmService
{
  public:
    explicit JrpmService(ServiceConfig cfg);
    ~JrpmService();
    JrpmService(const JrpmService &) = delete;
    JrpmService &operator=(const JrpmService &) = delete;

    /** Bind, listen and spawn the event thread + worker pool.
     *  @return false (with @p err) when the port cannot be bound. */
    bool start(std::string *err = nullptr);

    /** The bound port (after start()). */
    std::uint16_t port() const;

    /** Begin a graceful shutdown from the host side. */
    void shutdown();

    /** Block until the event loop has exited (drain complete). */
    void join();

    /** True once start() succeeded and the loop has not exited. */
    bool running() const;

    ServiceCounters counters() const;
    PoolStats schedulerStats() const;
    /** The warm cache's repository, or nullptr. */
    CrystalRepo *repo();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace svc
} // namespace jrpm

#endif // JRPM_SERVICE_SERVER_HH

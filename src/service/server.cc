#include "server.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "core/report_json.hh"
#include "driver/driver.hh"
#include "forge/forge.hh"
#include "workloads/workloads.hh"

namespace jrpm
{
namespace svc
{

namespace
{

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

/** Lifecycle of one admitted submission. */
enum class ReqPhase : std::uint8_t
{
    Queued,
    Running,
    Done,
};

/** Registry entry for one admitted submission. */
struct RequestState
{
    std::uint64_t connId = 0;
    std::uint64_t reqId = 0;
    CancelToken token;
    std::atomic<ReqPhase> phase{ReqPhase::Queued};
};

struct Conn
{
    std::uint64_t id = 0;
    int fd = -1;
    FrameReader reader;
    std::string outbuf;
    std::size_t outOff = 0;
    /** A fatal protocol error was answered; close once flushed. */
    bool closing = false;
};

struct JrpmService::Impl
{
    ServiceConfig cfg;
    /** The warm cache, or nullptr without a cache directory. */
    std::unique_ptr<CrystalRepo> repo;

    int listenFd = -1;
    std::uint16_t boundPort = 0;
    int wakeRead = -1;  ///< self-pipe: workers poke the event loop
    int wakeWrite = -1;

    std::unique_ptr<JobPool> pool;
    std::thread eventThread;
    std::atomic<bool> started{false};
    std::atomic<bool> live{false};
    std::atomic<bool> draining{false};

    // Everything below `mu` is shared between the event thread and
    // the pool workers.
    mutable std::mutex mu;
    ServiceCounters ctr;
    /** (connId, reqId) -> state, while queued or running. */
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::shared_ptr<RequestState>>
        requests;
    /** Result frames workers have finished, keyed by connId. */
    std::deque<std::pair<std::uint64_t, std::string>> completions;

    /** Valid workload names, cached once (workloadByName panics on
     *  unknown names, so submissions are validated against this). */
    std::vector<std::string> knownWorkloads;

    std::chrono::steady_clock::time_point startedAt;

    explicit Impl(ServiceConfig config) : cfg(std::move(config))
    {
        if (!cfg.cache.dir.empty()) {
            repo = std::make_unique<CrystalRepo>(cfg.cache.dir);
            repo->setCapacity(cfg.cache.capacity);
        }
        for (const Workload &w : wl::allWorkloads())
            knownWorkloads.push_back(w.name);
    }

    ~Impl()
    {
        if (live.load())
            draining.store(true);
        wake();
        if (eventThread.joinable())
            eventThread.join();
        pool.reset();
        if (listenFd >= 0)
            ::close(listenFd);
        if (wakeRead >= 0)
            ::close(wakeRead);
        if (wakeWrite >= 0)
            ::close(wakeWrite);
    }

    void
    wake()
    {
        if (wakeWrite < 0)
            return;
        const char b = 'w';
        [[maybe_unused]] ssize_t n = ::write(wakeWrite, &b, 1);
    }

    bool
    start(std::string *err)
    {
        listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd < 0) {
            if (err)
                *err = strfmt("socket: %s", std::strerror(errno));
            return false;
        }
        const int one = 1;
        ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(cfg.port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0) {
            if (err)
                *err = strfmt("bind 127.0.0.1:%u: %s", cfg.port,
                              std::strerror(errno));
            ::close(listenFd);
            listenFd = -1;
            return false;
        }
        if (::listen(listenFd, 256) != 0) {
            if (err)
                *err = strfmt("listen: %s", std::strerror(errno));
            ::close(listenFd);
            listenFd = -1;
            return false;
        }
        socklen_t len = sizeof addr;
        ::getsockname(listenFd,
                      reinterpret_cast<sockaddr *>(&addr), &len);
        boundPort = ntohs(addr.sin_port);
        setNonBlocking(listenFd);

        int pipefd[2];
        if (::pipe(pipefd) != 0) {
            if (err)
                *err = strfmt("pipe: %s", std::strerror(errno));
            ::close(listenFd);
            listenFd = -1;
            return false;
        }
        wakeRead = pipefd[0];
        wakeWrite = pipefd[1];
        setNonBlocking(wakeRead);

        pool = std::make_unique<JobPool>(
            std::max<std::uint32_t>(1, cfg.workers));
        startedAt = std::chrono::steady_clock::now();
        started.store(true);
        live.store(true);
        eventThread = std::thread([this] { eventLoop(); });
        return true;
    }

    // ---- event loop ---------------------------------------------------

    void
    eventLoop()
    {
        std::unordered_map<int, Conn> conns;
        std::uint64_t nextConnId = 1;

        auto connByIdFd = [&](std::uint64_t id) -> Conn * {
            for (auto &kv : conns)
                if (kv.second.id == id)
                    return &kv.second;
            return nullptr;
        };

        auto closeConn = [&](int fd) {
            auto it = conns.find(fd);
            if (it == conns.end())
                return;
            // Outstanding submissions from a vanished client are
            // pointless work: cancel their tokens so workers bail at
            // the next stage boundary.
            const std::uint64_t id = it->second.id;
            {
                std::lock_guard<std::mutex> lk(mu);
                for (auto &kv : requests)
                    if (kv.first.first == id)
                        kv.second->token.cancel();
                ctr.connectionsOpen--;
            }
            ::close(fd);
            conns.erase(it);
        };

        std::vector<int> dead;
        for (;;) {
            // Drain worker completions onto their connections.
            std::deque<std::pair<std::uint64_t, std::string>> done;
            {
                std::lock_guard<std::mutex> lk(mu);
                done.swap(completions);
            }
            for (auto &c : done) {
                Conn *conn = connByIdFd(c.first);
                if (!conn)
                    continue; // client hung up; drop the frame
                conn->outbuf += frameEncode(c.second);
            }

            const bool drain = draining.load();
            if (drain) {
                bool inflightLeft;
                {
                    std::lock_guard<std::mutex> lk(mu);
                    inflightLeft = ctr.inflight > 0 ||
                                   !completions.empty();
                }
                bool outLeft = false;
                for (auto &kv : conns)
                    if (kv.second.outOff <
                        kv.second.outbuf.size())
                        outLeft = true;
                if (!inflightLeft && !outLeft)
                    break; // drained: every admitted request answered
            }

            std::vector<pollfd> pfds;
            pfds.push_back({wakeRead, POLLIN, 0});
            if (!drain)
                pfds.push_back({listenFd, POLLIN, 0});
            for (auto &kv : conns) {
                short ev = POLLIN;
                if (kv.second.outOff < kv.second.outbuf.size())
                    ev |= POLLOUT;
                pfds.push_back({kv.first, ev, 0});
            }

            const int rc =
                ::poll(pfds.data(),
                       static_cast<nfds_t>(pfds.size()), 250);
            if (rc < 0 && errno != EINTR)
                break;

            for (const pollfd &p : pfds) {
                if (p.revents == 0)
                    continue;
                if (p.fd == wakeRead) {
                    char buf[64];
                    while (::read(wakeRead, buf, sizeof buf) > 0) {
                    }
                    continue;
                }
                if (p.fd == listenFd) {
                    acceptAll(conns, nextConnId);
                    continue;
                }
                auto it = conns.find(p.fd);
                if (it == conns.end())
                    continue;
                Conn &conn = it->second;
                if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) {
                    dead.push_back(p.fd);
                    continue;
                }
                if (p.revents & POLLIN) {
                    if (!readConn(conn))
                        dead.push_back(p.fd);
                }
                if (p.revents & POLLOUT) {
                    if (!writeConn(conn))
                        dead.push_back(p.fd);
                }
            }
            // Opportunistic flush: completions drained at loop top
            // may have filled outbufs after this poll round armed.
            for (auto &kv : conns)
                if (kv.second.outOff < kv.second.outbuf.size())
                    if (!writeConn(kv.second))
                        dead.push_back(kv.first);
            for (auto &kv : conns)
                if (kv.second.closing &&
                    kv.second.outOff >= kv.second.outbuf.size())
                    dead.push_back(kv.first);
            for (int fd : dead)
                closeConn(fd);
            dead.clear();
        }

        // Shutdown: flush remaining bytes best-effort, then close.
        for (auto &kv : conns) {
            writeConn(kv.second);
            ::close(kv.first);
        }
        {
            std::lock_guard<std::mutex> lk(mu);
            ctr.connectionsOpen = 0;
        }
        live.store(false);
    }

    void
    acceptAll(std::unordered_map<int, Conn> &conns,
              std::uint64_t &nextConnId)
    {
        // Max concurrent connections; accepts beyond this are closed.
        constexpr std::size_t kMaxConns = 1024;
        for (;;) {
            const int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0)
                return; // EAGAIN / transient
            if (conns.size() >= kMaxConns) {
                ::close(fd);
                continue;
            }
            setNonBlocking(fd);
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof one);
            Conn conn;
            conn.id = nextConnId++;
            conn.fd = fd;
            conn.reader = FrameReader(cfg.maxFrame);
            conns.emplace(fd, std::move(conn));
            std::lock_guard<std::mutex> lk(mu);
            ctr.connectionsAccepted++;
            ctr.connectionsOpen++;
        }
    }

    /** @return false when the connection should be closed. */
    bool
    readConn(Conn &conn)
    {
        char buf[16384];
        for (;;) {
            const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
            if (n == 0)
                return false; // peer closed
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                if (errno == EINTR)
                    continue;
                return false;
            }
            conn.reader.feed(buf, static_cast<std::size_t>(n));
        }

        std::string payload;
        while (conn.reader.next(payload))
            handleFrame(conn, payload);
        if (conn.reader.broken()) {
            // Unrecoverable stream: answer once, flush, close.
            std::lock_guard<std::mutex> lk(mu);
            ctr.protocolErrors++;
            conn.outbuf += frameEncode(errorResponseJson(
                0, code::kBadFrame, conn.reader.error()));
            conn.closing = true;
        }
        return true;
    }

    /** @return false when the connection should be closed. */
    bool
    writeConn(Conn &conn)
    {
        while (conn.outOff < conn.outbuf.size()) {
            const ssize_t n = ::send(
                conn.fd, conn.outbuf.data() + conn.outOff,
                conn.outbuf.size() - conn.outOff, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    return true;
                if (errno == EINTR)
                    continue;
                return false;
            }
            conn.outOff += static_cast<std::size_t>(n);
        }
        if (conn.outOff == conn.outbuf.size()) {
            conn.outbuf.clear();
            conn.outOff = 0;
        }
        return true;
    }

    void
    reply(Conn &conn, const std::string &payload)
    {
        conn.outbuf += frameEncode(payload);
    }

    // ---- request dispatch ---------------------------------------------

    void
    handleFrame(Conn &conn, const std::string &payload)
    {
        Request req;
        std::string err;
        bool badVersion = false;
        if (!requestFromJson(payload, req, &err, &badVersion)) {
            std::lock_guard<std::mutex> lk(mu);
            ctr.protocolErrors++;
            reply(conn, errorResponseJson(
                            req.id,
                            badVersion ? code::kBadVersion
                                       : code::kBadRequest,
                            err));
            return;
        }
        {
            std::lock_guard<std::mutex> lk(mu);
            ctr.requests++;
        }
        switch (req.kind) {
          case ReqKind::Submit:
            handleSubmit(conn, req);
            break;
          case ReqKind::Status:
            handleStatus(conn, req);
            break;
          case ReqKind::Cancel:
            handleCancel(conn, req);
            break;
          case ReqKind::Stats:
            reply(conn, statsResponse(req.id));
            break;
          case ReqKind::Shutdown:
            reply(conn, okResponse(req.id)
                            .field("note", "draining")
                            .endObject()
                            .take());
            draining.store(true);
            break;
        }
    }

    void
    handleSubmit(Conn &conn, const Request &req)
    {
        if (draining.load()) {
            std::lock_guard<std::mutex> lk(mu);
            ctr.rejectedShutdown++;
            reply(conn, errorResponseJson(req.id, code::kShutdown,
                                          "server is draining"));
            return;
        }

        // Validate before admission: workloadByName() panics and
        // parseWarmMode() fatals on unknown input, so both are
        // checked here where a typed error frame is still possible.
        std::string bad;
        if (req.workload.empty() && !req.haveSeed &&
            req.debugSleepMs == 0) {
            bad = "submit needs a workload name or a seed";
        } else if (!req.workload.empty() && req.haveSeed) {
            bad = "submit takes workload or seed, not both";
        } else if (!req.workload.empty()) {
            bool known = false;
            for (const std::string &n : knownWorkloads)
                known = known || n == req.workload;
            if (!known)
                bad = "unknown workload '" + req.workload + "'";
        }
        if (bad.empty() && !req.warm.empty() &&
            req.warm != "cold" && req.warm != "warm" &&
            req.warm != "auto")
            bad = "warm must be cold|warm|auto, got '" + req.warm +
                  "'";
        if (!bad.empty()) {
            std::lock_guard<std::mutex> lk(mu);
            ctr.protocolErrors++;
            reply(conn,
                  errorResponseJson(req.id, code::kBadRequest, bad));
            return;
        }

        auto state = std::make_shared<RequestState>();
        state->connId = conn.id;
        state->reqId = req.id;
        state->token = CancelToken::make();
        if (req.deadlineMs)
            state->token.setDeadlineAfterMs(req.deadlineMs);

        {
            std::lock_guard<std::mutex> lk(mu);
            // Backpressure: a full server answers immediately (the
            // 503 of this protocol) instead of queueing unbounded.
            if (ctr.inflight >= cfg.admissionCap) {
                ctr.rejectedBusy++;
                reply(conn,
                      errorResponseJson(
                          req.id, code::kBusy,
                          strfmt("admission full: %" PRIu64
                                 " in flight (cap %u)",
                                 ctr.inflight, cfg.admissionCap)));
                return;
            }
            ctr.inflight++;
            ctr.submits++;
            requests[{conn.id, req.id}] = state;
        }

        const auto admitted = std::chrono::steady_clock::now();
        Request reqCopy = req;
        pool->submit([this, state, reqCopy, admitted] {
            runSubmission(*state, reqCopy, admitted);
        });
    }

    void
    handleStatus(Conn &conn, const Request &req)
    {
        const char *phase = "unknown";
        {
            std::lock_guard<std::mutex> lk(mu);
            auto it = requests.find({conn.id, req.target});
            if (it != requests.end()) {
                switch (it->second->phase.load()) {
                  case ReqPhase::Queued: phase = "queued"; break;
                  case ReqPhase::Running: phase = "running"; break;
                  case ReqPhase::Done: phase = "done"; break;
                }
            }
        }
        reply(conn, okResponse(req.id)
                        .field("target", req.target)
                        .field("state", phase)
                        .endObject()
                        .take());
    }

    void
    handleCancel(Conn &conn, const Request &req)
    {
        std::shared_ptr<RequestState> state;
        {
            std::lock_guard<std::mutex> lk(mu);
            auto it = requests.find({conn.id, req.target});
            if (it != requests.end())
                state = it->second;
        }
        if (!state) {
            reply(conn,
                  errorResponseJson(
                      req.id, code::kNotFound,
                      strfmt("no request %" PRIu64
                             " on this connection",
                             req.target)));
            return;
        }
        state->token.cancel();
        reply(conn, okResponse(req.id)
                        .field("target", req.target)
                        .endObject()
                        .take());
    }

    std::string
    statsResponse(std::uint64_t id)
    {
        const PoolStats ss = pool->stats();
        ServiceCounters c;
        {
            std::lock_guard<std::mutex> lk(mu);
            c = ctr;
        }
        JsonWriter w = okResponse(id);
        w.key("uptimeMs").fixed(msSince(startedAt), 0);
        w.field("workers", ss.workers).key("connections").beginObject();
        w.field("accepted", c.connectionsAccepted);
        w.field("open", c.connectionsOpen).endObject();
        w.key("requests").beginObject().field("decoded", c.requests);
        w.field("submitted", c.submits).field("results", c.results);
        w.field("inflight", c.inflight);
        w.field("rejectedBusy", c.rejectedBusy);
        w.field("rejectedShutdown", c.rejectedShutdown);
        w.field("protocolErrors", c.protocolErrors);
        w.field("cancelled", c.cancelled);
        w.field("pipelineErrors", c.pipelineErrors).endObject();
        w.key("scheduler").beginObject().field("submitted", ss.submitted);
        w.field("executed", ss.executed);
        w.field("taskFaults", ss.taskFaults).field("queued", ss.queued);
        w.field("inflight", ss.inflight).endObject();
        w.key("cache").beginObject().field("enabled", repo != nullptr);
        if (repo) {
            const CrystalStats s = repo->stats();
            const std::uint64_t lookups = s.hits + s.misses;
            w.field("capacity", cfg.cache.capacity);
            w.field("entries", repo->size());
            w.field("hits", s.hits).field("misses", s.misses);
            w.key("hitRate").fixed(
                lookups ? static_cast<double>(s.hits) /
                              static_cast<double>(lookups)
                        : 0.0,
                4);
            w.field("stores", s.stores);
            w.field("invalidations", s.invalidations);
            w.field("rejects", s.rejects).field("evictions", s.evictions);
        }
        return w.endObject().endObject().take();
    }

    // ---- worker side --------------------------------------------------

    void
    runSubmission(RequestState &state, const Request &req,
                  std::chrono::steady_clock::time_point admitted)
    {
        state.phase.store(ReqPhase::Running);
        const double queueMs = msSince(admitted);
        const auto runT0 = std::chrono::steady_clock::now();

        std::string frame;
        bool wasCancel = false, wasError = false;
        if (state.token.stopRequested()) {
            const bool dl = state.token.expired();
            wasCancel = true;
            frame = errorResponseJson(
                req.id, dl ? code::kDeadline : code::kCancelled,
                dl ? "deadline expired before start"
                   : "cancelled before start");
        } else if (req.debugSleepMs) {
            // Load-test stub: hold this worker without running a
            // pipeline (deterministic backpressure tests).
            std::this_thread::sleep_for(
                std::chrono::milliseconds(req.debugSleepMs));
            frame = okResponse(req.id)
                        .field("sleptMs", req.debugSleepMs)
                        .key("queueMs")
                        .fixed(queueMs, 3)
                        .endObject()
                        .take();
        } else {
            // Everything that can throw runs contained, so every
            // admitted request gets exactly one reply frame.
            const DriverResult res = runContained([&] {
                Workload w =
                    req.haveSeed
                        ? forge::scenarioWorkload(
                              forge::generate(req.seed, req.axes))
                        : wl::workloadByName(req.workload);
                if (cfg.quick && !w.profileArgs.empty()) {
                    w.mainArgs = w.profileArgs;
                    w.profileArgs.clear();
                }
                JrpmConfig jc = cfg.base;
                jc.cancel = state.token;
                if (repo) {
                    jc.crystal.repo = repo.get();
                    jc.crystal.warm = req.warm.empty()
                                          ? WarmMode::Auto
                                          : parseWarmMode(req.warm);
                }
                JrpmSystem sys(std::move(w), jc);
                const JrpmReport rep = sys.run();
                frame = resultResponseJson(req.id, reportJson(rep),
                                           queueMs, msSince(runT0));
                return JrpmReport{};
            });
            if (!res.ok && state.token.stopRequested()) {
                wasCancel = true;
                frame = errorResponseJson(req.id,
                                          state.token.expired()
                                              ? code::kDeadline
                                              : code::kCancelled,
                                          res.error);
            } else if (!res.ok) {
                wasError = true;
                frame = errorResponseJson(req.id, code::kError,
                                          res.error);
            }
        }

        {
            std::lock_guard<std::mutex> lk(mu);
            state.phase.store(ReqPhase::Done);
            requests.erase({state.connId, state.reqId});
            ctr.inflight--;
            if (wasCancel)
                ctr.cancelled++;
            else if (wasError)
                ctr.pipelineErrors++;
            else
                ctr.results++;
            completions.emplace_back(state.connId,
                                     std::move(frame));
        }
        wake();
    }
};

// ---- public facade ----------------------------------------------------

JrpmService::JrpmService(ServiceConfig cfg)
    : impl(std::make_unique<Impl>(std::move(cfg)))
{
}

JrpmService::~JrpmService() = default;

bool
JrpmService::start(std::string *err)
{
    return impl->start(err);
}

std::uint16_t
JrpmService::port() const
{
    return impl->boundPort;
}

void
JrpmService::shutdown()
{
    impl->draining.store(true);
    impl->wake();
}

void
JrpmService::join()
{
    if (impl->eventThread.joinable())
        impl->eventThread.join();
}

bool
JrpmService::running() const
{
    return impl->live.load();
}

ServiceCounters
JrpmService::counters() const
{
    std::lock_guard<std::mutex> lk(impl->mu);
    return impl->ctr;
}

PoolStats
JrpmService::schedulerStats() const
{
    return impl->pool ? impl->pool->stats() : PoolStats{};
}

CrystalRepo *
JrpmService::repo()
{
    return impl->repo.get();
}

} // namespace svc
} // namespace jrpm

#include "protocol.hh"

#include <cerrno>
#include <cinttypes>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"

namespace jrpm
{
namespace svc
{

// ---- framing ----------------------------------------------------------

std::string
frameEncode(const std::string &payload)
{
    const std::uint32_t n =
        static_cast<std::uint32_t>(payload.size());
    std::string out;
    out.reserve(4 + payload.size());
    out.push_back(static_cast<char>((n >> 24) & 0xff));
    out.push_back(static_cast<char>((n >> 16) & 0xff));
    out.push_back(static_cast<char>((n >> 8) & 0xff));
    out.push_back(static_cast<char>(n & 0xff));
    out += payload;
    return out;
}

void
FrameReader::feed(const char *data, std::size_t n)
{
    if (poisoned)
        return;
    // Drop the consumed prefix before growing; keeps the buffer at
    // O(one frame) instead of O(connection lifetime).
    if (off > 0 && off == buf.size()) {
        buf.clear();
        off = 0;
    } else if (off > (64u << 10) && off * 2 > buf.size()) {
        buf.erase(0, off);
        off = 0;
    }
    buf.append(data, n);
}

bool
FrameReader::next(std::string &payload)
{
    if (poisoned)
        return false;
    if (buf.size() - off < 4)
        return false;
    const auto *p =
        reinterpret_cast<const unsigned char *>(buf.data() + off);
    const std::uint32_t len =
        (static_cast<std::uint32_t>(p[0]) << 24) |
        (static_cast<std::uint32_t>(p[1]) << 16) |
        (static_cast<std::uint32_t>(p[2]) << 8) |
        static_cast<std::uint32_t>(p[3]);
    if (len > maxFrame) {
        poisoned = true;
        err = strfmt("frame length %u exceeds cap %zu", len,
                     maxFrame);
        return false;
    }
    if (buf.size() - off - 4 < len)
        return false; // torn frame: wait for more bytes
    payload.assign(buf, off + 4, len);
    off += 4 + len;
    return true;
}

// ---- requests ---------------------------------------------------------

const char *
reqKindName(ReqKind kind)
{
    switch (kind) {
      case ReqKind::Submit: return "submit";
      case ReqKind::Status: return "status";
      case ReqKind::Cancel: return "cancel";
      case ReqKind::Stats: return "stats";
      case ReqKind::Shutdown: return "shutdown";
    }
    return "?";
}

std::string
requestJson(const Request &r)
{
    JsonWriter w;
    w.beginObject().field("v", r.version).field("id", r.id);
    w.field("kind", reqKindName(r.kind));
    if (r.kind == ReqKind::Submit) {
        if (!r.workload.empty())
            w.field("workload", r.workload);
        if (r.haveSeed)
            w.field("seed", strfmt("%016" PRIx64, r.seed));
        if (r.axes != forge::kAllAxes)
            w.field("axes", r.axes);
        if (r.deadlineMs)
            w.field("deadlineMs", r.deadlineMs);
        if (!r.warm.empty())
            w.field("warm", r.warm);
        if (r.debugSleepMs)
            w.field("debugSleepMs", r.debugSleepMs);
    }
    if (r.kind == ReqKind::Status || r.kind == ReqKind::Cancel)
        w.field("target", r.target);
    return w.endObject().take();
}

bool
requestFromJson(const std::string &text, Request &out,
                std::string *err, bool *version_mismatch)
{
    if (version_mismatch)
        *version_mismatch = false;
    JsonValue v;
    std::string why;
    if (!jsonParse(text, v, &why)) {
        if (err)
            *err = "malformed request: " + why;
        return false;
    }
    // Every member is read strictly: a missing required member, or
    // one of the wrong kind or out of its field's range, fails the
    // request with a diagnostic that names it.
    JsonMembers m(v, why);
    Request r;
    auto fail = [&] {
        out = r; // id/version available for the error response
        if (err)
            *err = why;
        return false;
    };
    r.id = static_cast<std::uint64_t>(m.integer("id", 0, kJsonMaxExactInt));
    r.version = static_cast<std::uint32_t>(m.integer("v", 0, UINT32_MAX));
    if (!m.ok())
        return fail();
    if (r.version != kProtocolVersion) {
        if (version_mismatch)
            *version_mismatch = true;
        why = strfmt("protocol version %u, server speaks %u", r.version,
                     kProtocolVersion);
        return fail();
    }
    const std::string kind = m.string("kind");
    bool known = false;
    for (ReqKind c : {ReqKind::Submit, ReqKind::Status, ReqKind::Cancel,
                      ReqKind::Stats, ReqKind::Shutdown})
        if (kind == reqKindName(c)) {
            r.kind = c;
            known = true;
        }
    if (m.ok() && !known)
        why = "unknown request kind '" + kind + "'";
    if (!m.ok())
        return fail();

    if (r.kind == ReqKind::Submit) {
        if (m.has("workload"))
            r.workload = m.string("workload");
        r.haveSeed = m.has("seed");
        if (r.haveSeed)
            r.seed = m.hex64("seed");
        if (m.has("axes"))
            r.axes = static_cast<std::uint32_t>(
                m.integer("axes", 0, forge::kAllAxes));
        if (m.has("deadlineMs"))
            r.deadlineMs = static_cast<std::uint32_t>(
                m.integer("deadlineMs", 0, UINT32_MAX));
        if (m.has("warm"))
            r.warm = m.string("warm");
        if (m.has("debugSleepMs"))
            r.debugSleepMs = static_cast<std::uint32_t>(
                m.integer("debugSleepMs", 0, kMaxDebugSleepMs));
    }
    if (r.kind == ReqKind::Status || r.kind == ReqKind::Cancel)
        r.target = static_cast<std::uint64_t>(
            m.integer("target", 0, kJsonMaxExactInt));
    if (!m.ok())
        return fail();
    out = r;
    return true;
}

// ---- responses --------------------------------------------------------

namespace
{

JsonWriter
response(std::uint64_t id, const char *kind, const char *status)
{
    JsonWriter w;
    w.beginObject().field("v", kProtocolVersion).field("id", id);
    w.field("kind", kind).field("status", status);
    return w;
}

} // namespace

std::string
errorResponseJson(std::uint64_t id, const char *status,
                  const std::string &detail)
{
    JsonWriter w = response(id, "error", status);
    return w.field("detail", detail).endObject().take();
}

JsonWriter
okResponse(std::uint64_t id)
{
    return response(id, "ok", code::kOk);
}

std::string
resultResponseJson(std::uint64_t id, const std::string &report_json,
                   double queue_ms, double run_ms)
{
    JsonWriter w = response(id, "result", code::kOk);
    w.key("queueMs").fixed(queue_ms, 3).key("runMs").fixed(run_ms, 3);
    return w.key("report").raw(report_json).endObject().take();
}

// ---- blocking client --------------------------------------------------

ServiceClient::~ServiceClient()
{
    close();
}

ServiceClient::ServiceClient(ServiceClient &&other) noexcept
    : fd(other.fd), reader(std::move(other.reader))
{
    other.fd = -1;
}

ServiceClient &
ServiceClient::operator=(ServiceClient &&other) noexcept
{
    if (this != &other) {
        close();
        fd = other.fd;
        reader = std::move(other.reader);
        other.fd = -1;
    }
    return *this;
}

void
ServiceClient::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

bool
ServiceClient::connect(std::uint16_t port, std::string *err)
{
    close();
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err)
            *err = strfmt("socket: %s", std::strerror(errno));
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        if (err)
            *err = strfmt("connect 127.0.0.1:%u: %s", port,
                          std::strerror(errno));
        close();
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    reader = FrameReader();
    return true;
}

bool
ServiceClient::sendBytes(const std::string &bytes, std::string *err)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + sent, bytes.size() - sent,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = strfmt("send: %s", std::strerror(errno));
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
ServiceClient::sendRaw(const std::string &payload, std::string *err)
{
    return sendBytes(frameEncode(payload), err);
}

bool
ServiceClient::send(const Request &r, std::string *err)
{
    return sendRaw(requestJson(r), err);
}

bool
ServiceClient::pump(std::string *err)
{
    for (;;) {
        char buf[16384];
        const ssize_t n =
            ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n == 0) {
            if (err)
                *err = "connection closed by server";
            return false;
        }
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            if (errno == EINTR)
                continue;
            if (err)
                *err = strfmt("recv: %s", std::strerror(errno));
            return false;
        }
        reader.feed(buf, static_cast<std::size_t>(n));
    }
}

bool
ServiceClient::recv(std::string &payload, std::string *err)
{
    for (;;) {
        if (reader.next(payload))
            return true;
        if (reader.broken()) {
            if (err)
                *err = reader.error();
            return false;
        }
        char buf[4096];
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n == 0) {
            if (err)
                *err = "connection closed by server";
            return false;
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = strfmt("recv: %s", std::strerror(errno));
            return false;
        }
        reader.feed(buf, static_cast<std::size_t>(n));
    }
}

bool
ServiceClient::recvJson(JsonValue &out, std::string *raw,
                        std::string *err)
{
    std::string payload;
    if (!recv(payload, err))
        return false;
    if (raw)
        *raw = payload;
    std::string perr;
    if (!jsonParse(payload, out, &perr)) {
        if (err)
            *err = "malformed response: " + perr;
        return false;
    }
    return true;
}

bool
ServiceClient::call(const Request &r, JsonValue &out,
                    std::string *raw, std::string *err)
{
    if (!send(r, err))
        return false;
    // Responses to pipelined requests can interleave; skip frames
    // for other ids (callers that need every frame use recv()).
    for (;;) {
        if (!recvJson(out, raw, err))
            return false;
        if (out["id"].kind == JsonValue::Kind::Number &&
            static_cast<std::uint64_t>(out["id"].num) == r.id)
            return true;
    }
}

} // namespace svc
} // namespace jrpm

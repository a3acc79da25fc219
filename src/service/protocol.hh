/**
 * @file
 * Jrpm-as-a-service wire protocol: length-prefixed JSON frames.
 *
 * One frame is a 4-byte big-endian payload length followed by
 * exactly that many bytes of UTF-8 JSON — one object per frame, both
 * directions.  The length prefix gives exact-consumption semantics:
 * a reader never guesses where a document ends, jsonParse() rejects
 * any trailing garbage inside the payload, and a torn frame (short
 * read) simply waits for more bytes.  A length above the reader's
 * cap is unrecoverable (the stream cannot be resynchronized) and
 * poisons the connection.
 *
 * Every request carries the protocol version, a client-chosen
 * request id (echoed in the response so clients may pipeline), and a
 * typed kind:
 *
 *   kind      | payload
 *   ----------|-----------------------------------------------------
 *   submit    | workload=<name> or seed=<forge seed, 16 hex digits
 *             | in a string> [+axes], plus optional deadlineMs /
 *             | warm / debugSleepMs (at most kMaxDebugSleepMs)
 *   status    | target=<request id> -> queued|running|done|unknown
 *   cancel    | target=<request id> -> cancels its token
 *   stats     | (none) -> scheduler/cache/server counters
 *   shutdown  | (none) -> graceful drain, then close
 *
 * `v`, `id`, `kind` and a status/cancel `target` are required.  Every
 * member is read strictly: numbers are integers in their field's range
 * (`axes` within forge::kAllAxes), strings are strings, and a missing,
 * mistyped or out-of-range member answers a typed `bad-request` that
 * names it, on a connection that stays open.
 *
 * Responses carry kind ("result", "ok", "stats", "error") and a
 * status code; "busy" is the 503-style admission reject.  A submit
 * result embeds the verbatim reportJson() of the run, so a service
 * result is byte-comparable with the batch driver's output.
 */

#ifndef JRPM_SERVICE_PROTOCOL_HH
#define JRPM_SERVICE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/report_json.hh"
#include "forge/forge.hh"

namespace jrpm
{
namespace svc
{

/** Bump on any incompatible change to frames or payload fields. */
constexpr std::uint32_t kProtocolVersion = 1;

/** Default cap on one frame's payload bytes. */
constexpr std::size_t kDefaultMaxFrame = 16u << 20;

/** Cap on a submit's debugSleepMs: a load test holds a worker for
 *  seconds, never for days. */
constexpr std::uint32_t kMaxDebugSleepMs = 60'000;

// ---- framing ----------------------------------------------------------

/** Wrap @p payload in a length-prefixed frame. */
std::string frameEncode(const std::string &payload);

/**
 * Incremental frame extractor over a byte stream.  feed() appends
 * raw bytes; next() yields complete payloads in order.  Oversized
 * frames poison the reader permanently (broken() becomes true): with
 * the length prefix unreadable there is no resynchronization point.
 */
class FrameReader
{
  public:
    explicit FrameReader(std::size_t max_frame = kDefaultMaxFrame)
        : maxFrame(max_frame)
    {
    }

    void feed(const char *data, std::size_t n);

    /** Extract the next complete payload.
     *  @return true and fills @p payload when one is available. */
    bool next(std::string &payload);

    /** The stream is unrecoverable (oversized frame). */
    bool broken() const { return poisoned; }

    /** Diagnostic for the error frame sent before closing. */
    const std::string &error() const { return err; }

    /** Bytes buffered but not yet consumed. */
    std::size_t buffered() const { return buf.size() - off; }

  private:
    std::size_t maxFrame;
    std::string buf;
    std::size_t off = 0; ///< consumed prefix of buf
    bool poisoned = false;
    std::string err;
};

// ---- requests ---------------------------------------------------------

enum class ReqKind : std::uint8_t
{
    Submit,
    Status,
    Cancel,
    Stats,
    Shutdown,
};

const char *reqKindName(ReqKind kind);

/** One decoded request frame. */
struct Request
{
    std::uint32_t version = kProtocolVersion;
    std::uint64_t id = 0;
    ReqKind kind = ReqKind::Submit;

    // Submit payload: exactly one of workload / seed.
    std::string workload;      ///< named Table 3 workload
    bool haveSeed = false;
    std::uint64_t seed = 0;    ///< forge scenario seed
    std::uint32_t axes = forge::kAllAxes;
    std::uint32_t deadlineMs = 0;   ///< 0 = no deadline
    std::string warm;               ///< "" = server default
    /** Load-test knob: hold a worker for this long instead of
     *  running a pipeline (deterministic backpressure tests). */
    std::uint32_t debugSleepMs = 0;

    // Status / cancel payload.
    std::uint64_t target = 0;
};

/** Serialize a request payload (no frame prefix). */
std::string requestJson(const Request &r);

/**
 * Decode one request payload.  Fails (with a diagnostic carrying
 * the byte offset for parse errors, or naming the member) on
 * malformed JSON, an unknown kind, or a member that is missing,
 * mistyped or out of range (see the table above); a *version
 * mismatch* is reported separately so the server can answer with a
 * typed "bad-version" error instead of a parse failure.
 * @param out valid only on success
 * @param version_mismatch set when the frame decoded cleanly but
 *        carries a different protocol version
 */
bool requestFromJson(const std::string &text, Request &out,
                     std::string *err = nullptr,
                     bool *version_mismatch = nullptr);

// ---- responses --------------------------------------------------------

/** Response status codes (the string values on the wire). */
namespace code
{
constexpr const char *kOk = "ok";
constexpr const char *kBusy = "busy";          ///< admission full
constexpr const char *kShutdown = "shutdown";  ///< draining
constexpr const char *kBadFrame = "bad-frame";
constexpr const char *kBadVersion = "bad-version";
constexpr const char *kBadRequest = "bad-request";
constexpr const char *kDeadline = "deadline";
constexpr const char *kCancelled = "cancelled";
constexpr const char *kNotFound = "not-found";
constexpr const char *kError = "error";        ///< pipeline failed
} // namespace code

/** Build the standard response payloads (no frame prefix). */
std::string errorResponseJson(std::uint64_t id, const char *status,
                              const std::string &detail);
/** An ok response with its object still open: add any extra
 *  members, then endObject().take(). */
JsonWriter okResponse(std::uint64_t id);
/** A submit result: @p report_json is embedded verbatim. */
std::string resultResponseJson(std::uint64_t id,
                               const std::string &report_json,
                               double queue_ms, double run_ms);

// ---- blocking client --------------------------------------------------

/**
 * A minimal blocking loopback client over one TCP connection, used
 * by the tests and the load-generator bench.  Not thread-safe; one
 * client per thread.
 */
class ServiceClient
{
  public:
    ServiceClient() = default;
    ~ServiceClient();
    ServiceClient(ServiceClient &&other) noexcept;
    ServiceClient &operator=(ServiceClient &&other) noexcept;
    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /** Connect to 127.0.0.1:@p port. */
    bool connect(std::uint16_t port, std::string *err = nullptr);
    void close();

    /** The raw socket, for callers multiplexing with poll(2). */
    int nativeHandle() const { return fd; }

    /** Drain whatever is readable without blocking; then yield
     *  buffered frames via next().  @return false on EOF/error. */
    bool pump(std::string *err = nullptr);

    /** Non-blocking: extract one buffered frame if complete. */
    bool next(std::string &payload) { return reader.next(payload); }

    /** Send one request frame. */
    bool send(const Request &r, std::string *err = nullptr);
    /** Send raw payload bytes as one frame (malformed-input tests). */
    bool sendRaw(const std::string &payload,
                 std::string *err = nullptr);
    /** Write arbitrary bytes unframed (torn-frame tests). */
    bool sendBytes(const std::string &bytes,
                   std::string *err = nullptr);

    /** Block until one complete response frame arrives. */
    bool recv(std::string &payload, std::string *err = nullptr);
    /** recv() + jsonParse. */
    bool recvJson(JsonValue &out, std::string *raw = nullptr,
                  std::string *err = nullptr);

    /** send() + wait for the response whose id matches @p r.id
     *  (responses for pipelined requests arrive out of order). */
    bool call(const Request &r, JsonValue &out,
              std::string *raw = nullptr, std::string *err = nullptr);

  private:
    int fd = -1;
    FrameReader reader;
};

} // namespace svc
} // namespace jrpm

#endif // JRPM_SERVICE_PROTOCOL_HH

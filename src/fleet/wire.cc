#include "wire.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/logging.hh"
#include "core/report_json.hh"

namespace jrpm
{
namespace fleet
{

std::string
caseResultJson(const forge::CaseResult &cr)
{
    JsonWriter w;
    w.beginObject().field("seed", strfmt("%016" PRIx64, cr.seed));
#define JRPM_OUTCOME_OUT(type, member) w.field(#member, cr.member);
    JRPM_CASE_OUTCOME(JRPM_OUTCOME_OUT)
#undef JRPM_OUTCOME_OUT
    // The telemetry capsule: the percentile rows, the per-cause
    // arrays, then the rest.
    bool pctRows = true;
#define JRPM_WIRE_OUT(type, member, from, pct)                               \
    if (pct == pctRows)                                                      \
        w.field(#member, cr.member);
    JRPM_CASE_TELEMETRY(JRPM_WIRE_OUT)
    w.key("squashCauses").beginArray();
    for (std::uint64_t n : cr.squashCauses)
        w.value(n);
    w.endArray().key("violationsByClass").beginArray();
    for (std::uint64_t n : cr.violationsByClass)
        w.value(n);
    w.endArray().key("loopSquashes").beginArray();
    for (const auto &[loop_id, sq] : cr.loopSquashes)
        w.beginArray().value(loop_id).value(sq).endArray();
    w.endArray();
    pctRows = false;
    JRPM_CASE_TELEMETRY(JRPM_WIRE_OUT)
#undef JRPM_WIRE_OUT
    w.field("sigHash", strfmt("%016" PRIx64, cr.sigHash));
    return w.endObject().take();
}

namespace
{

/** Bound on the (loop, squashes) rows one case record may carry. */
constexpr std::size_t kMaxLoopSquashes = 1u << 16;

/** The largest value of unsigned @p T a record carries exactly. */
template <class T>
constexpr std::int64_t
maxOf()
{
    static_assert(std::is_unsigned_v<T>);
    return static_cast<std::int64_t>(std::min<std::uint64_t>(
        std::numeric_limits<T>::max(), kJsonMaxExactInt));
}

/** Read member @p key of @p m into @p out by the member's type. */
template <class T>
void
readMember(JsonMembers &m, const char *key, T &out)
{
    if constexpr (std::is_same_v<T, bool>)
        out = m.boolean(key);
    else if constexpr (std::is_same_v<T, std::string>)
        out = m.string(key);
    else if constexpr (std::is_floating_point_v<T>)
        out = m.number(key);
    else
        out = static_cast<T>(m.integer(key, 0, maxOf<T>()));
}

/** An array member of counters into @p out, one per element. */
template <std::size_t N>
void
readCounters(JsonMembers &m, const char *key,
             std::array<std::uint64_t, N> &out)
{
    const std::vector<std::int64_t> v =
        m.integers(key, N, 0, maxOf<std::uint64_t>());
    for (std::size_t i = 0; i < N; ++i)
        out[i] = static_cast<std::uint64_t>(v[i]);
}

} // namespace

bool
caseResultFromJson(const JsonValue &record, forge::CaseResult &out,
                   std::string *err)
{
    std::string why;
    JsonMembers m(record, why);
    forge::CaseResult cr;
    cr.seed = m.hex64("seed");
#define JRPM_WIRE_IN(type, member, ...) readMember(m, #member, cr.member);
    JRPM_CASE_OUTCOME(JRPM_WIRE_IN)
    JRPM_CASE_TELEMETRY(JRPM_WIRE_IN)
#undef JRPM_WIRE_IN
    readCounters(m, "squashCauses", cr.squashCauses);
    readCounters(m, "violationsByClass", cr.violationsByClass);
    for (const JsonValue &row : m.array("loopSquashes", kMaxLoopSquashes)) {
        if (row.kind != JsonValue::Kind::Array || row.items.size() != 2 ||
            !jsonIsInteger(row.items[0], INT32_MIN, INT32_MAX) ||
            !jsonIsInteger(row.items[1], 0, maxOf<std::uint64_t>())) {
            why = "member 'loopSquashes' holds a row that is not "
                  "[loopId, squashes]";
            break;
        }
        cr.loopSquashes.emplace_back(
            static_cast<std::int32_t>(row.items[0].num),
            static_cast<std::uint64_t>(row.items[1].num));
    }
    cr.sigHash = m.hex64("sigHash");
    if (!m.ok()) {
        if (err)
            *err = why;
        return false;
    }
    out = std::move(cr);
    return true;
}

bool
caseResultFromJson(const std::string &text, forge::CaseResult &out,
                   std::string *err)
{
    JsonValue v;
    return jsonParse(text, v, err) && caseResultFromJson(v, out, err);
}

} // namespace fleet
} // namespace jrpm

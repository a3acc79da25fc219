#include "wire.hh"

#include <cinttypes>
#include <cstdlib>
#include <type_traits>

#include "common/logging.hh"
#include "core/report_json.hh"
#include "forge/signature.hh"

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

template <class T>
T
fieldOf(const JsonValue &v)
{
    if constexpr (std::is_same_v<T, bool>)
        return v.boolean();
    else if constexpr (std::is_same_v<T, std::string>)
        return v.str;
    else
        return static_cast<T>(v.number());
}

} // namespace

bool
caseResultFromJson(const std::string &text, forge::CaseResult &out,
                   std::string *err)
{
    JsonValue v;
    if (!jsonParse(text, v, err))
        return false;
    auto fail = [&](const char *why) {
        if (err)
            *err = why;
        return false;
    };
    if (v.kind != JsonValue::Kind::Object)
        return fail("case record is not an object");
    if (v["seed"].kind != JsonValue::Kind::String)
        return fail("case record has no seed");

    forge::CaseResult cr;
    char *end = nullptr;
    cr.seed = std::strtoull(v["seed"].str.c_str(), &end, 16);
    if (end == v["seed"].str.c_str() || *end)
        return fail("unparseable seed");
#define JRPM_WIRE_IN(type, member, ...) cr.member = fieldOf<type>(v[#member]);
    JRPM_CASE_OUTCOME(JRPM_WIRE_IN)
    JRPM_CASE_TELEMETRY(JRPM_WIRE_IN)
#undef JRPM_WIRE_IN

    const JsonValue &sc = v["squashCauses"];
    if (sc.kind != JsonValue::Kind::Array ||
        sc.items.size() != kNumSquashCauses)
        return fail("bad squashCauses array");
    for (std::size_t c = 0; c < kNumSquashCauses; ++c)
        cr.squashCauses[c] = fieldOf<std::uint64_t>(sc.at(c));
    const JsonValue &vc = v["violationsByClass"];
    if (vc.kind != JsonValue::Kind::Array ||
        vc.items.size() != kNumAddrClasses)
        return fail("bad violationsByClass array");
    for (std::size_t c = 0; c < kNumAddrClasses; ++c)
        cr.violationsByClass[c] = fieldOf<std::uint64_t>(vc.at(c));
    const JsonValue &ls = v["loopSquashes"];
    if (ls.kind != JsonValue::Kind::Array)
        return fail("bad loopSquashes array");
    for (const JsonValue &pair : ls.items) {
        if (pair.kind != JsonValue::Kind::Array ||
            pair.items.size() != 2)
            return fail("bad loopSquashes pair");
        cr.loopSquashes.emplace_back(fieldOf<std::int32_t>(pair.at(0)),
                                     fieldOf<std::uint64_t>(pair.at(1)));
    }

    if (v["sigHash"].kind == JsonValue::Kind::String) {
        end = nullptr;
        cr.sigHash =
            std::strtoull(v["sigHash"].str.c_str(), &end, 16);
        if (end == v["sigHash"].str.c_str() || *end)
            return fail("unparseable sigHash");
    } else {
        // Record from a pre-signature worker: the signature is a
        // pure function of the wire fields, so recompute it.
        cr.sigHash = forge::signatureOf(cr).hash();
    }

    out = std::move(cr);
    return true;
}

} // namespace fleet
} // namespace jrpm

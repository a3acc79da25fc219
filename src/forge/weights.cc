#include "weights.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/json.hh"

namespace jrpm
{
namespace forge
{

void
WeightBank::update(std::uint32_t novel_kinds,
                   std::uint32_t seen_kinds)
{
    for (std::uint32_t k = 0; k < kNumStmtKinds; ++k) {
        const std::uint32_t bit = 1u << k;
        if (novel_kinds & bit)
            weights[k] = std::min(kMax, weights[k] + kBoost);
        else if (seen_kinds & bit)
            weights[k] = std::max(kMin, weights[k] - weights[k] / 8);
    }
}

std::string
WeightBank::json() const
{
    JsonWriter w;
    w.beginArray();
    for (std::uint32_t v : weights)
        w.value(v);
    return w.endArray().take();
}

WeightBank
WeightBank::read(JsonMembers &m, const char *key)
{
    const std::vector<std::int64_t> v =
        m.integers(key, kNumStmtKinds, 1, kMax);
    WeightBank b;
    for (std::uint32_t k = 0; k < kNumStmtKinds; ++k)
        b.weights[k] = static_cast<std::uint32_t>(v[k]);
    return b;
}

bool
WeightBank::fromJson(const std::string &text, WeightBank &out,
                     std::string *err)
{
    // The bare array, read as the one member of an object so that
    // read() checks it.
    JsonValue doc;
    doc.kind = JsonValue::Kind::Object;
    std::string why;
    WeightBank b;
    if (jsonParse(text, doc.fields["bank"], &why)) {
        JsonMembers m(doc, why);
        b = read(m, "bank");
    }
    if (!why.empty()) {
        if (err)
            *err = why;
        return false;
    }
    out = b;
    return true;
}

std::uint32_t
kindsOf(const ScenarioSpec &spec)
{
    std::uint32_t mask = 0;
    for (const ForgeStmt &s : spec.body)
        mask |= 1u << static_cast<std::uint32_t>(s.kind);
    return mask;
}

void
applyBatch(WeightBank &bank, std::unordered_set<std::uint64_t> &seen,
           const BatchObservations &obs)
{
    std::uint32_t novel = 0, appeared = 0;
    for (const auto &[kinds, sig] : obs) {
        appeared |= kinds;
        if (seen.insert(sig).second)
            novel |= kinds;
    }
    bank.update(novel, appeared);
}

std::uint64_t
WeightBank::hash() const
{
    Fnv1a h;
    for (std::uint32_t w : weights)
        h.u32(w);
    return h.value();
}

} // namespace forge
} // namespace jrpm

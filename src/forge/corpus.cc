#include "corpus.hh"

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/seal.hh"
#include "crystal/crystal.hh"
#include "forge/campaign.hh"

namespace jrpm
{
namespace forge
{

namespace
{

constexpr const char *kMagic = "jrpm-forge";
/** Bound on the statements one entry may carry. */
constexpr std::size_t kMaxStmts = 4096;
constexpr std::int64_t kI32Min = INT32_MIN, kI32Max = INT32_MAX;

} // namespace

std::string
CorpusEntry::fileName() const
{
    return strfmt("forge-%016llx.scenario",
                  static_cast<unsigned long long>(
                      spec.fingerprint()));
}

std::string
serializeCorpusEntry(const CorpusEntry &entry)
{
    const ScenarioSpec &s = entry.spec;
    JsonWriter w;
    w.beginObject(JsonWriter::Layout::Lines);
    w.field("format", kMagic).field("version", s.version);
    w.field("seed", strfmt("%016" PRIx64, s.seed));
    w.field("axes", s.axes()).field("axisNames", axesDescribe(s.axes()));
    w.field("n", s.n);
    w.key("init").beginArray();
    for (std::int32_t v : s.init)
        w.value(v);
    w.endArray().key("stmts").beginArray(JsonWriter::Layout::Lines);
    for (const ForgeStmt &st : s.body) {
        w.beginObject().field("kind", stmtKindName(st.kind));
        w.key("p").beginArray();
        for (std::int32_t p : st.p)
            w.value(p);
        w.endArray().endObject();
    }
    w.endArray().field("programHash",
                     strfmt("%016" PRIx64, entry.programHash));
    w.key("exit");
    if (entry.haveExit)
        w.value(entry.expectedExit);
    else
        w.null();
    return sealDocument(w.endObject().take());
}

bool
deserializeCorpusEntry(const std::string &text, CorpusEntry &out,
                       std::string *err, CorpusError *kind)
{
    if (kind)
        *kind = CorpusError::None;
    auto failKind = [&](CorpusError k, const std::string &why) {
        if (err)
            *err = why;
        if (kind)
            *kind = k;
        return false;
    };
    auto failWith = [&](const std::string &why) {
        return failKind(CorpusError::Format, why);
    };

    // The seal covers every byte, so truncation and bit rot are
    // rejected before any member is trusted.
    std::string doc, why;
    if (!unsealDocument(text, doc))
        return failWith("missing or wrong content checksum (truncated "
                        "or corrupted)");
    JsonValue v;
    if (!jsonParse(doc, v, &why))
        return failWith(why);
    JsonMembers m(v, why);
    if (m.string("format") != kMagic && m.ok())
        return failWith("not a forge corpus entry");
    const std::int64_t version = m.integer("version", 0, UINT32_MAX);
    if (m.ok() && version != kForgeVersion)
        return failKind(
            CorpusError::Version,
            strfmt("forge version mismatch (file v%lld, generator v%u)",
                   static_cast<long long>(version), kForgeVersion));

    CorpusEntry e;
    e.spec.version = kForgeVersion;
    e.spec.seed = m.hex64("seed");
    const auto axes = static_cast<std::uint64_t>(
        m.integer("axes", 0, kJsonMaxExactInt));
    // A same-version entry whose axes mask has bits outside kAllAxes
    // was written by a grammar with axes this build doesn't have;
    // dropping the bits would silently replay a different scenario.
    if (m.ok() && (axes & ~static_cast<std::uint64_t>(kAllAxes)))
        return failKind(
            CorpusError::FutureAxes,
            strfmt("axes mask 0x%llx has unknown axis bits 0x%llx "
                   "(this build knows 0x%x); refusing to replay",
                   static_cast<unsigned long long>(axes),
                   static_cast<unsigned long long>(
                       axes & ~static_cast<std::uint64_t>(kAllAxes)),
                   kAllAxes));
    m.string("axisNames"); // human-readable; only its kind is checked
    e.spec.n = static_cast<std::int32_t>(m.integer("n", kI32Min, kI32Max));
    const std::vector<std::int64_t> init =
        m.integers("init", e.spec.init.size(), kI32Min, kI32Max);
    std::copy(init.begin(), init.end(), e.spec.init.begin());
    for (const JsonValue &item : m.array("stmts", kMaxStmts)) {
        JsonMembers sm(item, why);
        ForgeStmt st;
        const std::string name = sm.string("kind");
        if (sm.ok() && !stmtKindByName(name, st.kind))
            return failWith("unknown statement kind '" + name + "'");
        const std::vector<std::int64_t> p =
            sm.integers("p", st.p.size(), kI32Min, kI32Max);
        std::copy(p.begin(), p.end(), st.p.begin());
        e.spec.body.push_back(st);
    }
    e.programHash = m.hex64("programHash");
    // "exit" is null when no exit checksum was pinned.
    if (!v["exit"].isNull() || !v.fields.count("exit")) {
        e.expectedExit =
            static_cast<Word>(m.integer("exit", 0, UINT32_MAX));
        e.haveExit = true;
    }
    if (!m.ok())
        return failWith(why);
    out = std::move(e);
    return true;
}

std::string
writeCorpusEntry(const std::string &dir, const CorpusEntry &entry)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + entry.fileName();
    // Write-then-rename: a writer killed mid-write leaves only a
    // "*.scenario.tmp.*" file, which listCorpus() never picks up,
    // never a half-written entry under the real name.
    return writeFileAtomic(path, serializeCorpusEntry(entry)) ? path
                                                              : "";
}

bool
readCorpusEntry(const std::string &path, CorpusEntry &out,
                std::string *err, CorpusError *kind)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (err)
            *err = "cannot open '" + path + "'";
        if (kind)
            *kind = CorpusError::Format;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return deserializeCorpusEntry(ss.str(), out, err, kind);
}

std::vector<std::string>
listCorpus(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &de :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!de.is_regular_file())
            continue;
        const std::string p = de.path().string();
        if (p.size() > 9 &&
            p.compare(p.size() - 9, 9, ".scenario") == 0)
            out.push_back(p);
    }
    std::sort(out.begin(), out.end());
    return out;
}

CorpusEntry
makeCorpusEntry(const ScenarioSpec &spec, bool with_exit)
{
    CorpusEntry e;
    e.spec = spec;
    e.spec.version = kForgeVersion;
    e.programHash = hashProgram(render(e.spec));
    if (with_exit) {
        const Workload w = scenarioWorkload(e.spec);
        JrpmSystem sys(w, caseConfig());
        const RunOutcome seq =
            sys.runSequential(w.mainArgs, false, nullptr);
        if (!seq.halted || seq.uncaught)
            warn("forge corpus entry %s does not halt cleanly",
                 e.fileName().c_str());
        e.expectedExit = seq.exitValue;
        e.haveExit = true;
    }
    return e;
}

} // namespace forge
} // namespace jrpm

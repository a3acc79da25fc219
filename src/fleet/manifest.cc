#include "manifest.hh"

#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <fstream>

#include <unistd.h>

#include "common/logging.hh"
#include "common/seal.hh"
#include "fleet/wire.hh"

namespace jrpm
{
namespace fleet
{

CampaignManifest::CampaignManifest(std::string path)
    : manifestPath(std::move(path))
{
}

CampaignManifest::~CampaignManifest()
{
    if (journal)
        std::fclose(journal);
}

void
CampaignManifest::openJournal(bool truncate)
{
    if (journal)
        std::fclose(journal);
    journal = std::fopen((manifestPath + ".journal").c_str(),
                         truncate ? "w" : "a");
    if (!journal)
        fatal("fleet: cannot open journal '%s.journal': %s",
              manifestPath.c_str(), std::strerror(errno));
}

namespace
{

/** A record of type @p type: a JSON object whose one member, named
 *  @p type, is written next. */
JsonWriter
record(const char *type)
{
    JsonWriter w;
    w.beginObject().key(type);
    return w;
}

std::string
configRecord(const std::string &identity)
{
    return record("config").value(identity).endObject().take();
}

std::string
caseRecord(const forge::CaseResult &cr)
{
    return record("case").raw(caseResultJson(cr)).endObject().take();
}

std::string
poisonRecord(const PoisonRecord &p)
{
    JsonWriter w = record("poison");
    w.beginObject().field("seed", strfmt("%016" PRIx64, p.seed));
    w.field("attempts", p.attempts).field("cause", p.cause);
    return w.endObject().endObject().take();
}

std::string
reproRecord(std::uint64_t seed, const std::string &path)
{
    JsonWriter w = record("repro");
    w.beginObject().field("seed", strfmt("%016" PRIx64, seed));
    w.field("path", path);
    return w.endObject().endObject().take();
}

std::string
weightsRecord(std::uint32_t batch, const forge::WeightBank &bank)
{
    JsonWriter w = record("weights");
    w.beginObject().field("batch", batch).key("bank").raw(bank.json());
    return w.endObject().endObject().take();
}

} // namespace

bool
CampaignManifest::applyRecord(const std::string &type,
                              const JsonValue &payload, std::string &why)
{
    if (type == "case") {
        forge::CaseResult cr;
        if (!caseResultFromJson(payload, cr, &why))
            return false;
        cases[cr.seed] = std::move(cr); // by-seed dedupe on replay
        return true;
    }
    JsonMembers m(payload, why);
    if (type == "poison") {
        PoisonRecord p;
        p.seed = m.hex64("seed");
        p.attempts =
            static_cast<std::uint32_t>(m.integer("attempts", 0, UINT32_MAX));
        p.cause = m.string("cause");
        if (!m.ok())
            return false;
        // Keep a repro path whose record replayed first (maps are
        // rebuilt out of order only across checkpoint+journal
        // boundaries).
        p.reproPath = poison[p.seed].reproPath;
        poison[p.seed] = std::move(p);
        return true;
    }
    if (type == "repro") {
        const std::uint64_t seed = m.hex64("seed");
        std::string path = m.string("path");
        if (!m.ok())
            return false;
        poison[seed].seed = seed;
        poison[seed].reproPath = std::move(path);
        return true;
    }
    if (type == "weights") {
        const auto batch =
            static_cast<std::uint32_t>(m.integer("batch", 0, UINT32_MAX));
        const forge::WeightBank bank = forge::WeightBank::read(m, "bank");
        if (!m.ok())
            return false;
        banks[batch] = bank;
        return true;
    }
    why = "unknown record type '" + type + "'";
    return false;
}

bool
CampaignManifest::load(const std::string &expect_config,
                       std::string *err)
{
    configLine = expect_config;

    // A file's records, line by line, torn lines skipped.  The first
    // healthy line must be the config record; a file whose config is
    // missing or mismatched contributes nothing (checkpoint) or is
    // fatal (conflict — see below).
    enum class FileVerdict { Absent, Conflict, Loaded };
    std::string conflictCfg;
    auto loadFile = [&](const std::string &path,
                        bool expect_header) -> FileVerdict {
        std::ifstream in(path);
        if (!in)
            return FileVerdict::Absent;
        bool sawHeader = false;
        bool any = false;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            std::string rec;
            if (!unsealRecord(line, rec)) {
                warn("fleet: %s: skipping torn record: %.60s",
                     path.c_str(), line.c_str());
                ++torn;
                continue;
            }
            any = true;
            // A record is an object whose one member names its type.
            JsonValue v;
            std::string why;
            if (jsonParse(rec, v, &why) &&
                (v.kind != JsonValue::Kind::Object || v.fields.size() != 1))
                why = "not an object with one member";
            if (!why.empty()) {
                warn("fleet: %s: skipping bad record (%s): %.60s",
                     path.c_str(), why.c_str(), rec.c_str());
                ++torn;
                continue;
            }
            const auto &[type, payload] = *v.fields.begin();
            if (type == "config") {
                const std::string stored =
                    JsonMembers(v, why).string("config");
                if (why.empty()) {
                    if (stored != expect_config) {
                        conflictCfg = stored;
                        return FileVerdict::Conflict;
                    }
                    sawHeader = true;
                    continue;
                }
            } else if (expect_header && !sawHeader) {
                // Records before (or without) a header cannot be
                // trusted to belong to this campaign.
                warn("fleet: %s: record before config header, "
                     "skipping",
                     path.c_str());
                ++torn;
                continue;
            } else if (applyRecord(type, payload, why)) {
                continue;
            }
            warn("fleet: %s: skipping bad record (%s): %.60s",
                 path.c_str(), why.c_str(), rec.c_str());
            ++torn;
        }
        return any ? FileVerdict::Loaded : FileVerdict::Absent;
    };

    const FileVerdict cp = loadFile(manifestPath, true);
    if (cp == FileVerdict::Conflict) {
        if (err)
            *err = strfmt("manifest '%s' belongs to a different "
                          "campaign (stored: %s); refusing to "
                          "resume over it",
                          manifestPath.c_str(),
                          conflictCfg.c_str());
        return false;
    }
    const FileVerdict jr =
        loadFile(manifestPath + ".journal", false);
    if (jr == FileVerdict::Conflict) {
        if (err)
            *err = strfmt("journal '%s.journal' belongs to a "
                          "different campaign (stored: %s)",
                          manifestPath.c_str(),
                          conflictCfg.c_str());
        return false;
    }

    resumedFlag = !cases.empty() || !poison.empty();

    // Fresh campaign: stamp the checkpoint header now so a crash
    // before the first periodic checkpoint still leaves the campaign
    // identity on disk (checkpoint() leaves the journal open with its
    // header); else open the journal for appending, with its own
    // header so a journal orphaned by a deleted checkpoint remains
    // self-identifying.
    if (cp == FileVerdict::Absent)
        checkpoint();
    if (!journal) {
        openJournal(/*truncate=*/false);
        if (jr == FileVerdict::Absent)
            appendJournal(configRecord(configLine));
    }
    return true;
}

void
CampaignManifest::appendJournal(const std::string &record)
{
    if (!journal)
        return;
    const std::string line = sealRecord(record) + "\n";
    std::fwrite(line.data(), 1, line.size(), journal);
    // Flush to the kernel so a SIGKILL'd supervisor loses nothing;
    // fsync per record would be durable against power loss too but
    // costs too much per case — the periodic checkpoint fsyncs.
    std::fflush(journal);
}

void
CampaignManifest::recordCase(const forge::CaseResult &cr)
{
    cases[cr.seed] = cr;
    appendJournal(caseRecord(cr));
}

void
CampaignManifest::recordPoison(const PoisonRecord &p)
{
    poison[p.seed] = p;
    appendJournal(poisonRecord(p));
}

void
CampaignManifest::recordRepro(std::uint64_t seed,
                              const std::string &path)
{
    poison[seed].seed = seed;
    poison[seed].reproPath = path;
    appendJournal(reproRecord(seed, path));
}

void
CampaignManifest::recordWeights(std::uint32_t batch,
                                const forge::WeightBank &bank)
{
    banks[batch] = bank;
    appendJournal(weightsRecord(batch, bank));
}

void
CampaignManifest::checkpoint()
{
    const std::string tmp = manifestPath + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        warn("fleet: cannot write checkpoint '%s': %s", tmp.c_str(),
             std::strerror(errno));
        return;
    }
    std::string text;
    auto line = [&text](const std::string &record) {
        text += sealRecord(record) + "\n";
    };
    line(configRecord(configLine));
    for (const auto &[seed, cr] : cases)
        line(caseRecord(cr));
    for (const auto &[seed, p] : poison) {
        line(poisonRecord(p));
        if (!p.reproPath.empty())
            line(reproRecord(seed, p.reproPath));
    }
    for (const auto &[batch, bank] : banks)
        line(weightsRecord(batch, bank));
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
        std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    std::fclose(f);
    if (!ok || std::rename(tmp.c_str(), manifestPath.c_str()) != 0) {
        warn("fleet: failed to persist checkpoint '%s'",
             manifestPath.c_str());
        std::remove(tmp.c_str());
        return;
    }
    // The snapshot owns every journaled record now; start the
    // journal over (with a fresh header).
    openJournal(/*truncate=*/true);
    appendJournal(configRecord(configLine));
}

} // namespace fleet
} // namespace jrpm

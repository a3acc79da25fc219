#include "manifest.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

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

bool
CampaignManifest::applyRecord(const std::string &rec,
                              std::string *why)
{
    std::istringstream in(rec);
    std::string type;
    in >> type;
    if (type == "config") {
        // Handled by the caller (load) — config must come first.
        *why = "config record out of position";
        return false;
    }
    if (type == "case") {
        const std::size_t at = rec.find('{');
        if (at == std::string::npos) {
            *why = "case record without JSON";
            return false;
        }
        forge::CaseResult cr;
        if (!caseResultFromJson(rec.substr(at), cr, why))
            return false;
        cases[cr.seed] = std::move(cr); // by-seed dedupe on replay
        return true;
    }
    if (type == "poison") {
        PoisonRecord p;
        std::string seedtok;
        in >> seedtok >> p.attempts;
        char *end = nullptr;
        p.seed = std::strtoull(seedtok.c_str(), &end, 16);
        if (!in || end == seedtok.c_str()) {
            *why = "bad poison record";
            return false;
        }
        std::getline(in, p.cause);
        if (!p.cause.empty() && p.cause.front() == ' ')
            p.cause.erase(0, 1);
        // Keep an existing repro path if the poison line replays
        // after its repro line (maps are rebuilt out of order only
        // across checkpoint+journal boundaries).
        p.reproPath = poison.count(p.seed)
                          ? poison[p.seed].reproPath
                          : "";
        poison[p.seed] = std::move(p);
        return true;
    }
    if (type == "repro") {
        std::string seedtok, path;
        in >> seedtok >> path;
        char *end = nullptr;
        const std::uint64_t seed =
            std::strtoull(seedtok.c_str(), &end, 16);
        if (!in || end == seedtok.c_str()) {
            *why = "bad repro record";
            return false;
        }
        poison[seed].seed = seed;
        poison[seed].reproPath = path;
        return true;
    }
    if (type == "weights") {
        std::uint32_t batch = 0;
        if (!(in >> batch)) {
            *why = "bad weights record";
            return false;
        }
        std::string bank;
        std::getline(in, bank);
        if (!bank.empty() && bank.front() == ' ')
            bank.erase(0, 1);
        if (bank.empty()) {
            *why = "weights record without bank";
            return false;
        }
        banks[batch] = std::move(bank);
        return true;
    }
    *why = "unknown record type '" + type + "'";
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
            if (rec.rfind("config ", 0) == 0) {
                if (rec.substr(7) != expect_config) {
                    conflictCfg = rec.substr(7);
                    return FileVerdict::Conflict;
                }
                sawHeader = true;
                continue;
            }
            if (expect_header && !sawHeader) {
                // Records before (or without) a header cannot be
                // trusted to belong to this campaign.
                warn("fleet: %s: record before config header, "
                     "skipping",
                     path.c_str());
                ++torn;
                continue;
            }
            std::string why;
            if (!applyRecord(rec, &why)) {
                warn("fleet: %s: skipping bad record (%s): %.60s",
                     path.c_str(), why.c_str(), rec.c_str());
                ++torn;
            }
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
    // identity on disk; then open the journal for appending, with
    // its own header so a journal orphaned by a deleted checkpoint
    // remains self-identifying.
    if (cp == FileVerdict::Absent)
        checkpoint();
    openJournal(/*truncate=*/false);
    if (jr == FileVerdict::Absent)
        appendJournal("config " + configLine);
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
    appendJournal("case " + caseResultJson(cr));
}

void
CampaignManifest::recordPoison(const PoisonRecord &p)
{
    poison[p.seed] = p;
    appendJournal(strfmt("poison %016llx %u %s",
                         static_cast<unsigned long long>(p.seed),
                         p.attempts, p.cause.c_str()));
}

void
CampaignManifest::recordRepro(std::uint64_t seed,
                              const std::string &path)
{
    poison[seed].seed = seed;
    poison[seed].reproPath = path;
    appendJournal(strfmt("repro %016llx %s",
                         static_cast<unsigned long long>(seed),
                         path.c_str()));
}

void
CampaignManifest::recordWeights(std::uint32_t batch,
                                const std::string &bank)
{
    banks[batch] = bank;
    appendJournal(strfmt("weights %u %s", batch, bank.c_str()));
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
    std::string text = sealRecord("config " + configLine) + "\n";
    for (const auto &[seed, cr] : cases)
        text += sealRecord("case " + caseResultJson(cr)) + "\n";
    for (const auto &[seed, p] : poison) {
        text += sealRecord(strfmt(
                    "poison %016llx %u %s",
                    static_cast<unsigned long long>(seed),
                    p.attempts, p.cause.c_str())) +
                "\n";
        if (!p.reproPath.empty())
            text += sealRecord(strfmt(
                        "repro %016llx %s",
                        static_cast<unsigned long long>(seed),
                        p.reproPath.c_str())) +
                    "\n";
    }
    for (const auto &[batch, bank] : banks)
        text += sealRecord(strfmt("weights %u %s", batch,
                                  bank.c_str())) +
                "\n";
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
    appendJournal("config " + configLine);
}

} // namespace fleet
} // namespace jrpm

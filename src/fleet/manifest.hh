/**
 * @file
 * The campaign manifest: durable, crash-consistent progress state
 * for a fleet campaign, so a supervisor that is SIGKILL'd (or loses
 * power) resumes exactly where it stopped — no seed run twice, no
 * completed record lost.
 *
 * Two files cooperate:
 *
 *  - `<path>` — the checkpoint: a full snapshot, rewritten
 *    periodically via temp file + fsync + atomic rename, so it is
 *    always either the old snapshot or the new one, never a blend.
 *  - `<path>.journal` — the append-only journal: one record per
 *    line, appended and flushed the moment an event happens.  After
 *    a checkpoint the journal is truncated (its records are in the
 *    snapshot now).
 *
 * Every line in both files is one record: a JSON object whose single
 * member names the record's type and holds its payload, sealed with a
 * trailing ` crc <fnv64-hex>` over the rest of the line (sealRecord(),
 * common/seal.hh).  A crash can tear at most the final journal line;
 * load() verifies each line, reads it strictly (JsonMembers), skips
 * and counts one that is torn, corrupt or malformed, and
 * de-duplicates by seed — replaying "checkpoint then journal" is
 * therefore idempotent.  A checkpoint whose header is unreadable is
 * discarded wholesale (with a warning); the journal alone still
 * restores every record appended since the last truncation, and set
 * semantics keep coverage exactly-once because lost seeds are simply
 * re-run deterministically.
 *
 * Record types, each written by one function for both files:
 *  - `{"config":"<identity>"}`  campaign identity; resume refuses a
 *    mismatch (different seed/cases would silently corrupt coverage)
 *  - `{"case":{...}}`  one completed case (wire.hh format)
 *  - `{"poison":{"seed":"<16 hex>","attempts":2,"cause":"signal 6"}}`
 *    a quarantined case
 *  - `{"repro":{"seed":"<16 hex>","path":"/abs/path"}}`  the shrunk
 *    repro of a quarantined case
 *  - `{"weights":{"batch":0,"bank":[...]}}`  guided campaign: the
 *    WeightBank entering batch `batch` (weights.hh); rebroadcast at
 *    every checkpoint boundary
 */

#ifndef JRPM_FLEET_MANIFEST_HH
#define JRPM_FLEET_MANIFEST_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "common/json.hh"
#include "forge/campaign.hh"

namespace jrpm
{
namespace fleet
{

/** A case that killed its worker twice and was taken out of the
 *  campaign. */
struct PoisonRecord
{
    std::uint64_t seed = 0;
    std::uint32_t attempts = 0;
    std::string cause;     ///< "signal 11", "timeout", ...
    std::string reproPath; ///< shrunk repro, "" until shrunk
};

class CampaignManifest
{
  public:
    /** Binds to `<path>` / `<path>.journal`; call load() next. */
    explicit CampaignManifest(std::string path);
    ~CampaignManifest();
    CampaignManifest(const CampaignManifest &) = delete;
    CampaignManifest &operator=(const CampaignManifest &) = delete;

    /**
     * Read the checkpoint and replay the journal (see file header).
     * @return false only on a config-line conflict with
     *         @p expect_config — torn records and a missing or
     *         corrupt checkpoint degrade, they don't fail.
     */
    bool load(const std::string &expect_config, std::string *err);

    /** True when load() found prior progress. */
    bool resumed() const { return resumedFlag; }
    /** Corrupt/torn lines skipped during load(). */
    std::uint32_t tornRecords() const { return torn; }

    /** Journal one completed case (appends + flushes). */
    void recordCase(const forge::CaseResult &cr);
    /** Journal a quarantined case. */
    void recordPoison(const PoisonRecord &p);
    /** Journal the shrunk repro path for a quarantined case. */
    void recordRepro(std::uint64_t seed, const std::string &path);
    /** Journal the WeightBank entering guided batch @p batch. */
    void recordWeights(std::uint32_t batch, const forge::WeightBank &bank);

    /** Snapshot everything to the checkpoint (atomic replace +
     *  fsync) and truncate the journal. */
    void checkpoint();

    const std::map<std::uint64_t, forge::CaseResult> &
    completed() const
    {
        return cases;
    }

    const std::map<std::uint64_t, PoisonRecord> &
    poisoned() const
    {
        return poison;
    }

    /** Guided-campaign weight banks by batch index. */
    const std::map<std::uint32_t, forge::WeightBank> &
    weights() const
    {
        return banks;
    }

    const std::string &path() const { return manifestPath; }

  private:
    void appendJournal(const std::string &record);
    void openJournal(bool truncate);
    /** Apply the @p payload of one record of type @p type (not
     *  config); false (and @p why) when it does not read, and the
     *  caller counts it as torn. */
    bool applyRecord(const std::string &type, const JsonValue &payload,
                     std::string &why);

    std::string manifestPath;
    std::string configLine;
    std::map<std::uint64_t, forge::CaseResult> cases;
    std::map<std::uint64_t, PoisonRecord> poison;
    std::map<std::uint32_t, forge::WeightBank> banks;
    std::FILE *journal = nullptr;
    bool resumedFlag = false;
    std::uint32_t torn = 0;
};

} // namespace fleet
} // namespace jrpm

#endif // JRPM_FLEET_MANIFEST_HH

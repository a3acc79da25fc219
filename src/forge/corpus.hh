/**
 * @file
 * Persistent corpus format for forge scenarios.
 *
 * A corpus entry is one versioned JSON document, one member per
 * line, sealed with the checksum every persisted format shares
 * (common/seal.hh).  It carries a scenario's provenance seed, its
 * full statement list (so shrunk specs — which no longer correspond
 * to any generator seed — stay replayable), the expected fingerprint
 * of the rendered program, and optionally the expected sequential
 * exit checksum.  Loading rejects truncation and corruption (the
 * seal), malformed JSON, another format, a generator-version
 * mismatch (the grammar may have changed meaning), and a missing
 * member or one of the wrong kind; replaying re-renders the spec and
 * verifies the stored program hash so silent grammar drift is caught
 * before a run is trusted.
 */

#ifndef JRPM_FORGE_CORPUS_HH
#define JRPM_FORGE_CORPUS_HH

#include <string>
#include <vector>

#include "forge/forge.hh"

namespace jrpm
{
namespace forge
{

/** One persisted scenario plus its replay expectations. */
struct CorpusEntry
{
    ScenarioSpec spec;
    /** hashProgram(render(spec)) at save time. */
    std::uint64_t programHash = 0;
    /** Expected sequential exit checksum; valid iff haveExit. */
    Word expectedExit = 0;
    bool haveExit = false;

    /** Canonical file name ("forge-<fingerprint>.scenario"). */
    std::string fileName() const;
};

/** One sealed JSON document, one member per line. */
std::string serializeCorpusEntry(const CorpusEntry &entry);

/** Machine-readable parse-failure class, for callers that branch on
 *  the cause. */
enum class CorpusError
{
    None = 0,
    Format,     ///< seal, JSON, format tag or member errors
    Version,    ///< forge generator version mismatch
    FutureAxes, ///< axes mask has bits this build doesn't know
};

/**
 * Parse a serialized entry.  Rejects a wrong or missing seal,
 * malformed JSON, another format, a missing member or one of the
 * wrong kind, the wrong forge version — and an axes mask
 * carrying bits outside kAllAxes: a same-version file with future
 * axis bits was written by a newer grammar, and silently dropping
 * the bits would replay a different scenario than the one saved.
 * @param err optional diagnostic on failure
 * @param kind optional machine-readable failure class
 */
bool deserializeCorpusEntry(const std::string &text, CorpusEntry &out,
                            std::string *err = nullptr,
                            CorpusError *kind = nullptr);

/** Write an entry into @p dir (created if needed) under its
 *  canonical name.  @return the path, or "" on I/O error. */
std::string writeCorpusEntry(const std::string &dir,
                             const CorpusEntry &entry);

/** Load one entry from a file.  @return false with @p err set on
 *  read or parse failure. */
bool readCorpusEntry(const std::string &path, CorpusEntry &out,
                     std::string *err = nullptr,
                     CorpusError *kind = nullptr);

/** Sorted paths of the "*.scenario" files in a directory. */
std::vector<std::string> listCorpus(const std::string &dir);

/** Build an entry for a spec: renders it, records the program hash,
 *  and (when @p with_exit) runs it sequentially to pin the expected
 *  exit checksum. */
CorpusEntry makeCorpusEntry(const ScenarioSpec &spec,
                            bool with_exit = true);

} // namespace forge
} // namespace jrpm

#endif // JRPM_FORGE_CORPUS_HH

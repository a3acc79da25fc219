/**
 * @file
 * Crystal — the persistent decomposition repository.
 *
 * The Fig. 1 pipeline pays profiling, analysis and STL recompilation
 * on every run, yet what the analysis hands the microJIT (the
 * SelectedStl list with its predictions and optimization plans) and
 * the predicted speedup are pure functions of the bytecode program,
 * the profiling inputs and the analyzer configuration.  Crystal
 * persists exactly what a warm start reads — those selections plus
 * the predicted speedup, profiling slowdown and profiling cycles the
 * Fig. 8/9 accounting needs — in an on-disk repository keyed by a
 * deterministic FNV-1a fingerprint of (program, profile args,
 * AnalyzerConfig+TracerConfig, schema version), so a later run of
 * the same workload can warm-start: skip the profile run and
 * analysis entirely and recompile STLs straight from the stored
 * selections.  TEST's raw per-loop profiles are not kept: nothing
 * after the analysis reads them.
 *
 * An entry is one JSON document sealed with the checksum every
 * persisted format shares (common/seal.hh).
 *
 * Invalidation rules:
 *  - any change to the program, profile args or analyzer/tracer
 *    config changes the fingerprint — the old entry is simply never
 *    found again;
 *  - entries whose stored component hashes disagree with the caller's
 *    expectation (a hash collision or a hand-edited file) are treated
 *    as misses;
 *  - truncated or corrupted files fail the seal, and files that are
 *    not a well-formed entry of this schema (a missing member, a
 *    member of the wrong kind, another schema version or an older
 *    syntax) fail the parse; both are treated as misses;
 *  - post-run validation in JrpmSystem demotes entries whose actual
 *    TLS speedup falls far below the stored prediction.
 *
 * The repository is safe to share between the batch driver's
 * concurrent pipelines: lookups and stores serialize on an internal
 * mutex and stores are atomic (temp file + rename).  It is also safe
 * to share between *processes* (fleet workers all warm from one
 * repository): operations additionally take an advisory flock() on
 * `<dir>/.lock` — shared for lookups, exclusive for stores and
 * invalidations.  Unreadable entries are quarantined by renaming
 * them to `<name>.corrupt` so a poisoned file cannot keep a whole
 * fleet rejecting on every case, and stale `*.tmp.*` leftovers from
 * crashed writers are swept when the repository is opened.
 */

#ifndef JRPM_CRYSTAL_CRYSTAL_HH
#define JRPM_CRYSTAL_CRYSTAL_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bytecode/bytecode.hh"
#include "common/types.hh"
#include "profile/analyzer.hh"
#include "tracer/test_profiler.hh"

namespace jrpm
{

/** Bump on any change to the meaning of a persisted field.  It is
 *  hashed into every fingerprint, so a bump orphans every old entry
 *  (a cold re-profile); an entry whose stored schema differs is also
 *  rejected on read, like a file in any other syntax. */
constexpr std::uint32_t kCrystalSchemaVersion = 1;

/** Warm-start policy for a pipeline run. */
enum class WarmMode : std::uint8_t
{
    Cold, ///< never read the repository (still crystallize results)
    Warm, ///< require a repository hit; a miss is a fatal error
    Auto, ///< use a hit when present, else run cold and crystallize
};

const char *warmModeName(WarmMode mode);

/** Parse "cold" | "warm" | "auto"; fatal() on anything else. */
WarmMode parseWarmMode(const std::string &name);

// ---- fingerprinting ---------------------------------------------------

/** Structural hash of a bytecode program (code, classes, entry). */
std::uint64_t hashProgram(const BcProgram &prog);

/** Hash of the profiling input vector. */
std::uint64_t hashArgs(const std::vector<Word> &args);

/**
 * Hash of everything that shapes the analyzer's decision: the
 * AnalyzerConfig thresholds and handler costs plus the TEST tracer
 * geometry (the profiles themselves depend on bank count, buffer
 * sizes and history depth).
 */
std::uint64_t hashAnalyzerConfig(const AnalyzerConfig &an,
                                 const TracerConfig &tr);

/** The repository key: schema + program + args + config. */
std::uint64_t crystalFingerprint(std::uint64_t program_hash,
                                 std::uint64_t args_hash,
                                 std::uint64_t config_hash);

// ---- the persisted entry ----------------------------------------------

/** One crystallized decomposition: what a warm start reads of the
 *  output of steps 2-3. */
struct CrystalEntry
{
    std::uint32_t schemaVersion = kCrystalSchemaVersion;
    std::string workload;

    std::uint64_t programHash = 0;
    std::uint64_t argsHash = 0;
    std::uint64_t configHash = 0;

    /** Predicted whole-program TLS speedup at crystallization time
     *  (seq cycles / predicted TLS cycles); the demotion baseline. */
    double predictedSpeedup = 1.0;
    /** Observed profiling slowdown of the cold run (Fig. 8 bar). */
    double profilingSlowdown = 1.0;
    /** Cycles the cold profiling run took; warm runs reuse it as the
     *  coverage normalizer so predictions match the cold pipeline. */
    std::uint64_t profilingCycles = 0;

    std::vector<SelectedStl> selections;

    std::uint64_t
    fingerprint() const
    {
        return crystalFingerprint(programHash, argsHash, configHash);
    }

    /** True when the stored component hashes equal the caller's. */
    bool
    matches(std::uint64_t program_hash, std::uint64_t args_hash,
            std::uint64_t config_hash) const
    {
        return programHash == program_hash && argsHash == args_hash &&
               configHash == config_hash;
    }

    /** One sealed JSON document (doubles at 17 significant digits
     *  round-trip bit-exactly). */
    std::string serialize() const;

    /**
     * Parse a serialized entry.  Rejects a wrong or missing seal
     * (truncation, corruption), malformed JSON, another format or
     * schema version, and a missing member or one of the wrong kind.
     * @param err optional diagnostic on failure
     */
    static bool deserialize(const std::string &text, CrystalEntry &out,
                            std::string *err = nullptr);
};

// ---- the repository ---------------------------------------------------

/** Repository observability counters.  Every field is also published
 *  live as a `crystal.*` counter in the global metrics registry
 *  (crystal.hits, crystal.misses, ...), so cache effectiveness shows
 *  up in service stats and the observatory report regardless of
 *  which client — batch driver, service, fleet worker — drove the
 *  repository.  (crystal.demotions is published by JrpmSystem, which
 *  owns the misprediction policy.) */
struct CrystalStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t rejects = 0; ///< files present but unreadable
    std::uint64_t quarantined = 0; ///< rejects renamed to .corrupt
    std::uint64_t tmpSwept = 0; ///< stale writer tmp files removed
    std::uint64_t evictions = 0; ///< LRU entries removed by the cap
};

/**
 * A directory of crystallized decompositions, one file per
 * fingerprint.  Thread-safe; share one instance across the batch
 * driver's concurrent pipelines.
 */
class CrystalRepo
{
  public:
    /** Opens (and creates if needed) the repository directory; sweeps
     *  stale writer temp files left by crashed processes. */
    explicit CrystalRepo(std::string dir);
    ~CrystalRepo();

    /**
     * Load the entry for a fingerprint.
     * @return false on absent, truncated, corrupted or
     *         schema-mismatched files (all count as misses).
     */
    bool lookup(std::uint64_t fingerprint, CrystalEntry &out);

    /** Persist an entry under its fingerprint (atomic replace). */
    bool store(const CrystalEntry &entry);

    /** Remove an entry (demotion).  @return true if one existed. */
    bool invalidate(std::uint64_t fingerprint);

    /**
     * Serve the repository as a bounded warm cache: cap the entry
     * count at @p max_entries (0 = unbounded, the default).  The cap
     * is enforced after every store by evicting the
     * least-recently-used entries — LRU by file mtime, which lookup
     * refreshes on every hit — and counts each removal as an
     * eviction (crystal.evictions).
     */
    void setCapacity(std::size_t max_entries);
    std::size_t capacity() const { return maxEntries; }

    /** Fingerprints currently on disk. */
    std::vector<std::uint64_t> list() const;

    /** Number of entries on disk. */
    std::size_t size() const { return list().size(); }

    const std::string &dir() const { return root; }
    CrystalStats stats() const;

    /** Path of the entry file for a fingerprint (for tests). */
    std::string pathFor(std::uint64_t fingerprint) const;

  private:
    /** Evict LRU entries until <= maxEntries remain.  Caller holds
     *  mu and the exclusive flock. */
    void enforceCapLocked();

    std::string root;
    mutable std::mutex mu;
    CrystalStats counters;
    std::size_t maxEntries = 0; ///< 0 = unbounded
    /** fd of `<root>/.lock`, flock()ed around disk operations so
     *  separate processes sharing the directory serialize too;
     *  -1 when the lock file cannot be created (degrades to
     *  intra-process locking only). */
    int lockFd = -1;
};

} // namespace jrpm

#endif // JRPM_CRYSTAL_CRYSTAL_HH

/**
 * @file
 * Differential oracle comparing a TLS run against the sequential
 * golden run. The paper validates Jrpm by construction (the commit
 * protocol guarantees sequential semantics); this oracle validates
 * it by measurement — after both runs, the final memory image,
 * return value, exception outcome and output stream must agree
 * bit-for-bit, or the report pins the first divergent addresses and
 * the loop most likely responsible (via the violation ledger).
 */

#ifndef JRPM_CORE_ORACLE_HH
#define JRPM_CORE_ORACLE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.hh"
#include "common/types.hh"
#include "memory/main_memory.hh"

namespace jrpm
{

/** How hard the oracle compares the two runs. */
enum class OracleMode : std::uint8_t
{
    Off,    ///< legacy exit-value/output compare only
    Strict, ///< + memory-image checksum and byte-wise diff with
            ///<   attribution
};

const char *oracleModeName(OracleMode mode);

struct OracleConfig
{
    OracleMode mode = OracleMode::Off;
    /** How many divergent bytes to record individually. */
    std::size_t maxDiffs = 8;
};

struct RunOutcome;

/** What one run left behind, as the oracle sees it. */
struct RunDigest
{
    bool halted = false;
    bool uncaught = false;
    Word exitValue = 0;
    std::vector<Word> output;
    std::uint64_t memChecksum = 0;
    /** Written pages; only captured when the oracle is on. */
    std::shared_ptr<const MemImage> memImage;
    /** The run's squashes; only captured when the oracle is on. */
    std::vector<ViolationRecord> violations;

    /** The oracle's view of one machine run. */
    static RunDigest of(const RunOutcome &o);
};

/** One divergent byte of the final memory image. */
struct MemDivergence
{
    Addr addr = 0;
    std::uint8_t golden = 0;
    std::uint8_t actual = 0;
};

/** The oracle's verdict on one TLS run. */
struct OracleReport
{
    OracleMode mode = OracleMode::Off;
    bool compared = false;   ///< false when mode == Off

    bool exitMatch = true;   ///< halted + exit value agree
    bool excMatch = true;    ///< uncaught-exception outcome agrees
    bool outputMatch = true; ///< PrintInt streams agree
    bool memMatch = true;    ///< checksum and image

    std::uint64_t diffBytes = 0;     ///< total divergent bytes
    std::vector<MemDivergence> firstDiffs;

    /** Attribution: the STL whose entries in the TLS run's own
     *  violation ledger touch the cache line of the first divergent
     *  byte, or -1 if none. */
    std::int32_t suspectLoop = -1;
    std::uint32_t suspectSite = 0;

    bool
    match() const
    {
        return exitMatch && excMatch && outputMatch && memMatch;
    }

    /** Human-readable one-paragraph verdict. */
    std::string summary() const;
};

class Oracle
{
  public:
    /**
     * Compare a TLS run against its sequential golden run.
     * @param skip  sorted [base, len) regions excluded from the
     *              image compare (VM scratch: allocator words, lock
     *              table) — must match the regions used when the
     *              digests' checksums were computed.
     */
    static OracleReport compare(
        const OracleConfig &cfg, const RunDigest &golden,
        const RunDigest &actual,
        const std::vector<std::pair<Addr, std::uint32_t>> &skip);
};

} // namespace jrpm

#endif // JRPM_CORE_ORACLE_HH

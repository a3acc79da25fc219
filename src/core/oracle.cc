#include "oracle.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "common/trace.hh"

namespace jrpm
{

const char *
oracleModeName(OracleMode mode)
{
    switch (mode) {
      case OracleMode::Off:      return "off";
      case OracleMode::Checksum: return "checksum";
      case OracleMode::Strict:   return "strict";
    }
    return "?";
}

namespace
{

bool
inSkip(Addr at,
       const std::vector<std::pair<Addr, std::uint32_t>> &skip)
{
    for (const auto &[base, len] : skip)
        if (at >= base && at - base < len)
            return true;
    return false;
}

/** Attribute the first divergence to the STL whose recorded RAW
 *  squashes touched the same 32-byte line — the prime suspect for a
 *  recovery-path bug or an undetected (suppressed) violation. */
void
attribute(OracleReport &rep, Addr first_diff)
{
    const Addr line = first_diff & ~31u;
    for (const ViolationRecord &v : Trace::global().violations()) {
        if ((v.addr & ~31u) == line) {
            rep.suspectLoop = v.loopId;
            rep.suspectSite = v.storeSite;
            return;
        }
    }
}

} // namespace

OracleReport
Oracle::compare(const OracleConfig &cfg, const RunDigest &golden,
                const RunDigest &actual,
                const std::vector<std::pair<Addr, std::uint32_t>>
                    &skip)
{
    OracleReport rep;
    rep.mode = cfg.mode;
    if (cfg.mode == OracleMode::Off)
        return rep;
    rep.compared = true;

    rep.exitMatch = golden.halted == actual.halted &&
                    golden.exitValue == actual.exitValue;
    rep.excMatch = golden.uncaught == actual.uncaught;
    rep.outputMatch = golden.output == actual.output;
    rep.memMatch = golden.memChecksum == actual.memChecksum;

    if (cfg.mode == OracleMode::Strict && golden.memImage &&
        actual.memImage) {
        const MemImage &g = *golden.memImage;
        const MemImage &a = *actual.memImage;
        const std::uint32_t n = std::min(g.size(), a.size());
        // Walk the pages either run wrote in address order; a page
        // only one side holds is zeros on the other.  Equal pages
        // cost one memcmp, and only a mismatching page is diffed
        // byte by byte.
        static constexpr std::uint8_t kZeros[MainMemory::kPageBytes] = {};
        constexpr std::uint32_t kNone = ~0u;
        std::size_t gi = 0, ai = 0;
        for (;;) {
            const std::uint32_t gp =
                gi < g.pages.size() ? g.pages[gi] : kNone;
            const std::uint32_t ap =
                ai < a.pages.size() ? a.pages[ai] : kNone;
            const std::uint32_t p = std::min(gp, ap);
            const Addr base = p * MainMemory::kPageBytes;
            if (p == kNone || base >= n)
                break;
            const std::uint8_t *gb =
                gp == p ? g.page(gi++).data() : kZeros;
            const std::uint8_t *ab =
                ap == p ? a.page(ai++).data() : kZeros;
            const std::uint32_t len =
                std::min(MainMemory::kPageBytes, n - base);
            if (std::memcmp(gb, ab, len) == 0)
                continue;
            for (std::uint32_t b = 0; b < len; ++b) {
                if (gb[b] == ab[b] || inSkip(base + b, skip))
                    continue;
                ++rep.diffBytes;
                if (rep.firstDiffs.size() < cfg.maxDiffs)
                    rep.firstDiffs.push_back({base + b, gb[b], ab[b]});
            }
        }
        rep.diffBytes += g.size() > n ? g.size() - n : a.size() - n;
        if (rep.diffBytes)
            rep.memMatch = false;
        if (!rep.firstDiffs.empty())
            attribute(rep, rep.firstDiffs.front().addr);
    }
    return rep;
}

std::string
OracleReport::summary() const
{
    if (!compared)
        return "oracle off";
    if (match())
        return strfmt("oracle (%s): TLS run matches sequential "
                      "golden run", oracleModeName(mode));
    std::string s = strfmt("oracle (%s): DIVERGENCE —",
                           oracleModeName(mode));
    if (!exitMatch)
        s += " exit value differs;";
    if (!excMatch)
        s += " exception outcome differs;";
    if (!outputMatch)
        s += " output stream differs;";
    if (!memMatch) {
        s += strfmt(" memory image differs (%llu bytes",
                    static_cast<unsigned long long>(diffBytes));
        if (!firstDiffs.empty()) {
            s += ", first at";
            for (const auto &d : firstDiffs)
                s += strfmt(" 0x%x[%02x!=%02x]", d.addr, d.golden,
                            d.actual);
        }
        s += ")";
        if (suspectLoop >= 0)
            s += strfmt("; suspect loop %d (store site 0x%x)",
                        suspectLoop, suspectSite);
    }
    return s;
}

} // namespace jrpm

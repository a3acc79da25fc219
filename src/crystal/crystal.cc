#include "crystal.hh"

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "common/seal.hh"

namespace fs = std::filesystem;

namespace jrpm
{

namespace
{

/** Publish one repository event into the shared metrics registry.
 *  Name lookup per event is fine here: every caller just did file
 *  I/O, which dwarfs one map probe. */
void
bump(const char *name)
{
    MetricsRegistry::global().counter(name).inc();
}

} // namespace

const char *
warmModeName(WarmMode mode)
{
    switch (mode) {
      case WarmMode::Cold: return "cold";
      case WarmMode::Warm: return "warm";
      case WarmMode::Auto: return "auto";
    }
    return "?";
}

WarmMode
parseWarmMode(const std::string &name)
{
    if (name == "cold")
        return WarmMode::Cold;
    if (name == "warm")
        return WarmMode::Warm;
    if (name == "auto")
        return WarmMode::Auto;
    fatal("unknown warm mode '%s' (expected cold|warm|auto)",
          name.c_str());
}

// ---- fingerprinting ---------------------------------------------------

std::uint64_t
hashProgram(const BcProgram &prog)
{
    Fnv1a h;
    h.u32(prog.entryMethod).u32(prog.numStatics);
    h.u64(prog.classes.size());
    for (const BcClass &c : prog.classes)
        h.str(c.name).u32(c.payloadWords);
    h.u64(prog.methods.size());
    for (const BcMethod &m : prog.methods) {
        h.str(m.name).u32(m.numArgs).u32(m.numLocals);
        h.boolean(m.returnsValue).boolean(m.isSynchronized);
        h.u64(m.code.size());
        for (const BcInst &inst : m.code)
            h.byte(static_cast<std::uint8_t>(inst.op))
                .i32(inst.imm)
                .i32(inst.imm2);
        h.u64(m.catches.size());
        for (const BcCatch &c : m.catches)
            h.i32(c.begin).i32(c.end).i32(c.handler).i32(c.kind);
    }
    return h.value();
}

std::uint64_t
hashArgs(const std::vector<Word> &args)
{
    Fnv1a h;
    h.u64(args.size());
    for (Word w : args)
        h.u32(w);
    return h.value();
}

std::uint64_t
hashAnalyzerConfig(const AnalyzerConfig &an, const TracerConfig &tr)
{
    Fnv1a h;
    h.u32(an.numCpus);
    h.u32(an.handlers.startup)
        .u32(an.handlers.shutdown)
        .u32(an.handlers.eoi)
        .u32(an.handlers.restart);
    h.f64(an.minItersPerEntry)
        .f64(an.eoiBlockCycles)
        .f64(an.minCommitInterval)
        .f64(an.maxOverflowFrequency)
        .f64(an.minPredictedSpeedup)
        .f64(an.syncDepFrequency)
        .f64(an.syncArcLengthRatio)
        .f64(an.multilevelEntryRatio);
    h.u32(tr.numBanks)
        .u32(tr.lineBytes)
        .u32(tr.loadBufferLines)
        .u32(tr.storeBufferLines)
        .u32(tr.startHistory)
        .u64(tr.timestampCapacity)
        .boolean(tr.allowBankStealing);
    return h.value();
}

std::uint64_t
crystalFingerprint(std::uint64_t program_hash, std::uint64_t args_hash,
                   std::uint64_t config_hash)
{
    return Fnv1a()
        .u32(kCrystalSchemaVersion)
        .u64(program_hash)
        .u64(args_hash)
        .u64(config_hash)
        .value();
}

// ---- serialization ----------------------------------------------------

namespace
{

constexpr const char *kMagic = "jrpm-crystal";
/** Bound on the selections one entry may carry. */
constexpr std::size_t kMaxSelections = 100000;
constexpr std::int64_t kI32Min = INT32_MIN, kI32Max = INT32_MAX;

} // namespace

std::string
CrystalEntry::serialize() const
{
    JsonWriter w;
    w.beginObject(JsonWriter::Layout::Lines);
    w.field("format", kMagic).field("schema", schemaVersion);
    w.field("workload", workload);
    w.field("programHash", strfmt("%016" PRIx64, programHash));
    w.field("argsHash", strfmt("%016" PRIx64, argsHash));
    w.field("configHash", strfmt("%016" PRIx64, configHash));
    w.field("predictedSpeedup", predictedSpeedup);
    w.field("profilingSlowdown", profilingSlowdown);
    w.field("profilingCycles", profilingCycles);
    w.key("selections").beginArray(JsonWriter::Layout::Lines);
    for (const SelectedStl &sel : selections) {
        const StlPrediction &pr = sel.prediction;
        w.beginObject().field("loopId", sel.loopId);
        w.key("prediction").beginObject().field("loopId", pr.loopId);
        w.field("avgThreadSize", pr.avgThreadSize);
        w.field("itersPerEntry", pr.itersPerEntry);
        w.field("coverageCycles", pr.coverageCycles);
        w.field("depFrequency", pr.depFrequency);
        w.field("avgArcDistance", pr.avgArcDistance);
        w.field("avgArcSlack", pr.avgArcSlack);
        w.field("overflowFrequency", pr.overflowFrequency);
        w.field("avgLoadLines", pr.avgLoadLines);
        w.field("avgStoreLines", pr.avgStoreLines);
        w.field("predictedSpeedup", pr.predictedSpeedup);
        w.field("predictedTlsCycles", pr.predictedTlsCycles);
        w.field("eligible", pr.eligible).field("reason", pr.reason);
        w.endObject();
        w.key("plan").beginObject().field("syncLock", sel.plan.syncLock);
        w.field("syncLocalVar", sel.plan.syncLocalVar);
        w.field("multilevel", sel.plan.multilevel);
        w.field("multilevelInner", sel.plan.multilevelInner);
        w.field("hoistHandlers", sel.plan.hoistHandlers);
        w.endObject().endObject();
    }
    w.endArray().endObject();
    return sealDocument(w.take());
}

bool
CrystalEntry::deserialize(const std::string &text, CrystalEntry &out,
                          std::string *err)
{
    auto failWith = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };

    // The seal covers every byte, so a truncated or bit-flipped file
    // is rejected before any member is trusted.
    std::string doc, why;
    if (!unsealDocument(text, doc))
        return failWith("missing or wrong content checksum (truncated "
                        "or corrupted)");
    JsonValue v;
    if (!jsonParse(doc, v, &why))
        return failWith(why);
    JsonMembers m(v, why);
    if (m.string("format") != kMagic && m.ok())
        return failWith("not a crystal entry");
    const std::int64_t schema = m.integer("schema", 0, UINT32_MAX);
    if (m.ok() && schema != kCrystalSchemaVersion)
        return failWith(strfmt("schema version mismatch: found v%lld, "
                               "expected v%u",
                               static_cast<long long>(schema),
                               kCrystalSchemaVersion));

    CrystalEntry e;
    e.workload = m.string("workload");
    e.programHash = m.hex64("programHash");
    e.argsHash = m.hex64("argsHash");
    e.configHash = m.hex64("configHash");
    e.predictedSpeedup = m.number("predictedSpeedup");
    e.profilingSlowdown = m.number("profilingSlowdown");
    e.profilingCycles = static_cast<std::uint64_t>(
        m.integer("profilingCycles", 0, kJsonMaxExactInt));
    for (const JsonValue &item : m.array("selections", kMaxSelections)) {
        JsonMembers s(item, why);
        SelectedStl sel;
        sel.loopId =
            static_cast<std::int32_t>(s.integer("loopId", kI32Min, kI32Max));
        JsonMembers p = s.object("prediction");
        StlPrediction &pr = sel.prediction;
        pr.loopId =
            static_cast<std::int32_t>(p.integer("loopId", kI32Min, kI32Max));
        pr.avgThreadSize = p.number("avgThreadSize");
        pr.itersPerEntry = p.number("itersPerEntry");
        pr.coverageCycles = p.number("coverageCycles");
        pr.depFrequency = p.number("depFrequency");
        pr.avgArcDistance = p.number("avgArcDistance");
        pr.avgArcSlack = p.number("avgArcSlack");
        pr.overflowFrequency = p.number("overflowFrequency");
        pr.avgLoadLines = p.number("avgLoadLines");
        pr.avgStoreLines = p.number("avgStoreLines");
        pr.predictedSpeedup = p.number("predictedSpeedup");
        pr.predictedTlsCycles = p.number("predictedTlsCycles");
        pr.eligible = p.boolean("eligible");
        pr.reason = p.string("reason");
        JsonMembers plan = s.object("plan");
        sel.plan.syncLock = plan.boolean("syncLock");
        sel.plan.syncLocalVar = static_cast<std::int32_t>(
            plan.integer("syncLocalVar", kI32Min, kI32Max));
        sel.plan.multilevel = plan.boolean("multilevel");
        sel.plan.multilevelInner = static_cast<std::int32_t>(
            plan.integer("multilevelInner", kI32Min, kI32Max));
        sel.plan.hoistHandlers = plan.boolean("hoistHandlers");
        e.selections.push_back(std::move(sel));
    }
    if (!m.ok())
        return failWith(why);
    out = std::move(e);
    return true;
}

// ---- repository -------------------------------------------------------

namespace
{

/** RAII advisory flock() on the repository lock file.  A fleet of
 *  worker processes warming from one shared directory must not read
 *  an entry mid-rename or race two writers on the same tmp name; the
 *  in-process mutex alone cannot see across fork boundaries.  A -1 fd
 *  (lock file unavailable) degrades to a no-op. */
struct ScopedFlock
{
    int fd;

    ScopedFlock(int fd, int op) : fd(fd)
    {
        if (fd >= 0)
            while (::flock(fd, op) != 0 && errno == EINTR) {}
    }

    ~ScopedFlock()
    {
        if (fd >= 0)
            ::flock(fd, LOCK_UN);
    }
};

/** Writer temp files older than this are considered abandoned by a
 *  crashed process and swept.  Generous: a live store holds its tmp
 *  file for milliseconds. */
constexpr auto kStaleTmpAge = std::chrono::seconds(60);

} // namespace

CrystalRepo::CrystalRepo(std::string dir) : root(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(root, ec);
    if (ec)
        fatal("cannot create crystal repository '%s': %s",
              root.c_str(), ec.message().c_str());
    lockFd = ::open((root + "/.lock").c_str(),
                    O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (lockFd < 0)
        warn("crystal: cannot create '%s/.lock'; inter-process "
             "locking disabled",
             root.c_str());

    // Sweep stale "*.tmp.*" leftovers from writers that died between
    // open and rename.  Only files quietly aging for a while are
    // removed: a concurrent live store's fresh tmp file survives.
    ScopedFlock iplock(lockFd, LOCK_EX);
    const auto now = fs::file_time_type::clock::now();
    for (const auto &de : fs::directory_iterator(root, ec)) {
        const std::string name = de.path().filename().string();
        if (name.find(".tmp.") == std::string::npos)
            continue;
        std::error_code tec;
        const auto mtime = fs::last_write_time(de.path(), tec);
        if (tec || now - mtime < kStaleTmpAge)
            continue;
        if (fs::remove(de.path(), tec) && !tec) {
            warn("crystal: swept stale temp file '%s'",
                 name.c_str());
            ++counters.tmpSwept;
            bump("crystal.tmp_swept");
        }
    }
}

CrystalRepo::~CrystalRepo()
{
    if (lockFd >= 0)
        ::close(lockFd);
}

std::string
CrystalRepo::pathFor(std::uint64_t fingerprint) const
{
    return root + "/" + strfmt("%016" PRIx64, fingerprint) +
           ".crystal";
}

bool
CrystalRepo::lookup(std::uint64_t fingerprint, CrystalEntry &out)
{
    std::lock_guard<std::mutex> lock(mu);
    const std::string path = pathFor(fingerprint);
    ScopedFlock iplock(lockFd, LOCK_SH);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        ++counters.misses;
        bump("crystal.misses");
        return false;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    const bool readError = std::ferror(f);
    std::fclose(f);
    std::string why;
    CrystalEntry e;
    if (readError || !CrystalEntry::deserialize(text, e, &why)) {
        warn("crystal: rejecting %s: %s", path.c_str(),
             readError ? "read error" : why.c_str());
        ++counters.rejects;
        ++counters.misses;
        bump("crystal.rejects");
        bump("crystal.misses");
        // Quarantine the unreadable file: rename it aside so the
        // next lookup goes straight to a clean miss (and re-store)
        // instead of re-parsing the same poison on every case of a
        // fleet campaign.  Keep the bytes for forensics.
        if (!readError &&
            std::rename(path.c_str(), (path + ".corrupt").c_str())
                == 0) {
            warn("crystal: quarantined corrupt entry as '%s.corrupt'",
                 path.c_str());
            ++counters.quarantined;
            bump("crystal.quarantined");
        }
        return false;
    }
    ++counters.hits;
    bump("crystal.hits");
    // Refresh the mtime so capacity eviction is LRU: a hit moves
    // the entry to the back of the eviction order.
    ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
    out = std::move(e);
    return true;
}

bool
CrystalRepo::store(const CrystalEntry &entry)
{
    std::lock_guard<std::mutex> lock(mu);
    ScopedFlock iplock(lockFd, LOCK_EX);
    if (!writeFileAtomic(pathFor(entry.fingerprint()), entry.serialize()))
        return false;
    ++counters.stores;
    bump("crystal.stores");
    if (maxEntries > 0)
        enforceCapLocked();
    return true;
}

void
CrystalRepo::setCapacity(std::size_t max_entries)
{
    std::lock_guard<std::mutex> lock(mu);
    maxEntries = max_entries;
    if (maxEntries > 0) {
        ScopedFlock iplock(lockFd, LOCK_EX);
        enforceCapLocked();
    }
}

void
CrystalRepo::enforceCapLocked()
{
    // Collect (mtime, path) for every entry and drop the oldest
    // until the cap holds.  Hits refresh mtimes, so this is LRU.
    std::vector<std::pair<fs::file_time_type, fs::path>> entries;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(root, ec)) {
        const std::string name = de.path().filename().string();
        if (name.size() != 16 + 8 ||
            name.compare(16, 8, ".crystal") != 0)
            continue;
        std::error_code tec;
        const auto mtime = fs::last_write_time(de.path(), tec);
        if (!tec)
            entries.emplace_back(mtime, de.path());
    }
    if (entries.size() <= maxEntries)
        return;
    std::sort(entries.begin(), entries.end());
    const std::size_t excess = entries.size() - maxEntries;
    for (std::size_t i = 0; i < excess; ++i) {
        std::error_code rec;
        if (fs::remove(entries[i].second, rec) && !rec) {
            ++counters.evictions;
            bump("crystal.evictions");
        }
    }
}

bool
CrystalRepo::invalidate(std::uint64_t fingerprint)
{
    std::lock_guard<std::mutex> lock(mu);
    ScopedFlock iplock(lockFd, LOCK_EX);
    const bool existed =
        std::remove(pathFor(fingerprint).c_str()) == 0;
    if (existed) {
        ++counters.invalidations;
        bump("crystal.invalidations");
    }
    return existed;
}

std::vector<std::uint64_t>
CrystalRepo::list() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::uint64_t> out;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(root, ec)) {
        const std::string name = de.path().filename().string();
        if (name.size() != 16 + 8 ||
            name.compare(16, 8, ".crystal") != 0)
            continue;
        char *end = nullptr;
        const std::uint64_t fp =
            std::strtoull(name.c_str(), &end, 16);
        if (end == name.c_str() + 16)
            out.push_back(fp);
    }
    return out;
}

CrystalStats
CrystalRepo::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

} // namespace jrpm

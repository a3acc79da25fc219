#include "common/seal.hh"

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "common/hash.hh"
#include "common/logging.hh"

namespace jrpm
{

std::string
sealRecord(const std::string &record)
{
    return record + strfmt(" crc %016" PRIx64,
                           fnv1a(record.data(), record.size()));
}

bool
unsealRecord(const std::string &line, std::string &record)
{
    // The payload may contain spaces (JSON, error text), so locate
    // the *last* " crc ".  The seal must read back exactly as
    // sealRecord() wrote it, so even a case-flipped digit fails.
    const std::size_t at = line.rfind(" crc ");
    if (at == std::string::npos ||
        line.compare(at + 5, std::string::npos,
                     strfmt("%016" PRIx64, fnv1a(line.data(), at))) != 0)
        return false;
    record = line.substr(0, at);
    return true;
}

std::string
sealDocument(const std::string &doc)
{
    return sealRecord(doc) + "\n";
}

bool
unsealDocument(const std::string &text, std::string &doc)
{
    return !text.empty() && text.back() == '\n' &&
           unsealRecord(text.substr(0, text.size() - 1), doc);
}

bool
writeFileAtomic(const std::string &path, const std::string &text)
{
    static std::atomic<std::uint64_t> writes{0};
    const std::string tmp =
        path + strfmt(".tmp.%016" PRIx64,
                      Fnv1a()
                          .str(path)
                          .u64(static_cast<std::uint64_t>(::getpid()))
                          .u64(writes.fetch_add(1))
                          .value());
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("cannot write '%s': %s", tmp.c_str(), std::strerror(errno));
        return false;
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !ok ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot persist '%s': %s", path.c_str(),
             std::strerror(errno));
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace jrpm

/**
 * @file
 * Whitespace-token reader shared by the two checksummed text formats
 * (crystal repository entries and forge corpus entries).  Any misparse,
 * including premature end (truncation), latches `fail` and keeps the
 * first message in `what`; later reads return zero values.
 */

#ifndef JRPM_COMMON_TOKEN_READER_HH
#define JRPM_COMMON_TOKEN_READER_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "common/stats.hh"

namespace jrpm
{

class TokenReader
{
  public:
    explicit TokenReader(const std::string &text) : in(text) {}

    bool fail = false;
    std::string what;

    std::string
    word()
    {
        std::string t;
        if (fail || !(in >> t))
            err("unexpected end of entry");
        return t;
    }

    /** Consume a fixed keyword token. */
    void
    expect(const char *kw)
    {
        const std::string t = word();
        if (!fail && t != kw)
            err(strfmt("expected '%s', got '%s'", kw, t.c_str()));
    }

    std::uint64_t
    u64()
    {
        const std::string t = word();
        if (fail)
            return 0;
        errno = 0;
        char *end = nullptr;
        const std::uint64_t v = std::strtoull(t.c_str(), &end, 0);
        if (errno || end == t.c_str() || *end)
            err("bad integer '" + t + "'");
        return v;
    }

    std::int64_t
    i64()
    {
        const std::string t = word();
        if (fail)
            return 0;
        errno = 0;
        char *end = nullptr;
        const std::int64_t v = std::strtoll(t.c_str(), &end, 0);
        if (errno || end == t.c_str() || *end)
            err("bad integer '" + t + "'");
        return v;
    }

    double
    f64()
    {
        const std::string t = word();
        if (fail)
            return 0;
        errno = 0;
        char *end = nullptr;
        const double v = std::strtod(t.c_str(), &end);
        if (errno || end == t.c_str() || *end)
            err("bad float '" + t + "'");
        return v;
    }

    bool
    b()
    {
        const std::uint64_t v = u64();
        if (!fail && v > 1)
            err("bad bool");
        return v == 1;
    }

    /** "stat <name> <count> <sum> <mean> <m2> <min> <max>". */
    SampleStat
    stat(const char *name)
    {
        expect("stat");
        expect(name);
        const std::uint64_t count = u64();
        const double sum = f64(), mean = f64(), m2 = f64(),
                     mn = f64(), mx = f64();
        if (fail)
            return {};
        return SampleStat::fromRaw(count, sum, mean, m2, mn, mx);
    }

    /** Length-prefixed string: "<len> <bytes...>". */
    std::string
    lstr()
    {
        const std::uint64_t n = u64();
        if (fail)
            return {};
        if (n > (1u << 20)) {
            err("string too long");
            return {};
        }
        in.get(); // the single separating space
        std::string s(n, '\0');
        in.read(s.data(), static_cast<std::streamsize>(n));
        if (in.gcount() != static_cast<std::streamsize>(n)) {
            err("truncated string");
            return {};
        }
        return s;
    }

  private:
    void
    err(const std::string &msg)
    {
        if (!fail)
            what = msg;
        fail = true;
    }

    std::istringstream in;
};

} // namespace jrpm

#endif // JRPM_COMMON_TOKEN_READER_HH

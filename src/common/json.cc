#include "json.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace jrpm
{

namespace
{

/** Bounded recursive-descent parser (see JsonLimits). */
class JsonParser
{
  public:
    JsonParser(const std::string &text, const JsonLimits &lim)
        : s(text), limits(lim)
    {
    }

    bool
    parse(JsonValue &out, std::string *err)
    {
        const bool ok = s.size() > limits.maxBytes
                            ? error("input exceeds byte budget")
                            : value(out) && (skipWs(), pos == s.size());
        if (!ok && err)
            *err = fail.empty()
                       ? strfmt("trailing garbage at byte %zu", pos)
                       : fail;
        return ok;
    }

  private:
    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    error(const char *what)
    {
        if (fail.empty())
            fail = strfmt("%s at byte %zu", what, pos);
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (s.compare(pos, n, word) != 0)
            return error("bad literal");
        pos += n;
        return true;
    }

    /** Exactly four hex digits of a \\u escape. */
    bool
    hex4(std::uint32_t &cp)
    {
        if (pos + 4 > s.size())
            return error("short \\u escape");
        const char *first = s.data() + pos;
        const auto r = std::from_chars(first, first + 4, cp, 16);
        if (r.ec != std::errc() || r.ptr != first + 4)
            return error("bad hex digit in \\u escape");
        pos += 4;
        return true;
    }

    static void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
            return;
        }
        const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        out += static_cast<char>((0xf0 << (3 - tail) & 0xff) |
                                 cp >> (6 * tail));
        for (int i = tail - 1; i >= 0; --i)
            out += static_cast<char>(0x80 | (cp >> (6 * i) & 0x3f));
    }

    bool
    string(std::string &out)
    {
        if (pos >= s.size() || s[pos] != '"')
            return error("expected string");
        ++pos;
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= s.size())
                return error("dangling escape");
            const char e = s[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'u': {
                std::uint32_t cp;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // A high surrogate must pair with a low one.
                    std::uint32_t lo;
                    if (s.compare(pos, 2, "\\u") != 0)
                        return error("lone surrogate in \\u escape");
                    pos += 2;
                    if (!hex4(lo))
                        return false;
                    if (lo < 0xdc00 || lo > 0xdfff)
                        return error("lone surrogate in \\u escape");
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    return error("lone surrogate in \\u escape");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return error("unknown escape");
            }
        }
        if (pos >= s.size())
            return error("unterminated string");
        ++pos; // closing quote
        return true;
    }

    /** Decrements the container depth on scope exit, whatever path
     *  value() returns through. */
    struct DepthGuard
    {
        std::uint32_t &depth;
        explicit DepthGuard(std::uint32_t &d) : depth(++d) {}
        ~DepthGuard() { --depth; }
    };

    bool
    value(JsonValue &out)
    {
        skipWs();
        if (pos >= s.size())
            return error("unexpected end of input");
        const char c = s[pos];
        if ((c == '{' || c == '[') && depth >= limits.maxDepth)
            return error("nesting too deep");
        if (c == '{') {
            DepthGuard guard(depth);
            ++pos;
            out.kind = JsonValue::Kind::Object;
            skipWs();
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!string(key))
                    return false;
                skipWs();
                if (pos >= s.size() || s[pos] != ':')
                    return error("expected ':'");
                ++pos;
                // A repeated member would merge into the first (a
                // string appends, an array grows), so it is refused.
                const auto [member, fresh] = out.fields.try_emplace(key);
                if (!fresh)
                    return error(
                        strfmt("duplicate member '%s'", key.c_str()).c_str());
                if (!value(member->second))
                    return false;
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == '}') {
                    ++pos;
                    return true;
                }
                return error("expected ',' or '}'");
            }
        }
        if (c == '[') {
            DepthGuard guard(depth);
            ++pos;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            for (;;) {
                out.items.emplace_back();
                if (!value(out.items.back()))
                    return false;
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == ']') {
                    ++pos;
                    return true;
                }
                return error("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return string(out.str);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::Bool;
            out.b = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.b = false;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            // Validate against the strict JSON number grammar
            // before handing the span to strtod: strtod alone also
            // accepts hex ("0x10"), "inf"/"nan" and leading zeros,
            // none of which reportJson() ever emits and none of
            // which a wire peer may smuggle in.
            const std::size_t start = pos;
            std::size_t p = pos;
            auto digits = [&]() {
                const std::size_t d0 = p;
                while (p < s.size() && s[p] >= '0' && s[p] <= '9')
                    ++p;
                return p > d0;
            };
            if (s[p] == '-')
                ++p;
            if (p < s.size() && s[p] == '0') {
                ++p; // a leading zero must stand alone
                if (p < s.size() && s[p] >= '0' && s[p] <= '9')
                    return error("leading zero in number");
            } else if (!digits()) {
                return error("bad number");
            }
            if (p < s.size() && s[p] == '.') {
                ++p;
                if (!digits())
                    return error("bad number");
            }
            if (p < s.size() && (s[p] == 'e' || s[p] == 'E')) {
                ++p;
                if (p < s.size() && (s[p] == '+' || s[p] == '-'))
                    ++p;
                if (!digits())
                    return error("bad number");
            }
            char *end = nullptr;
            out.kind = JsonValue::Kind::Number;
            out.num = std::strtod(s.c_str() + start, &end);
            if (end != s.c_str() + p)
                return error("bad number");
            pos = p;
            return true;
        }
        return error("unexpected character");
    }

    const std::string &s;
    const JsonLimits limits;
    std::size_t pos = 0;
    std::uint32_t depth = 0;
    std::string fail;
};

const JsonValue kNullJson;

void
appendEscaped(std::string &out, std::string_view s)
{
    static const char kHex[] = "0123456789abcdef";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += kHex[c >> 4];
                out += kHex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
}

} // namespace

const JsonValue &
JsonValue::operator[](const std::string &key) const
{
    auto it = fields.find(key);
    return it == fields.end() ? kNullJson : it->second;
}

const JsonValue &
JsonValue::at(std::size_t i) const
{
    return i < items.size() ? items[i] : kNullJson;
}

bool
jsonParse(const std::string &text, JsonValue &out, std::string *err,
          const JsonLimits &limits)
{
    out = JsonValue();
    return JsonParser(text, limits).parse(out, err);
}

// ---- strict member reads ----------------------------------------------

bool
jsonIsInteger(const JsonValue &v, std::int64_t lo, std::int64_t hi)
{
    return v.kind == JsonValue::Kind::Number &&
           v.num >= static_cast<double>(lo) &&
           v.num <= static_cast<double>(hi) && v.num == std::trunc(v.num);
}

JsonMembers::JsonMembers(const JsonValue &object, std::string &e)
    : obj(object), err(e)
{
    if (obj.kind != JsonValue::Kind::Object && err.empty())
        err = "expected a JSON object";
}

void
JsonMembers::fail(const char *key, const std::string &what)
{
    if (err.empty())
        err = strfmt("member '%s' %s", key, what.c_str());
}

const JsonValue &
JsonMembers::get(const char *key, JsonValue::Kind kind)
{
    static const char *const kKindNames[] = {
        "null", "a boolean", "a number", "a string", "an array",
        "an object"};
    if (!ok())
        return kNullJson;
    const auto it = obj.fields.find(key);
    if (it == obj.fields.end()) {
        fail(key, "is missing");
        return kNullJson;
    }
    if (it->second.kind != kind) {
        fail(key, strfmt("is not %s", kKindNames[static_cast<int>(kind)]));
        return kNullJson;
    }
    return it->second;
}

double
JsonMembers::number(const char *key)
{
    return get(key, JsonValue::Kind::Number).num;
}

std::int64_t
JsonMembers::integer(const char *key, std::int64_t lo, std::int64_t hi)
{
    const JsonValue &v = get(key, JsonValue::Kind::Number);
    if (ok() && !jsonIsInteger(v, lo, hi))
        fail(key, "is not an integer in range");
    return ok() ? static_cast<std::int64_t>(v.num) : 0;
}

std::vector<std::int64_t>
JsonMembers::integers(const char *key, std::size_t count,
                      std::int64_t lo, std::int64_t hi)
{
    const std::vector<JsonValue> &items = array(key, count);
    if (ok() && items.size() != count)
        fail(key, strfmt("does not hold %zu elements", count));
    std::vector<std::int64_t> out(count, 0);
    for (std::size_t i = 0; ok() && i < count; ++i) {
        if (jsonIsInteger(items[i], lo, hi))
            out[i] = static_cast<std::int64_t>(items[i].num);
        else
            fail(key, "holds an element that is not an integer in range");
    }
    return out;
}

bool
JsonMembers::boolean(const char *key)
{
    return get(key, JsonValue::Kind::Bool).b;
}

std::string
JsonMembers::string(const char *key)
{
    return get(key, JsonValue::Kind::String).str;
}

std::uint64_t
JsonMembers::hex64(const char *key)
{
    const std::string &s = get(key, JsonValue::Kind::String).str;
    std::uint64_t v = 0;
    const char *end = s.data() + s.size();
    const auto r = std::from_chars(s.data(), end, v, 16);
    if (ok() && (s.size() != 16 || r.ec != std::errc() || r.ptr != end))
        fail(key, "is not 16 hex digits");
    return ok() ? v : 0;
}

const std::vector<JsonValue> &
JsonMembers::array(const char *key, std::size_t max_items)
{
    const JsonValue &a = get(key, JsonValue::Kind::Array);
    if (a.items.size() > max_items)
        fail(key, strfmt("has more than %zu elements", max_items));
    return ok() ? a.items : kNullJson.items;
}

JsonMembers
JsonMembers::object(const char *key)
{
    return JsonMembers(get(key, JsonValue::Kind::Object), err);
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

// ---- writer -----------------------------------------------------------

void
JsonWriter::separate()
{
    if (afterKey) {
        afterKey = false;
        return;
    }
    if (comma)
        out += ',';
    if (!stack.empty() && stack.back() == Layout::Lines)
        out += '\n';
}

JsonWriter &
JsonWriter::open(char bracket, Layout layout)
{
    separate();
    out += bracket;
    stack.push_back(layout);
    comma = false;
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    if (stack.back() == Layout::Lines)
        out += '\n';
    stack.pop_back();
    out += bracket;
    comma = true;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    separate();
    out += '"';
    appendEscaped(out, k);
    out += "\":";
    afterKey = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    separate();
    out += '"';
    appendEscaped(out, s);
    out += '"';
    comma = true;
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view json)
{
    separate();
    out += json;
    comma = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double v, int digits)
{
    return raw(strfmt("%.*g", digits, v));
}

JsonWriter &
JsonWriter::fixed(double v, int decimals)
{
    return raw(strfmt("%.*f", decimals, v));
}

} // namespace jrpm

/**
 * @file
 * The one JSON implementation every machine-readable output uses: a
 * streaming writer for reports, wire records, traces and metric dumps,
 * and a bounded parser to read them (and untrusted peers) back.
 */

#ifndef JRPM_COMMON_JSON_HH
#define JRPM_COMMON_JSON_HH

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jrpm
{

/**
 * A parsed JSON value, so exported reports can be read back and
 * asserted on (round-trip tests, replay tooling) without an external
 * dependency: null, bool, double numbers, strings, arrays, objects.
 */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    bool isNull() const { return kind == Kind::Null; }
    bool boolean() const { return kind == Kind::Bool && b; }
    double number() const { return kind == Kind::Number ? num : 0.0; }

    /** Object member lookup; a shared Null value when absent. */
    const JsonValue &operator[](const std::string &key) const;
    /** Array element; a shared Null value when out of range. */
    const JsonValue &at(std::size_t i) const;
};

/**
 * Defensive bounds on what jsonParse() will accept.  Campaign
 * manifests and analytics files are parsed back after crashes, so a
 * corrupt file must fail cleanly instead of exhausting the stack
 * (deep nesting recurses) or memory (unbounded input).
 */
struct JsonLimits
{
    /** Reject documents larger than this before parsing anything. */
    std::size_t maxBytes = 64u << 20;
    /** Maximum container ([ / {) nesting depth. */
    std::uint32_t maxDepth = 192;
};

/** Parse one JSON document.  @return false (and *err) on malformed
 *  input, including trailing garbage, over-deep nesting and inputs
 *  exceeding @p limits.  \\u escapes decode to UTF-8. */
bool jsonParse(const std::string &text, JsonValue &out,
               std::string *err = nullptr,
               const JsonLimits &limits = {});

/** The largest integer every double between 0 and it holds exactly
 *  (2^53), so the largest a document read back can carry exactly. */
inline constexpr std::int64_t kJsonMaxExactInt = std::int64_t{1} << 53;

/**
 * Strict reads of a parsed object's members, for documents read back
 * from disk.  A member that is absent or of the wrong kind, or a
 * number that is not an integer in the range asked for, is an error,
 * never a zero.  The first error is kept in the string the reader was
 * built with, which readers made by object() share; reads after an
 * error return zero values.
 */
class JsonMembers
{
  public:
    /** Read @p object; an error if it is not an object. */
    JsonMembers(const JsonValue &object, std::string &err);

    bool ok() const { return err.empty(); }

    double number(const char *key);
    /** An integral number in [@p lo, @p hi]. */
    std::int64_t integer(const char *key, std::int64_t lo,
                         std::int64_t hi);
    /** An array of exactly @p count integers in [@p lo, @p hi]. */
    std::vector<std::int64_t> integers(const char *key,
                                       std::size_t count,
                                       std::int64_t lo,
                                       std::int64_t hi);
    bool boolean(const char *key);
    std::string string(const char *key);
    /** Sixteen hex digits in a string: how hashes and seeds are
     *  written (`strfmt("%016" PRIx64, v)`). */
    std::uint64_t hex64(const char *key);
    /** An array of at most @p max_items elements. */
    const std::vector<JsonValue> &array(const char *key,
                                        std::size_t max_items);
    /** A member object, read into the same error. */
    JsonMembers object(const char *key);

  private:
    /** The member, or a null value after recording an error when it
     *  is absent or not of @p kind. */
    const JsonValue &get(const char *key, JsonValue::Kind kind);
    /** Record @p what about member @p key unless an error is kept. */
    void fail(const char *key, const std::string &what);

    const JsonValue &obj;
    std::string &err;
};

/** Escape a string for embedding in a JSON document (quotes not
 *  included). */
std::string jsonEscape(std::string_view s);

/**
 * Streaming JSON writer.  Separators are implicit: key() and every
 * value append the comma their position needs.  Doubles print at an
 * explicit printf precision, so a document keeps its exact bytes.
 */
class JsonWriter
{
  public:
    /** Compact, or one member/element per line with the closing
     *  bracket on a line of its own (also when empty). */
    enum class Layout { Compact, Lines };

    JsonWriter &beginObject(Layout l = Layout::Compact) { return open('{', l); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray(Layout l = Layout::Compact) { return open('[', l); }
    JsonWriter &endArray() { return close(']'); }
    /** Member name; the next call writes its value. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(bool v) { return raw(v ? "true" : "false"); }
    /** An escaped string. */
    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    JsonWriter &
    value(T v)
    {
        char buf[24];
        const auto r = std::to_chars(buf, buf + sizeof(buf), v);
        return raw(std::string_view(buf, r.ptr - buf));
    }
    /** printf("%.*g", digits, v); 17 digits round-trip a double. */
    JsonWriter &value(double v, int digits = 17);
    /** printf("%.*f", decimals, v). */
    JsonWriter &fixed(double v, int decimals);
    JsonWriter &null() { return raw("null"); }
    /** A value that is already JSON text (a nested document). */
    JsonWriter &raw(std::string_view json);

    /** key(k) then value(args...). */
    template <class... A>
    JsonWriter &
    field(std::string_view k, A &&...args)
    {
        key(k);
        return value(std::forward<A>(args)...);
    }

    std::string take() { return std::move(out); }

  private:
    void separate();
    JsonWriter &open(char bracket, Layout layout);
    JsonWriter &close(char bracket);

    std::string out;
    /** Layout of each open container, innermost last. */
    std::vector<Layout> stack;
    bool comma = false;    ///< a sibling precedes the next item
    bool afterKey = false; ///< the next item is a member's value
};

} // namespace jrpm

#endif // JRPM_COMMON_JSON_HH

/**
 * @file
 * Well-formed but wrong variants of a sealed JSON document, for tests
 * that a reader rejects a missing member or a member of the wrong
 * kind instead of reading it as zero.
 */

#ifndef JRPM_TESTS_MEMBER_MUTANTS_HH
#define JRPM_TESTS_MEMBER_MUTANTS_HH

#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "common/seal.hh"

namespace jrpm
{

/**
 * For every member of every object in the sealed document @p sealed,
 * two resealed copies: one where the member is renamed (so it is
 * missing) and one where it holds a value of another kind (a string
 * for a number or null, else a number) and its old value moves to
 * the renamed key.  Each comes with a label naming the member.
 * Members are found as a `"name":` after `{`, `,` or a newline,
 * which is where JsonWriter puts every key.
 */
inline std::vector<std::pair<std::string, std::string>>
memberMutants(const std::string &sealed)
{
    std::string doc;
    std::vector<std::pair<std::string, std::string>> out;
    if (!unsealDocument(sealed, doc))
        return out;
    for (std::size_t i = 1; i < doc.size(); ++i) {
        const char before = doc[i - 1];
        if (doc[i] != '"' ||
            (before != '{' && before != ',' && before != '\n'))
            continue;
        const std::size_t close = doc.find('"', i + 1);
        if (close == std::string::npos || close + 1 >= doc.size() ||
            doc[close + 1] != ':')
            continue;
        const std::string name = doc.substr(i + 1, close - i - 1);
        const std::size_t at = close + 2; // the value's first byte
        const char v = doc[at];
        const bool scalarNumberOrNull =
            v == '-' || v == 'n' ||
            std::isdigit(static_cast<unsigned char>(v));
        std::string missing = doc;
        missing.insert(close, "_");
        std::string mistyped = doc;
        mistyped.insert(at, std::string(scalarNumberOrNull ? "\"x\"" : "0") +
                                ",\"" + name + "_\":");
        out.emplace_back(name + " missing", sealDocument(missing));
        out.emplace_back(name + " mistyped", sealDocument(mistyped));
    }
    return out;
}

} // namespace jrpm

#endif // JRPM_TESTS_MEMBER_MUTANTS_HH

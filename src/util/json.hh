/**
 * @file
 * The repository's one JSON reader (plus the two writer helpers every
 * emitter shares).  It parses RFC 8259 text into a JsonValue tree;
 * numbers keep their literal text, so a consumer converts them with
 * jsonToU64 (exact, range-checked) or jsonToDouble (finite only) and
 * an integer never takes a lossy trip through double.  Duplicate
 * object keys and nesting deeper than jsonMaxDepth are rejected.
 */

#ifndef SECUREDIMM_UTIL_JSON_HH
#define SECUREDIMM_UTIL_JSON_HH

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace secdimm::util
{

/** One parsed JSON value. */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };
    Type type = Type::Null;
    bool boolean = false;
    /** String contents, or a number's literal text. */
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;
};

/** Deepest array/object nesting parseJson() accepts. */
inline constexpr unsigned jsonMaxDepth = 128;

/**
 * Parse one JSON document (surrounding whitespace allowed).  Returns
 * nullopt with a one-line reason in @p error (when non-null) on
 * malformed text.
 */
std::optional<JsonValue> parseJson(const std::string &text,
                                   std::string *error = nullptr);

/** Serialize @p v compactly; parseJson(dumpJson(v)) reproduces it. */
std::string dumpJson(const JsonValue &v);

/**
 * Exact non-negative integer no larger than @p max, written as plain
 * digits.  False for a non-number, a sign, a fraction or exponent, or
 * a value above @p max.
 */
bool jsonToU64(const JsonValue &v, std::uint64_t &out,
               std::uint64_t max =
                   std::numeric_limits<std::uint64_t>::max());

/** A finite number; false for a non-number or one outside double. */
bool jsonToDouble(const JsonValue &v, double &out);

/** Format a double as MetricsRegistry::toJson() does (round-trippable). */
std::string jsonNumber(double v);

/** Escape a string for embedding in JSON (quotes included). */
std::string jsonQuote(const std::string &s);

} // namespace secdimm::util

#endif // SECUREDIMM_UTIL_JSON_HH

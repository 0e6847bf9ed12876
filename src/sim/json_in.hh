/**
 * @file
 * A minimal recursive-descent JSON parser producing a DOM value —
 * the read side of sim/json.hh, used by shrimp_analyze and the
 * report-schema validator. No external dependencies.
 *
 * Scope: everything the RunReport writer and the causal log emit
 * (objects, arrays, strings with the writer's escape set plus
 * \uXXXX, numbers, booleans, null). Duplicate keys keep the last value but are not
 * rejected; key order is preserved.
 */

#ifndef SHRIMP_SIM_JSON_IN_HH
#define SHRIMP_SIM_JSON_IN_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace shrimp
{

/** One parsed JSON value. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup (objects only); nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    /** find() + isNumber(), defaulting to @p fallback. */
    double numberOr(const std::string &key, double fallback) const;
};

/**
 * Parse exactly one JSON document from @p text (trailing whitespace
 * allowed, anything else is an error). On failure returns false and
 * puts a byte-offset message into @p err (if non-null).
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *err = nullptr);

} // namespace shrimp

#endif // SHRIMP_SIM_JSON_IN_HH

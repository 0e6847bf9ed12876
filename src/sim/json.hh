/**
 * @file
 * A minimal streaming JSON writer with deterministic output.
 *
 * Every number is formatted the same way on every run (std::to_chars
 * shortest round-trip for doubles, decimal for integers), and callers
 * control key order, so two identical simulation runs serialize to
 * byte-identical documents — the property the RunReport stability
 * guarantee rests on.
 */

#ifndef SHRIMP_SIM_JSON_HH
#define SHRIMP_SIM_JSON_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

namespace shrimp
{

/**
 * Streaming writer for one JSON document.
 *
 * Usage: begin/end calls must nest properly; field() emits a key/value
 * pair inside an object, value() an element inside an array. In pretty
 * mode the output is indented two spaces per level; in compact mode it
 * is a single line (for JSONL sinks).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, bool pretty = true)
        : os(os), pretty(pretty)
    {
    }

    // --- structure -----------------------------------------------------

    void
    beginObject()
    {
        element();
        os << '{';
        stack.push_back(0);
    }

    void
    beginObject(const std::string &key)
    {
        keyPrefix(key);
        os << '{';
        stack.push_back(0);
    }

    void
    endObject()
    {
        closeLevel('}');
    }

    void
    beginArray()
    {
        element();
        os << '[';
        stack.push_back(0);
    }

    void
    beginArray(const std::string &key)
    {
        keyPrefix(key);
        os << '[';
        stack.push_back(0);
    }

    void
    endArray()
    {
        closeLevel(']');
    }

    // --- object fields -------------------------------------------------

    void
    field(const std::string &key, const std::string &v)
    {
        keyPrefix(key);
        quoted(v);
    }

    void
    field(const std::string &key, const char *v)
    {
        field(key, std::string(v));
    }

    void
    field(const std::string &key, double v)
    {
        keyPrefix(key);
        number(v);
    }

    void
    field(const std::string &key, std::uint64_t v)
    {
        keyPrefix(key);
        os << v;
    }

    void
    field(const std::string &key, int v)
    {
        keyPrefix(key);
        os << v;
    }

    void
    field(const std::string &key, bool v)
    {
        keyPrefix(key);
        os << (v ? "true" : "false");
    }

    // --- array values --------------------------------------------------

    void
    value(const std::string &v)
    {
        element();
        quoted(v);
    }

    void
    value(double v)
    {
        element();
        number(v);
    }

    void
    value(std::uint64_t v)
    {
        element();
        os << v;
    }

    void
    value(int v)
    {
        element();
        os << v;
    }

    /** Escape @p s into a quoted JSON string literal. */
    static std::string
    escaped(const std::string &s)
    {
        std::string out;
        out.reserve(s.size() + 2);
        for (char c : s) {
            switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
            }
        }
        return out;
    }

    /** @p v in the shortest form that reads back as @p v. */
    static std::string
    numberText(double v)
    {
        char buf[64];
        auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
        (void)ec;
        return std::string(buf, end);
    }

  private:
    void
    element()
    {
        if (!stack.empty()) {
            if (stack.back()++)
                os << ',';
            newline();
        }
    }

    void
    keyPrefix(const std::string &key)
    {
        element();
        quoted(key);
        os << (pretty ? ": " : ":");
    }

    void
    closeLevel(char c)
    {
        bool had_elements = !stack.empty() && stack.back() > 0;
        stack.pop_back();
        if (had_elements)
            newline();
        os << c;
    }

    void
    newline()
    {
        if (!pretty)
            return;
        os << '\n';
        for (std::size_t i = 0; i < stack.size(); ++i)
            os << "  ";
    }

    void
    quoted(const std::string &s)
    {
        os << '"' << escaped(s) << '"';
    }

    void
    number(double v)
    {
        os << numberText(v);
    }

    std::ostream &os;
    bool pretty;
    std::vector<int> stack; //!< element count per open level
};

} // namespace shrimp

#endif // SHRIMP_SIM_JSON_HH

#include "util/json.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace secdimm::util
{

namespace
{

/** Recursive-descent parser over RFC 8259 JSON. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    std::optional<JsonValue>
    parse(std::string *error)
    {
        JsonValue v;
        if (!value(v, 0) || (skipWs(), pos_ != s_.size())) {
            if (error)
                *error = "JSON parse error near offset " +
                         std::to_string(pos_);
            return std::nullopt;
        }
        return v;
    }

  private:
    bool more() const { return pos_ < s_.size(); }

    void
    skipWs()
    {
        while (more() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                          s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (!more() || s_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    literal(const std::string &lit)
    {
        if (s_.compare(pos_, lit.size(), lit) != 0)
            return false;
        pos_ += lit.size();
        return true;
    }

    bool
    value(JsonValue &out, unsigned depth)
    {
        skipWs();
        if (!more())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object(out, depth + 1);
          case '[':
            return array(out, depth + 1);
          case '"':
            out.type = JsonValue::Type::String;
            return string(out.str);
          case 't':
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.type = JsonValue::Type::Bool;
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number(out);
        }
    }

    bool
    digits()
    {
        const std::size_t start = pos_;
        while (more() && s_[pos_] >= '0' && s_[pos_] <= '9')
            ++pos_;
        return pos_ > start;
    }

    bool
    number(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (more() && s_[pos_] == '-')
            ++pos_;
        if (more() && s_[pos_] == '0')
            ++pos_;
        else if (!digits())
            return false;
        if (more() && s_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (more() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (more() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return false;
        }
        out.type = JsonValue::Type::Number;
        out.str = s_.substr(start, pos_ - start);
        return true;
    }

    bool
    hex4(unsigned &cp)
    {
        const char *begin = s_.data() + pos_;
        const char *end = begin + std::min<std::size_t>(4, s_.size() - pos_);
        const auto [last, ec] = std::from_chars(begin, end, cp, 16);
        pos_ += static_cast<std::size_t>(last - begin);
        return ec == std::errc() && last - begin == 4;
    }

    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        static const unsigned char lead[] = {0x00, 0xc0, 0xe0, 0xf0};
        const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        out += static_cast<char>(lead[tail] | (cp >> (6 * tail)));
        for (int i = tail - 1; i >= 0; --i)
            out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3f));
    }

    /** A \\u escape after the 'u': one code point or a surrogate pair. */
    bool
    unicodeEscape(std::string &out)
    {
        unsigned cp = 0;
        if (!hex4(cp) || (cp >= 0xdc00 && cp < 0xe000))
            return false;
        if (cp >= 0xd800 && cp < 0xdc00) {
            unsigned lo = 0;
            if (!literal("\\u") || !hex4(lo) || lo < 0xdc00 || lo >= 0xe000)
                return false;
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
        }
        appendUtf8(out, cp);
        return true;
    }

    bool
    string(std::string &out)
    {
        ++pos_; // Opening quote.
        out.clear();
        while (more()) {
            const char c = s_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // Raw control characters must be escaped.
            if (c != '\\') {
                out += c;
                continue;
            }
            if (!more())
                return false;
            switch (s_[pos_++]) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u':
                if (!unicodeEscape(out))
                    return false;
                break;
              default:
                return false;
            }
        }
        return false;
    }

    bool
    array(JsonValue &out, unsigned depth)
    {
        if (depth > jsonMaxDepth)
            return false;
        ++pos_; // '['
        out.type = JsonValue::Type::Array;
        if (eat(']'))
            return true;
        do {
            JsonValue elem;
            if (!value(elem, depth))
                return false;
            out.array.push_back(std::move(elem));
        } while (eat(','));
        return eat(']');
    }

    bool
    object(JsonValue &out, unsigned depth)
    {
        if (depth > jsonMaxDepth)
            return false;
        ++pos_; // '{'
        out.type = JsonValue::Type::Object;
        if (eat('}'))
            return true;
        do {
            std::string key;
            skipWs();
            if (!more() || s_[pos_] != '"' || !string(key) || !eat(':'))
                return false;
            JsonValue val;
            if (!value(val, depth) ||
                !out.object.emplace(std::move(key), std::move(val)).second)
                return false; // Malformed value or duplicate key.
        } while (eat(','));
        return eat('}');
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

void
dumpTo(const JsonValue &v, std::string &out)
{
    switch (v.type) {
      case JsonValue::Type::Null:
        out += "null";
        break;
      case JsonValue::Type::Bool:
        out += v.boolean ? "true" : "false";
        break;
      case JsonValue::Type::Number:
        out += v.str;
        break;
      case JsonValue::Type::String:
        out += jsonQuote(v.str);
        break;
      case JsonValue::Type::Array:
        out += '[';
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            if (i)
                out += ',';
            dumpTo(v.array[i], out);
        }
        out += ']';
        break;
      case JsonValue::Type::Object: {
        out += '{';
        bool first = true;
        for (const auto &[key, val] : v.object) {
            if (!first)
                out += ',';
            first = false;
            out += jsonQuote(key);
            out += ':';
            dumpTo(val, out);
        }
        out += '}';
        break;
      }
    }
}

} // namespace

std::optional<JsonValue>
parseJson(const std::string &text, std::string *error)
{
    return Parser(text).parse(error);
}

std::string
dumpJson(const JsonValue &v)
{
    std::string out;
    dumpTo(v, out);
    return out;
}

bool
jsonToU64(const JsonValue &v, std::uint64_t &out, std::uint64_t max)
{
    // Only a plain digit literal is exact; a sign, fraction or
    // exponent is not an unsigned integer field's value.
    if (v.type != JsonValue::Type::Number ||
        v.str.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    const unsigned long long u = std::strtoull(v.str.c_str(), nullptr, 10);
    if (errno == ERANGE || u > max)
        return false;
    out = u;
    return true;
}

bool
jsonToDouble(const JsonValue &v, double &out)
{
    if (v.type != JsonValue::Type::Number)
        return false;
    const double d = std::strtod(v.str.c_str(), nullptr);
    if (!std::isfinite(d))
        return false;
    out = d;
    return true;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    // Integers (common for sums) print without an exponent.
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

} // namespace secdimm::util

#include "common/json_value.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "common/logging.hh"

namespace risc1 {

std::string_view
JsonValue::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Null:
        return "null";
      case Kind::Bool:
        return "bool";
      case Kind::Number:
        return "number";
      case Kind::String:
        return "string";
      case Kind::Array:
        return "array";
      case Kind::Object:
        return "object";
    }
    return "unknown";
}

namespace {

[[noreturn]] void
wrongKind(std::string_view wanted, JsonValue::Kind got)
{
    fatal(cat("json: expected ", wanted, ", got ",
              JsonValue::kindName(got)));
}

} // namespace

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        wrongKind("bool", kind_);
    return bool_;
}

double
JsonValue::asDouble() const
{
    if (kind_ != Kind::Number)
        wrongKind("number", kind_);
    return num_;
}

std::uint64_t
JsonValue::asU64() const
{
    const double d = asDouble();
    // 2^53: beyond this, doubles skip integers and the value on the
    // wire is no longer what the sender meant.
    if (!(d >= 0.0) || d > 9007199254740992.0 || d != std::floor(d))
        fatal(cat("json: expected a non-negative integer, got ", d));
    return static_cast<std::uint64_t>(d);
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        wrongKind("string", kind_);
    return str_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (kind_ != Kind::Array)
        wrongKind("array", kind_);
    return items_;
}

const std::vector<JsonValue::Member> &
JsonValue::members() const
{
    if (kind_ != Kind::Object)
        wrongKind("object", kind_);
    return members_;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

std::string
JsonValue::stringOr(std::string_view key, std::string_view fallback) const
{
    const JsonValue *v = find(key);
    return v ? v->asString() : std::string(fallback);
}

std::uint64_t
JsonValue::u64Or(std::string_view key, std::uint64_t fallback) const
{
    const JsonValue *v = find(key);
    return v ? v->asU64() : fallback;
}

bool
JsonValue::boolOr(std::string_view key, bool fallback) const
{
    const JsonValue *v = find(key);
    return v ? v->asBool() : fallback;
}

/** Recursive-descent parser over a bounded input span. */
class JsonParser
{
  public:
    JsonParser(std::string_view text, unsigned maxDepth)
        : text_(text), maxDepth_(maxDepth)
    {
    }

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue(0);
        skipWs();
        if (pos_ != text_.size())
            err("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    err(std::string_view what) const
    {
        fatal(cat("json parse error at byte ", pos_, ": ", what));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void
    expect(char c)
    {
        if (!consume(c))
            err(cat("expected '", c, "'"));
    }

    void
    expectLiteral(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            err(cat("expected '", word, "'"));
        pos_ += word.size();
    }

    JsonValue
    parseValue(unsigned depth)
    {
        if (depth > maxDepth_)
            err("nesting too deep");
        skipWs();
        switch (peek()) {
          case '{':
            return parseObject(depth);
          case '[':
            return parseArray(depth);
          case '"': {
            JsonValue v(JsonValue::Kind::String);
            v.str_ = parseString();
            return v;
          }
          case 't':
          case 'f': {
            JsonValue v(JsonValue::Kind::Bool);
            v.bool_ = peek() == 't';
            expectLiteral(v.bool_ ? "true" : "false");
            return v;
          }
          case 'n':
            expectLiteral("null");
            return JsonValue{};
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject(unsigned depth)
    {
        expect('{');
        JsonValue obj(JsonValue::Kind::Object);
        auto &members = obj.members_;
        // Key -> position, so a repeated key costs O(1) however many
        // came before.
        std::unordered_map<std::string, std::size_t> index;
        skipWs();
        if (consume('}'))
            return obj;
        while (true) {
            skipWs();
            if (peek() != '"')
                err("expected object key string");
            std::string key = parseString();
            skipWs();
            expect(':');
            JsonValue value = parseValue(depth + 1);
            const auto [it, fresh] = index.try_emplace(key, members.size());
            if (fresh)
                members.emplace_back(std::move(key), std::move(value));
            else
                members[it->second].second = std::move(value);
            skipWs();
            if (consume(','))
                continue;
            expect('}');
            return obj;
        }
    }

    JsonValue
    parseArray(unsigned depth)
    {
        expect('[');
        JsonValue arr(JsonValue::Kind::Array);
        skipWs();
        if (consume(']'))
            return arr;
        while (true) {
            arr.items_.push_back(parseValue(depth + 1));
            skipWs();
            if (consume(','))
                continue;
            expect(']');
            return arr;
        }
    }

    unsigned
    hexDigit()
    {
        const char c = peek();
        ++pos_;
        if (c >= '0' && c <= '9')
            return unsigned(c - '0');
        if (c >= 'a' && c <= 'f')
            return unsigned(c - 'a') + 10;
        if (c >= 'A' && c <= 'F')
            return unsigned(c - 'A') + 10;
        --pos_;
        err("bad \\u escape digit");
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out.push_back(char(cp));
        } else if (cp < 0x800) {
            out.push_back(char(0xc0 | (cp >> 6)));
            out.push_back(char(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(char(0xe0 | (cp >> 12)));
            out.push_back(char(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(char(0x80 | (cp & 0x3f)));
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                err("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                err("unescaped control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                err("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
                out.push_back('"');
                break;
              case '\\':
                out.push_back('\\');
                break;
              case '/':
                out.push_back('/');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    err("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i)
                    cp = (cp << 4) | hexDigit();
                // Surrogate pairs collapse to '?' — the protocol never
                // sends astral-plane text; refusing keeps us simple
                // without making hostile input fatal.
                if (cp >= 0xd800 && cp <= 0xdfff)
                    out.push_back('?');
                else
                    appendUtf8(out, cp);
                break;
              }
              default:
                err("bad escape character");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        consume('-');
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            err("expected a value");
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (consume('.')) {
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                err("expected digits after decimal point");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                err("expected exponent digits");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        const std::string token(text_.substr(start, pos_ - start));
        errno = 0;
        char *end = nullptr;
        const double d = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size() || errno == ERANGE)
            err(cat("bad number '", token, "'"));
        JsonValue v(JsonValue::Kind::Number);
        v.num_ = d;
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    unsigned maxDepth_;
};

JsonValue
parseJson(std::string_view text, unsigned maxDepth)
{
    return JsonParser(text, maxDepth).parseDocument();
}

} // namespace risc1

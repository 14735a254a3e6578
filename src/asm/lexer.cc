#include "asm/lexer.hh"

#include <string_view>

#include "common/logging.hh"

namespace risc1 {

namespace {

// ASCII classes: the "C" locale's isalpha/isalnum/isdigit, inlined.
bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isIdentStart(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == '.';
}

bool
isIdentBody(char c)
{
    return isIdentStart(c) || isDigit(c);
}

char
unescape(char c, int line)
{
    switch (c) {
      case 'n': return '\n';
      case 't': return '\t';
      case 'r': return '\r';
      case '0': return '\0';
      case '\\': return '\\';
      case '"': return '"';
      case '\'': return '\'';
      default:
        fatal(cat("line ", line, ": unknown escape '\\", c, "'"));
    }
}

} // namespace

std::vector<Token>
lex(const std::string &source)
{
    // Generated and hand-written sources run 4 to 6 bytes a token, so
    // this is one allocation for nearly every source.
    std::vector<Token> tokens;
    tokens.reserve(source.size() / 4 + 2);
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = source.size();

    auto push = [&](TokKind kind, std::string_view text = {},
                    std::int64_t value = 0) {
        Token &tok = tokens.emplace_back();
        tok.kind = kind;
        tok.text = text;
        tok.value = value;
        tok.line = line;
    };

    while (i < n) {
        const char c = source[i];
        if (c == '\n') {
            push(TokKind::Newline);
            ++line;
            ++i;
        } else if (c == ' ' || c == '\t' || c == '\r') {
            ++i;
        } else if (c == ';') {
            while (i < n && source[i] != '\n')
                ++i;
        } else if (isIdentStart(c)) {
            std::size_t j = i + 1;
            while (j < n && isIdentBody(source[j]))
                ++j;
            push(TokKind::Ident, std::string_view(source).substr(i, j - i));
            i = j;
        } else if (isDigit(c)) {
            std::size_t j = i;
            int base = 10;
            if (c == '0' && j + 1 < n &&
                (source[j + 1] == 'x' || source[j + 1] == 'X')) {
                base = 16;
                j += 2;
            } else if (c == '0' && j + 1 < n &&
                       (source[j + 1] == 'b' || source[j + 1] == 'B')) {
                base = 2;
                j += 2;
            }
            const std::size_t digitsStart = j;
            std::int64_t value = 0;
            while (j < n) {
                const char d = source[j];
                int dv;
                if (d >= '0' && d <= '9')
                    dv = d - '0';
                else if (base == 16 && d >= 'a' && d <= 'f')
                    dv = d - 'a' + 10;
                else if (base == 16 && d >= 'A' && d <= 'F')
                    dv = d - 'A' + 10;
                else
                    break;
                if (dv >= base)
                    fatal(cat("line ", line, ": bad digit '", d,
                              "' for base ", base));
                value = value * base + dv;
                ++j;
            }
            if (j == digitsStart)
                fatal(cat("line ", line, ": number with no digits"));
            push(TokKind::Number, std::string_view(source).substr(i, j - i), value);
            i = j;
        } else if (c == '\'') {
            if (i + 2 >= n)
                fatal(cat("line ", line, ": unterminated char literal"));
            char v = source[i + 1];
            std::size_t j = i + 2;
            if (v == '\\') {
                v = unescape(source[i + 2], line);
                j = i + 3;
            }
            if (j >= n || source[j] != '\'')
                fatal(cat("line ", line, ": unterminated char literal"));
            push(TokKind::Number, std::string_view(&v, 1), v);
            i = j + 1;
        } else if (c == '"') {
            std::string text;
            std::size_t j = i + 1;
            while (j < n && source[j] != '"') {
                if (source[j] == '\n')
                    fatal(cat("line ", line, ": unterminated string"));
                if (source[j] == '\\' && j + 1 < n) {
                    text.push_back(unescape(source[j + 1], line));
                    j += 2;
                } else {
                    text.push_back(source[j]);
                    ++j;
                }
            }
            if (j >= n)
                fatal(cat("line ", line, ": unterminated string"));
            push(TokKind::Str, text);
            i = j + 1;
        } else {
            TokKind kind;
            switch (c) {
              case ',': kind = TokKind::Comma; break;
              case ':': kind = TokKind::Colon; break;
              case '(': kind = TokKind::LParen; break;
              case ')': kind = TokKind::RParen; break;
              case '+': kind = TokKind::Plus; break;
              case '-': kind = TokKind::Minus; break;
              case '#': kind = TokKind::Hash; break;
              case '@': kind = TokKind::At; break;
              case '*': kind = TokKind::Star; break;
              default:
                fatal(cat("line ", line, ": unexpected character '", c,
                          "'"));
            }
            push(kind, std::string_view(&source[i], 1));
            ++i;
        }
    }
    push(TokKind::Newline);
    push(TokKind::End);
    return tokens;
}

} // namespace risc1

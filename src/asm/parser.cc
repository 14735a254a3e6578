#include "asm/parser.hh"

#include <cctype>

#include "common/logging.hh"

namespace risc1 {

Expr
Expr::constant(std::int64_t value)
{
    Expr e;
    Term t;
    t.number = value;
    e.terms.push_back(t);
    return e;
}

std::optional<std::int64_t>
Expr::tryEval(const std::map<std::string, std::uint32_t> &symbols,
              std::uint32_t dot) const
{
    std::int64_t value = 0;
    for (const auto &t : terms) {
        std::int64_t term = t.number;
        if (t.isDot) {
            term = dot;
        } else if (t.isSymbol) {
            const auto it = symbols.find(t.symbol);
            if (it == symbols.end())
                return std::nullopt;
            term = it->second;
        }
        value += t.sign * term;
    }
    return value;
}

std::int64_t
Expr::eval(const std::map<std::string, std::uint32_t> &symbols,
           std::uint32_t dot, int line) const
{
    if (const auto value = tryEval(symbols, dot))
        return *value;
    for (const auto &t : terms)
        if (t.isSymbol && !symbols.contains(t.symbol))
            fatal(cat(line > 0 ? cat("line ", line, ": ") : "",
                      "undefined symbol '", t.symbol, "'"));
    panic("expression neither resolves nor names an undefined symbol");
}

std::optional<std::string>
Expr::asBareSymbol() const
{
    if (terms.size() == 1 && terms[0].isSymbol && terms[0].sign == 1)
        return terms[0].symbol;
    return std::nullopt;
}

const Token &
TokenCursor::expect(TokKind kind, const char *what)
{
    if (peek().kind != kind)
        fatal(cat("line ", peek().line, ": expected ", what, ", got '",
                  peek().text, "'"));
    return get();
}

bool
TokenCursor::accept(TokKind kind)
{
    if (peek().kind == kind) {
        get();
        return true;
    }
    return false;
}

bool
TokenCursor::skipNewlines()
{
    while (peek().kind == TokKind::Newline)
        get();
    return !atEnd();
}

Expr
TokenCursor::parseExpr()
{
    Expr expr;
    int sign = 1;
    bool first = true;
    for (;;) {
        // Optional leading signs (also between terms).
        while (peek().kind == TokKind::Minus ||
               peek().kind == TokKind::Plus) {
            if (get().kind == TokKind::Minus)
                sign = -sign;
        }
        Expr::Term term;
        term.sign = sign;
        const Token &tok = peek();
        if (tok.kind == TokKind::Number) {
            term.number = get().value;
        } else if (tok.kind == TokKind::Ident) {
            if (tok.text == ".") {
                term.isDot = true;
            } else {
                term.isSymbol = true;
                term.symbol = tok.text;
            }
            get();
        } else {
            if (first)
                fatal(cat("line ", tok.line,
                          ": expected expression, got '", tok.text, "'"));
            fatal(cat("line ", tok.line,
                      ": expected expression term after sign"));
        }
        expr.terms.push_back(std::move(term));
        first = false;

        if (peek().kind == TokKind::Plus ||
            peek().kind == TokKind::Minus) {
            sign = 1;
            continue;
        }
        break;
    }
    return expr;
}

std::optional<unsigned>
parseRegName(const std::string &name)
{
    if (name.size() < 2 || name.size() > 3 ||
        (name[0] != 'r' && name[0] != 'R'))
        return std::nullopt;
    unsigned value = 0;
    for (std::size_t i = 1; i < name.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(name[i])))
            return std::nullopt;
        value = value * 10 + static_cast<unsigned>(name[i] - '0');
    }
    if (value > 31)
        return std::nullopt;
    if (name.size() == 3 && name[1] == '0')
        return std::nullopt; // reject "r01"
    return value;
}

unsigned
parseParenReg(TokenCursor &cur, RegName regName)
{
    cur.expect(TokKind::LParen, "'('");
    const Token &regTok = cur.expect(TokKind::Ident, "register");
    const auto reg = regName(regTok.text);
    if (!reg)
        fatal(cat("line ", regTok.line, ": '", regTok.text,
                  "' is not a register"));
    cur.expect(TokKind::RParen, "')'");
    return *reg;
}

} // namespace risc1

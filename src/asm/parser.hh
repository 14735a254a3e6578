/**
 * @file
 * The operand-level pieces both assemblers parse with: the token
 * cursor, symbolic expressions, and RISC I register names.  The
 * statement loop and the directives are in asm/twopass.hh; each ISA's
 * instruction operand grammar is in its own assembler.
 */

#ifndef RISC1_ASM_PARSER_HH
#define RISC1_ASM_PARSER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "asm/lexer.hh"
#include "common/small_vec.hh"

namespace risc1 {

/**
 * A symbolic additive expression: sum of signed terms, each a number,
 * a symbol, or '.' (the statement's address).
 */
struct Expr
{
    struct Term
    {
        int sign = 1;
        bool isSymbol = false;
        bool isDot = false;
        std::int64_t number = 0;
        std::string symbol;
    };

    /**
     * Most expressions are one term and cost no allocation; a second
     * inline term would make every statement's operands a third
     * larger, and all of a program's statements are live at once.
     */
    SmallVec<Term, 1> terms;

    /** Constant-expression convenience constructor. */
    static Expr constant(std::int64_t value);

    /**
     * The value with @p dot as the value of '.', or nullopt when a
     * symbol is undefined.
     */
    std::optional<std::int64_t>
    tryEval(const std::map<std::string, std::uint32_t> &symbols,
            std::uint32_t dot) const;

    /**
     * Evaluate with @p dot as the value of '.'.
     * @throws FatalError on an undefined symbol, prefixed with
     *         "line <line>: " when @p line is given.
     */
    std::int64_t eval(const std::map<std::string, std::uint32_t> &symbols,
                      std::uint32_t dot, int line = 0) const;

    /** True for an expression that is a single bare symbol. */
    std::optional<std::string> asBareSymbol() const;
};

/**
 * Token cursor with the shared helpers both assemblers use.
 */
class TokenCursor
{
  public:
    explicit TokenCursor(std::vector<Token> tokens)
        : tokens_(std::move(tokens))
    {}

    const Token &peek() const { return tokens_[pos_]; }
    const Token &get() { return tokens_[pos_++]; }
    bool atEnd() const { return peek().kind == TokKind::End; }

    /** True at the end of a line or of the input. */
    bool
    atLineEnd() const
    {
        return peek().kind == TokKind::Newline || atEnd();
    }

    /** Consume a token of @p kind or fail with a message. */
    const Token &expect(TokKind kind, const char *what);

    /** Consume if the next token is of @p kind. */
    bool accept(TokKind kind);

    /** Skip blank lines; false at end of input. */
    bool skipNewlines();

    /** Parse an additive expression (signs, numbers, symbols, '.'). */
    Expr parseExpr();

  private:
    std::vector<Token> tokens_;
    std::size_t pos_ = 0;
};

/** Parse a register name ("r0".."r31"); nullopt when not a register. */
std::optional<unsigned> parseRegName(const std::string &name);

/** An ISA's register-name lookup, such as parseRegName. */
using RegName = std::optional<unsigned> (*)(const std::string &);

/** Parse "(reg)", naming registers with @p regName; fail otherwise. */
unsigned parseParenReg(TokenCursor &cur, RegName regName);

} // namespace risc1

#endif // RISC1_ASM_PARSER_HH

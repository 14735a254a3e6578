/**
 * @file
 * Tokenizer for the RISC I assembly language (shared by the CISC
 * assembler, which layers its own operand syntax on the same tokens).
 *
 * Lexical rules:
 *  - `;` starts a comment running to end of line
 *  - identifiers: [A-Za-z_.][A-Za-z0-9_.]*  (directives start with '.')
 *  - numbers: decimal, 0x hex, 0b binary, 'c' character literals
 *  - punctuation: , : ( ) + - # @ *
 *  - strings: "..." with \n \t \0 \\ \" escapes
 */

#ifndef RISC1_ASM_LEXER_HH
#define RISC1_ASM_LEXER_HH

#include <cstdint>
#include <string>
#include <vector>

namespace risc1 {

/** Token kinds produced by the lexer. */
enum class TokKind : std::uint8_t
{
    Ident,      ///< identifier or directive name
    Number,     ///< integer literal (value in Token::value)
    Str,        ///< string literal (unescaped text in Token::text)
    Comma,
    Colon,
    LParen,
    RParen,
    Plus,
    Minus,
    Hash,       ///< '#' (CISC immediate prefix)
    At,         ///< '@'
    Star,       ///< '*'
    Newline,
    End,
};

/** One token with its source line for error reporting. */
struct Token
{
    // Largest first: 48 bytes, not 56.
    std::string text;
    std::int64_t value = 0;
    int line = 0;
    TokKind kind = TokKind::End;
};

/**
 * Tokenize assembly @p source.
 * @throws FatalError on malformed literals, with the line number.
 */
std::vector<Token> lex(const std::string &source);

} // namespace risc1

#endif // RISC1_ASM_LEXER_HH

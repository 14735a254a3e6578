/**
 * @file
 * The two-pass assembler both ISAs share.
 *
 * Everything about assembly that does not depend on the instruction
 * set is written once here: the statement loop (labels, stacked
 * labels, labels at end of file, trailing junk), the directive
 * operand grammar (a string or an expression), the symbol table and
 * .equ, the location counter and .org, sizing and emission of
 * .word .half .byte .space .align .ascii .asciz, .entry, segment
 * building and entry resolution.
 *
 * An ISA plugs in through a syntax class (RiscSyntax in
 * asm/assembler.cc, VaxSyntax in vax/vassembler.cc) that supplies:
 *
 *     using Operand = ...;                   // one instruction operand
 *     static constexpr std::uint32_t align;  // of instructions and .org
 *     static std::optional<unsigned> regName(const std::string &);
 *     static Operand parseOperand(TokenCursor &);
 *     explicit Syntax(const SymbolTable &);
 *     unsigned size(AsmStmt<Operand> &);     // pass 1, in bytes
 *     unsigned encode(const AsmStmt<Operand> &,
 *                     std::vector<std::uint8_t> &out);  // pass 2
 *
 * Every statement that is not a shared directive belongs to the ISA:
 * its instructions, and any directive of its own (the VAX `.mask`).
 * An ISA directive's operands are in stmt.args, parsed with the
 * shared directive grammar; an instruction's are in stmt.operands.
 * size() sees the symbols defined so far; encode() appends exactly
 * that many bytes and returns how many instructions they hold.  ISA
 * bytes form Code segments, shared-directive bytes Data segments.
 *
 * Rules both ISAs keep: a register name is never a symbol; .org,
 * .space and .align take one expression pass 1 can evaluate, with a
 * non-negative 32-bit value; strings go only where a directive takes
 * strings; no statement reaches past address 0xffffffff.
 */

#ifndef RISC1_ASM_TWOPASS_HH
#define RISC1_ASM_TWOPASS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asm/parser.hh"
#include "common/logging.hh"
#include "common/program.hh"

namespace risc1 {

/** Load address before the first .org. */
inline constexpr std::uint32_t kDefaultOrg = 0x1000;

/** Labels and .equ names. */
using SymbolTable = std::map<std::string, std::uint32_t>;

/** The shared directives; Isa marks a statement the ISA owns. */
enum class Directive : std::uint8_t
{
    Isa,
    Org,
    Equ,
    Entry,
    Word,
    Half,
    Byte,
    Space,
    Align,
    Ascii,
    Asciz,
    Labels,  ///< labels at end of file, bound to the final address
};

/** One operand of a shared directive: a string or an expression. */
struct DirArg
{
    bool isStr = false;
    std::string str;
    Expr expr;
};

/** The ISA-independent part of a statement. */
struct StmtHead
{
    int line = 0;
    std::string mnemonic;             ///< lowercase
    Directive directive = Directive::Isa;
    std::vector<std::string> labels;  ///< bound to this address
    std::vector<DirArg> args;         ///< a directive's operands
    std::uint32_t address = 0;        ///< set in pass 1
    unsigned size = 0;                ///< bytes, set in pass 1
};

/** A statement whose ISA-owned operands are of type @p Op. */
template <typename Op>
struct AsmStmt : StmtHead
{
    std::vector<Op> operands;
};

/** Fail with @p stmt's line number. */
[[noreturn]] void asmError(const StmtHead &stmt, const std::string &msg);

/** Fail on a mnemonic the ISA does not know (directive or not). */
[[noreturn]] void unknownMnemonic(const StmtHead &stmt);

/**
 * Value of @p e in @p stmt, '.' being the statement's address; an
 * undefined symbol fails with the line number.
 */
std::int64_t evalAt(const SymbolTable &symbols, const StmtHead &stmt,
                    const Expr &e);

/**
 * Start a statement from its mnemonic token: line, lowercase
 * mnemonic, directive kind, and the @p labels waiting for it.
 */
void beginStatement(StmtHead &stmt, const Token &mnemonic,
                    std::vector<std::string> &labels);

/**
 * Parse a directive's operands into @p stmt.args; every directive,
 * shared or the ISA's own, uses this grammar.
 */
void parseDirectiveArgs(TokenCursor &cur, StmtHead &stmt);

/** Fail unless the statement ends here; consume nothing. */
void endStatement(const TokenCursor &cur, const StmtHead &stmt);

/** The ISA-independent state and both passes' shared half. */
class AsmCore
{
  public:
    AsmCore(std::uint32_t align, RegName regName)
        : align_(align), regName_(regName)
    {
    }

    /**
     * Pass 1 for @p stmt at location @p addr: apply .org, set the
     * address, bind labels and .equ, and size a shared directive.  An
     * ISA statement must be aligned; its size is the ISA's to set.
     */
    void place(StmtHead &stmt, std::uint32_t addr);

    /** Pass 2 for a shared directive. */
    void emitDirective(const StmtHead &stmt);

    /** Append @p bytes at @p addr, extending the last segment. */
    void emit(std::uint32_t addr, SegmentKind kind,
              const std::vector<std::uint8_t> &bytes);

    /** The finished program: symbols, entry, instruction count. */
    Program finish(std::uint64_t instructions);

    SymbolTable symbols;

  private:
    void define(const StmtHead &stmt, const std::string &name,
                std::uint32_t value);
    std::uint32_t knownU32(const StmtHead &stmt);
    std::int64_t valueOf(const StmtHead &stmt, const DirArg &arg) const;

    std::uint32_t align_;
    RegName regName_;
    std::optional<std::uint32_t> entry_;
    std::vector<std::uint8_t> bytes_;
    Program program_;
};

/** Parse @p source into statements for @p Syntax. */
template <typename Syntax>
std::vector<AsmStmt<typename Syntax::Operand>>
parseStatements(const std::string &source)
{
    TokenCursor cur(lex(source));
    std::vector<AsmStmt<typename Syntax::Operand>> stmts;
    std::vector<std::string> labels;
    while (cur.skipNewlines()) {
        const Token tok = cur.expect(TokKind::Ident, "label or mnemonic");
        if (cur.accept(TokKind::Colon)) {
            labels.push_back(tok.text);
            continue;
        }
        auto &stmt = stmts.emplace_back();
        beginStatement(stmt, tok, labels);
        if (stmt.mnemonic[0] == '.') {
            parseDirectiveArgs(cur, stmt);
        } else if (!cur.atLineEnd()) {
            do
                stmt.operands.push_back(Syntax::parseOperand(cur));
            while (cur.accept(TokKind::Comma));
        }
        endStatement(cur, stmt);
    }
    if (!labels.empty()) {
        auto &stmt = stmts.emplace_back();
        stmt.line = cur.peek().line;
        stmt.directive = Directive::Labels;
        stmt.labels = std::move(labels);
    }
    return stmts;
}

/** Assemble @p source with the ISA @p Syntax. */
template <typename Syntax>
Program
assembleWith(const std::string &source)
{
    auto stmts = parseStatements<Syntax>(source);
    AsmCore core(Syntax::align, Syntax::regName);
    Syntax isa(core.symbols);

    // The location counter is 64-bit, so a program that runs past
    // 0xffffffff fails instead of wrapping to 0.
    constexpr std::uint64_t top = std::uint64_t{1} << 32;
    std::uint64_t addr = kDefaultOrg;
    for (auto &stmt : stmts) {
        if (addr == top && stmt.directive != Directive::Org)
            asmError(stmt, "address past 0xffffffff");
        core.place(stmt, static_cast<std::uint32_t>(addr));
        if (stmt.directive == Directive::Isa)
            stmt.size = isa.size(stmt);
        addr = std::uint64_t{stmt.address} + stmt.size;
        if (addr > top)
            asmError(stmt, "statement ends past 0xffffffff");
    }

    std::uint64_t instructions = 0;
    std::vector<std::uint8_t> bytes;
    for (const auto &stmt : stmts) {
        if (stmt.directive != Directive::Isa) {
            core.emitDirective(stmt);
            continue;
        }
        bytes.clear();
        instructions += isa.encode(stmt, bytes);
        if (bytes.size() != stmt.size)
            panic(cat("line ", stmt.line,
                      ": pass disagreement on statement size"));
        core.emit(stmt.address, SegmentKind::Code, bytes);
    }
    return core.finish(instructions);
}

} // namespace risc1

#endif // RISC1_ASM_TWOPASS_HH

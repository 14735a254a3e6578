#include "asm/twopass.hh"

#include <cctype>
#include <limits>
#include <string_view>

namespace risc1 {

namespace {

Directive
directiveOf(std::string_view m)
{
    static constexpr std::pair<std::string_view, Directive> table[] = {
        {".org", Directive::Org},     {".equ", Directive::Equ},
        {".entry", Directive::Entry}, {".word", Directive::Word},
        {".half", Directive::Half},   {".byte", Directive::Byte},
        {".space", Directive::Space}, {".align", Directive::Align},
        {".ascii", Directive::Ascii}, {".asciz", Directive::Asciz},
    };
    for (const auto &[name, d] : table)
        if (m == name)
            return d;
    return Directive::Isa;
}

void
appendLE(std::vector<std::uint8_t> &out, std::uint64_t v, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

} // namespace

void
asmError(const StmtHead &stmt, const std::string &msg)
{
    fatal(cat("line ", stmt.line, ": ", msg));
}

void
unknownMnemonic(const StmtHead &stmt)
{
    asmError(stmt, cat("unknown ",
                       stmt.mnemonic[0] == '.' ? "directive" : "mnemonic",
                       " '", stmt.mnemonic, "'"));
}

std::int64_t
evalAt(const SymbolTable &symbols, const StmtHead &stmt, const Expr &e)
{
    for (const auto &t : e.terms)
        if (t.isSymbol && !symbols.contains(t.symbol))
            asmError(stmt, cat("undefined symbol '", t.symbol, "'"));
    return e.eval(symbols, stmt.address);
}

void
beginStatement(StmtHead &stmt, const Token &mnemonic,
               std::vector<std::string> &labels)
{
    stmt.line = mnemonic.line;
    stmt.mnemonic = mnemonic.text;
    for (char &c : stmt.mnemonic)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    stmt.directive = directiveOf(stmt.mnemonic);
    stmt.labels = std::exchange(labels, {});
}

void
parseDirectiveArgs(TokenCursor &cur, StmtHead &stmt)
{
    if (cur.atLineEnd())
        return;
    do {
        DirArg &arg = stmt.args.emplace_back();
        if (cur.peek().kind == TokKind::Str) {
            arg.isStr = true;
            arg.str = cur.get().text;
        } else {
            arg.expr = cur.parseExpr();
        }
    } while (cur.accept(TokKind::Comma));
}

void
endStatement(const TokenCursor &cur, const StmtHead &stmt)
{
    if (!cur.atLineEnd())
        asmError(stmt, cat("trailing junk after statement: '",
                           cur.peek().text, "'"));
}

void
AsmCore::define(const StmtHead &stmt, const std::string &name,
                std::uint32_t value)
{
    if (regName_(name))
        asmError(stmt, cat("register name '", name, "' used as a symbol"));
    if (!symbols.emplace(name, value).second)
        asmError(stmt, cat("duplicate symbol '", name, "'"));
}

std::uint32_t
AsmCore::knownU32(const StmtHead &stmt)
{
    if (stmt.args.size() != 1 || stmt.args[0].isStr ||
        !stmt.args[0].expr.resolvable(symbols))
        asmError(stmt, cat(stmt.mnemonic,
                           " needs one expression of symbols defined "
                           "above it"));
    const std::int64_t v = stmt.args[0].expr.eval(symbols, stmt.address);
    if (v < 0 || v > std::numeric_limits<std::uint32_t>::max())
        asmError(stmt, cat(stmt.mnemonic, " value ", v,
                           " is not a non-negative 32-bit value"));
    return static_cast<std::uint32_t>(v);
}

std::int64_t
AsmCore::valueOf(const StmtHead &stmt, const DirArg &arg) const
{
    if (arg.isStr)
        asmError(stmt, cat(stmt.mnemonic, " takes expressions, not "
                                          "strings"));
    return evalAt(symbols, stmt, arg.expr);
}

void
AsmCore::place(StmtHead &stmt, std::uint32_t addr)
{
    stmt.address = addr;
    if (stmt.directive == Directive::Org) {
        stmt.address = knownU32(stmt);
        if (stmt.address % align_ != 0)
            asmError(stmt, cat(".org address must be a multiple of ",
                               align_));
    }
    for (const auto &label : stmt.labels)
        define(stmt, label, stmt.address);

    const auto n = static_cast<unsigned>(stmt.args.size());
    stmt.size = 0;
    switch (stmt.directive) {
      case Directive::Isa:
        if (stmt.address % align_ != 0)
            asmError(stmt, "instruction at unaligned address");
        break;
      case Directive::Equ: {
        if (n != 2)
            asmError(stmt, ".equ takes: name, expression");
        const auto name = stmt.args[0].isStr
                              ? std::nullopt
                              : stmt.args[0].expr.asBareSymbol();
        if (!name)
            asmError(stmt, ".equ first operand must be a name");
        if (stmt.args[1].isStr || !stmt.args[1].expr.resolvable(symbols))
            asmError(stmt, ".equ expression must be resolvable");
        define(stmt, *name,
               static_cast<std::uint32_t>(
                   stmt.args[1].expr.eval(symbols, stmt.address)));
        break;
      }
      case Directive::Word:
        stmt.size = 4 * n;
        break;
      case Directive::Half:
        stmt.size = 2 * n;
        break;
      case Directive::Byte:
        stmt.size = n;
        break;
      case Directive::Space:
        stmt.size = knownU32(stmt);
        break;
      case Directive::Align: {
        const std::uint32_t a = knownU32(stmt);
        if (a == 0 || (a & (a - 1)) != 0)
            asmError(stmt, ".align needs a power of two");
        stmt.size = (a - stmt.address % a) % a;
        break;
      }
      case Directive::Ascii:
      case Directive::Asciz:
        for (const auto &arg : stmt.args) {
            if (!arg.isStr)
                asmError(stmt, cat(stmt.mnemonic,
                                   " takes string operands"));
            stmt.size += static_cast<unsigned>(arg.str.size()) +
                         (stmt.directive == Directive::Asciz ? 1 : 0);
        }
        break;
      case Directive::Org:
      case Directive::Entry:
      case Directive::Labels:
        break;
    }
}

void
AsmCore::emitDirective(const StmtHead &stmt)
{
    bytes_.clear();
    switch (stmt.directive) {
      case Directive::Word:
      case Directive::Half:
      case Directive::Byte: {
        const unsigned width = stmt.directive == Directive::Word   ? 4
                               : stmt.directive == Directive::Half ? 2
                                                                   : 1;
        if (stmt.address % width != 0)
            asmError(stmt, cat(stmt.mnemonic,
                               " at unaligned address (use .align ",
                               width, ")"));
        for (const auto &arg : stmt.args)
            appendLE(bytes_,
                     static_cast<std::uint64_t>(valueOf(stmt, arg)), width);
        break;
      }
      case Directive::Space:
      case Directive::Align:
        bytes_.assign(stmt.size, 0);
        break;
      case Directive::Ascii:
      case Directive::Asciz:
        for (const auto &arg : stmt.args) {
            bytes_.insert(bytes_.end(), arg.str.begin(), arg.str.end());
            if (stmt.directive == Directive::Asciz)
                bytes_.push_back(0);
        }
        break;
      case Directive::Entry:
        if (stmt.args.size() != 1)
            asmError(stmt, ".entry takes one expression");
        entry_ = static_cast<std::uint32_t>(valueOf(stmt, stmt.args[0]));
        break;
      case Directive::Isa:
      case Directive::Org:
      case Directive::Equ:
      case Directive::Labels:
        break;
    }
    emit(stmt.address, SegmentKind::Data, bytes_);
}

void
AsmCore::emit(std::uint32_t addr, SegmentKind kind,
              const std::vector<std::uint8_t> &bytes)
{
    if (bytes.empty())
        return;
    auto &segs = program_.segments;
    if (segs.empty() || segs.back().kind != kind ||
        segs.back().base + segs.back().bytes.size() != addr)
        segs.push_back(Segment{addr, kind, {}});
    segs.back().bytes.insert(segs.back().bytes.end(), bytes.begin(),
                             bytes.end());
}

Program
AsmCore::finish(std::uint64_t instructions)
{
    program_.staticInstructions = instructions;
    program_.entry = [&] {
        if (entry_)
            return *entry_;
        for (const char *name : {"start", "main", "_start"})
            if (const auto it = symbols.find(name); it != symbols.end())
                return it->second;
        for (const auto &seg : program_.segments)
            if (seg.kind == SegmentKind::Code)
                return seg.base;
        fatal("program has no code and no entry point");
    }();
    program_.symbols = std::move(symbols);
    return std::move(program_);
}

} // namespace risc1

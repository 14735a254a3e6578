#include "vax/vassembler.hh"

#include <cctype>
#include <optional>
#include <string>
#include <vector>

#include "asm/twopass.hh"
#include "common/bitfield.hh"
#include "common/logging.hh"
#include "vax/visa.hh"

namespace risc1 {

namespace {

/** Register-name lookup (r0..r11, ap, fp, sp, pc), in any case. */
std::optional<unsigned>
vaxRegName(const std::string &text)
{
    if (text.size() == 2) {
        auto is = [&](const char *name) {
            return std::tolower(static_cast<unsigned char>(text[0])) ==
                       name[0] &&
                   std::tolower(static_cast<unsigned char>(text[1])) ==
                       name[1];
        };
        if (is("ap"))
            return vaxAp;
        if (is("fp"))
            return vaxFp;
        if (is("sp"))
            return vaxSp;
        if (is("pc"))
            return vaxPc;
    }
    if (auto r = parseRegName(text))
        return *r <= 15 ? r : std::nullopt;
    return std::nullopt;
}

/** Operand encodings chosen during pass 1. */
enum class VEnc : std::uint8_t
{
    ShortLit,  ///< 1 byte: modes 0-3
    Imm32,     ///< 5 bytes: (PC)+ immediate
    Reg,       ///< 1 byte
    Deferred,  ///< 1 byte
    AutoInc,   ///< 1 byte
    AutoDec,   ///< 1 byte
    Disp8,     ///< 2 bytes
    Disp16,    ///< 3 bytes
    Disp32,    ///< 5 bytes
    Abs32,     ///< 5 bytes: @(PC)+ absolute
    Branch8,   ///< 1 byte displacement
    Branch16,  ///< 2 bytes displacement
};

unsigned
encBytes(VEnc enc)
{
    switch (enc) {
      case VEnc::ShortLit:
      case VEnc::Reg:
      case VEnc::Deferred:
      case VEnc::AutoInc:
      case VEnc::AutoDec:
      case VEnc::Branch8:
        return 1;
      case VEnc::Disp8:
      case VEnc::Branch16:
        return 2;
      case VEnc::Disp16:
        return 3;
      case VEnc::Imm32:
      case VEnc::Disp32:
      case VEnc::Abs32:
        return 5;
    }
    panic("bad operand encoding");
}

/** Syntactic operand shapes before encoding selection. */
enum class VShape : std::uint8_t
{
    Imm,       ///< #expr
    Reg,       ///< rN
    Deferred,  ///< (rN)
    AutoInc,   ///< (rN)+
    AutoDec,   ///< -(rN)
    Disp,      ///< expr(rN)
    Abs,       ///< @expr
    Bare,      ///< expr
};

struct VOperand
{
    Expr expr;
    unsigned reg = 0;
    VShape shape = VShape::Bare;
    VEnc enc = VEnc::Reg;  ///< chosen in pass 1
};

/** Parse one CISC operand. */
VOperand
parseVOperand(TokenCursor &cur)
{
    VOperand op;
    const Token &tok = cur.peek();

    if (tok.kind == TokKind::Hash) {
        cur.get();
        op.shape = VShape::Imm;
        op.expr = cur.parseExpr();
        return op;
    }
    if (tok.kind == TokKind::At) {
        cur.get();
        op.shape = VShape::Abs;
        op.expr = cur.parseExpr();
        return op;
    }
    if (tok.kind == TokKind::LParen) {
        op.reg = parseParenReg(cur, vaxRegName);
        op.shape = cur.accept(TokKind::Plus) ? VShape::AutoInc
                                             : VShape::Deferred;
        return op;
    }
    if (tok.kind == TokKind::Ident) {
        if (auto r = vaxRegName(tok.text)) {
            cur.get();
            op.shape = VShape::Reg;
            op.reg = *r;
            return op;
        }
    }
    if (tok.kind == TokKind::Minus) {
        // -(rN) autodecrement, or a negative expression such as the
        // displacement of -8(r2).
        cur.get();
        if (cur.peek().kind == TokKind::LParen) {
            op.shape = VShape::AutoDec;
            op.reg = parseParenReg(cur, vaxRegName);
            return op;
        }
        // The '-' is the first term's sign, as in any expression.
        op.expr = cur.parseExpr();
        op.expr.terms.front().sign = -op.expr.terms.front().sign;
    } else {
        op.expr = cur.parseExpr();
    }

    // expr or expr(rN)
    if (cur.peek().kind == TokKind::LParen) {
        op.shape = VShape::Disp;
        op.reg = parseParenReg(cur, vaxRegName);
    } else {
        op.shape = VShape::Bare;
    }
    return op;
}

/** VAX syntax for the shared two-pass assembler (asm/twopass.hh). */
class VaxSyntax
{
  public:
    using Operand = VOperand;
    using Stmt = AsmStmt<Operand>;

    /** Code is variable-length: nothing is aligned. */
    static constexpr std::uint32_t align = 1;
    static constexpr auto regName = vaxRegName;
    static constexpr auto parseOperand = parseVOperand;

    explicit VaxSyntax(const SymbolTable &symbols) : symbols_(symbols) {}

    /**
     * Pass 1: pick each operand's encoding and return the size.
     * `.mask <expr>, ...` is the 16-bit procedure entry mask CALLS
     * expects: part of the procedure's code, but no instruction.
     */
    unsigned
    size(Stmt &stmt)
    {
        if (stmt.mnemonic == ".mask") {
            for (const auto &arg : stmt.args)
                if (arg.isStr)
                    asmError(stmt, ".mask takes expressions, not strings");
            return 2 * static_cast<unsigned>(stmt.args.size());
        }
        const auto opOpt = vaxOpcodeFromMnemonic(stmt.mnemonic);
        if (!opOpt)
            unknownMnemonic(stmt);
        const VaxOpInfo *info = vaxOpcodeInfo(*opOpt);
        if (stmt.operands.size() != info->numOperands)
            asmError(stmt, cat("'", stmt.mnemonic, "' takes ",
                               info->numOperands, " operand(s), got ",
                               stmt.operands.size()));
        unsigned size = 1;
        for (unsigned i = 0; i < info->numOperands; ++i) {
            stmt.operands[i].enc =
                chooseEncoding(stmt, stmt.operands[i], info->operands[i]);
            size += encBytes(stmt.operands[i].enc);
        }
        return size;
    }

    /** Pass 2: append the bytes; returns the instruction count. */
    unsigned
    encode(const Stmt &stmt, std::vector<std::uint8_t> &out)
    {
        if (stmt.mnemonic == ".mask") {
            for (const auto &arg : stmt.args) {
                const std::int64_t v = evalAt(symbols_, stmt, arg.expr);
                out.push_back(static_cast<std::uint8_t>(v));
                out.push_back(static_cast<std::uint8_t>(v >> 8));
            }
            return 0;
        }
        const auto op = *vaxOpcodeFromMnemonic(stmt.mnemonic);
        const VaxOpInfo *info = vaxOpcodeInfo(op);
        const std::size_t start = out.size();
        out.push_back(static_cast<std::uint8_t>(op));
        for (unsigned i = 0; i < info->numOperands; ++i) {
            const auto specAddr = static_cast<std::uint32_t>(
                stmt.address + (out.size() - start));
            encodeOperand(stmt, stmt.operands[i], specAddr, out);
        }
        return 1;
    }

  private:
    /** Pick an encoding (and size) for one operand in pass 1. */
    VEnc
    chooseEncoding(const Stmt &stmt, VOperand &op, VaxOpndUse use)
    {
        const bool branch = use == VaxOpndUse::Branch8 ||
                            use == VaxOpndUse::Branch16;
        switch (op.shape) {
          case VShape::Imm:
            if (branch)
                asmError(stmt, "immediate used as branch target");
            if (const auto v = op.expr.tryEval(symbols_, stmt.address))
                if (*v >= 0 && *v <= 63)
                    return VEnc::ShortLit;
            return VEnc::Imm32;
          case VShape::Reg:
            if (branch)
                asmError(stmt, "register used as branch target");
            return VEnc::Reg;
          case VShape::Deferred:
            return VEnc::Deferred;
          case VShape::AutoInc:
            return VEnc::AutoInc;
          case VShape::AutoDec:
            return VEnc::AutoDec;
          case VShape::Disp:
            if (const auto v = op.expr.tryEval(symbols_, stmt.address)) {
                if (fitsSigned(*v, 8))
                    return VEnc::Disp8;
                if (fitsSigned(*v, 16))
                    return VEnc::Disp16;
            }
            return VEnc::Disp32;
          case VShape::Abs:
            return VEnc::Abs32;
          case VShape::Bare:
            if (use == VaxOpndUse::Branch8)
                return VEnc::Branch8;
            if (use == VaxOpndUse::Branch16)
                return VEnc::Branch16;
            return VEnc::Abs32;
        }
        panic("bad operand shape");
    }

    void
    encodeOperand(const Stmt &stmt, const VOperand &op,
                  std::uint32_t specAddr, std::vector<std::uint8_t> &out)
    {
        auto spec = [&](VaxMode mode, unsigned rn) {
            out.push_back(static_cast<std::uint8_t>(
                (static_cast<unsigned>(mode) << 4) | (rn & 0xf)));
        };
        auto value = [&] { return evalAt(symbols_, stmt, op.expr); };
        auto emit32 = [&](std::uint32_t v) {
            out.push_back(static_cast<std::uint8_t>(v));
            out.push_back(static_cast<std::uint8_t>(v >> 8));
            out.push_back(static_cast<std::uint8_t>(v >> 16));
            out.push_back(static_cast<std::uint8_t>(v >> 24));
        };

        switch (op.enc) {
          case VEnc::ShortLit: {
            const std::int64_t v = value();
            if (v < 0 || v > 63)
                asmError(stmt, cat("short literal ", v, " out of range"));
            out.push_back(static_cast<std::uint8_t>(v));
            break;
          }
          case VEnc::Imm32:
            spec(VaxMode::AutoInc, vaxPc);
            emit32(static_cast<std::uint32_t>(value()));
            break;
          case VEnc::Reg:
            spec(VaxMode::Register, op.reg);
            break;
          case VEnc::Deferred:
            spec(VaxMode::Deferred, op.reg);
            break;
          case VEnc::AutoInc:
            spec(VaxMode::AutoInc, op.reg);
            break;
          case VEnc::AutoDec:
            spec(VaxMode::AutoDec, op.reg);
            break;
          case VEnc::Disp8: {
            const std::int64_t v = value();
            if (!fitsSigned(v, 8))
                asmError(stmt, cat("byte displacement ", v, " out of range"));
            spec(VaxMode::DispByte, op.reg);
            out.push_back(static_cast<std::uint8_t>(v));
            break;
          }
          case VEnc::Disp16: {
            const std::int64_t v = value();
            if (!fitsSigned(v, 16))
                asmError(stmt, cat("word displacement ", v, " out of range"));
            spec(VaxMode::DispWord, op.reg);
            out.push_back(static_cast<std::uint8_t>(v));
            out.push_back(static_cast<std::uint8_t>(v >> 8));
            break;
          }
          case VEnc::Disp32:
            spec(VaxMode::DispLong, op.reg);
            emit32(static_cast<std::uint32_t>(value()));
            break;
          case VEnc::Abs32:
            spec(VaxMode::AutoIncDef, vaxPc);
            emit32(static_cast<std::uint32_t>(value()));
            break;
          case VEnc::Branch8: {
            const std::int64_t target = value();
            const std::int64_t disp = target - (specAddr + 1);
            if (!fitsSigned(disp, 8))
                asmError(stmt, cat("branch displacement ", disp,
                                   " exceeds byte range; restructure or use "
                                   "brw/jmp"));
            out.push_back(static_cast<std::uint8_t>(disp));
            break;
          }
          case VEnc::Branch16: {
            const std::int64_t target = value();
            const std::int64_t disp = target - (specAddr + 2);
            if (!fitsSigned(disp, 16))
                asmError(stmt, cat("branch displacement ", disp,
                                   " exceeds word range"));
            out.push_back(static_cast<std::uint8_t>(disp));
            out.push_back(static_cast<std::uint8_t>(disp >> 8));
            break;
          }
        }
    }

    const SymbolTable &symbols_;
};

} // namespace

Program
assembleVax(const std::string &source, std::uint64_t memoryBytes)
{
    return assembleWith<VaxSyntax>(source, memoryBytes);
}

} // namespace risc1

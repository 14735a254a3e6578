#include "asm/assembler.hh"

#include <optional>
#include <string_view>
#include <vector>

#include "asm/twopass.hh"
#include "common/bitfield.hh"
#include "common/logging.hh"
#include "isa/instruction.hh"

namespace risc1 {

namespace {

/** Pseudo-branch table: b<cond> label -> jmpr cond, label. */
std::optional<Cond>
branchPseudo(std::string_view mnemonic)
{
    if (mnemonic == "bra")
        return Cond::Alw;
    if (mnemonic.size() < 2 || mnemonic[0] != 'b')
        return std::nullopt;
    return condFromName(mnemonic.substr(1));
}

/** ALU mnemonic lookup with optional trailing-'s' scc suffix. */
struct AluMatch
{
    Opcode op;
    bool scc;
};

std::optional<AluMatch>
aluMnemonic(std::string_view mnemonic)
{
    if (auto op = opcodeFromMnemonic(mnemonic)) {
        if (opcodeInfo(*op)->cls == InstClass::Alu &&
            *op != Opcode::Ldhi)
            return AluMatch{*op, false};
        return std::nullopt;
    }
    if (mnemonic.size() > 1 && mnemonic.back() == 's') {
        mnemonic.remove_suffix(1);
        if (auto op = opcodeFromMnemonic(mnemonic)) {
            if (opcodeInfo(*op)->cls == InstClass::Alu &&
                *op != Opcode::Ldhi)
                return AluMatch{*op, true};
        }
    }
    return std::nullopt;
}

/** Split a 32-bit constant into ldhi/add parts that recombine exactly. */
struct SplitImm
{
    std::int32_t hi19;
    std::int32_t lo13;
};

SplitImm
splitImmediate(std::int64_t value)
{
    const auto v = static_cast<std::uint32_t>(value);
    const std::int32_t lo = sext(v & 0x1fff, 13);
    const std::uint32_t hiPart =
        v - static_cast<std::uint32_t>(lo);
    SplitImm s;
    s.lo13 = lo;
    s.hi19 = static_cast<std::int32_t>(hiPart >> 13) & 0x7ffff;
    // ldhi sign-extends its 19-bit field before shifting; keep the raw
    // field value in signed range for the encoder.
    s.hi19 = sext(static_cast<std::uint32_t>(s.hi19), 19);
    return s;
}

/** RISC I instruction operand kinds. */
enum class OperandKind : std::uint8_t
{
    Reg,   ///< register rN
    Expr,  ///< symbolic expression
    Mem,   ///< expr(rN) memory reference
};

/** One parsed RISC I instruction operand. */
struct Operand
{
    OperandKind kind = OperandKind::Expr;
    unsigned reg = 0;  ///< Reg / Mem base register
    Expr expr;         ///< Expr / Mem displacement
};

/** RISC I syntax for the shared two-pass assembler (asm/twopass.hh). */
class RiscSyntax
{
  public:
    using Operand = risc1::Operand;
    using Stmt = AsmStmt<Operand>;

    /** Instructions and .org are word-aligned. */
    static constexpr std::uint32_t align = 4;

    static constexpr auto regName = parseRegName;

    /** One operand: register, expr(rN), (rN), or expr. */
    static Operand
    parseOperand(TokenCursor &cur)
    {
        Operand op;
        if (cur.peek().kind == TokKind::Ident) {
            if (auto reg = parseRegName(cur.peek().text)) {
                cur.get();
                op.kind = OperandKind::Reg;
                op.reg = *reg;
                return op;
            }
        }
        // "(rN)" has an implicit zero displacement.
        op.expr = cur.peek().kind == TokKind::LParen ? Expr::constant(0)
                                                      : cur.parseExpr();
        if (cur.peek().kind == TokKind::LParen) {
            op.kind = OperandKind::Mem;
            op.reg = parseParenReg(cur, parseRegName);
        }
        return op;
    }

    explicit RiscSyntax(const SymbolTable &symbols) : symbols_(symbols) {}

    /** Pass 1: bytes the statement expands to. */
    unsigned
    size(Stmt &stmt)
    {
        if (stmt.mnemonic[0] == '.')
            unknownMnemonic(stmt);
        return 4 * instructionWords(stmt);
    }

    /** Pass 2: append the machine words; returns their count. */
    unsigned
    encode(const Stmt &stmt, std::vector<std::uint8_t> &out)
    {
        // For multi-word pseudos the later words' '.' would shift;
        // expansion uses stmt.address for all of them.
        const std::size_t start = out.size();
        expand(stmt, out);
        return static_cast<unsigned>((out.size() - start) / 4);
    }

  private:
    // -- Operand interpretation ------------------------------------------
    unsigned
    wantReg(const Stmt &stmt, std::size_t idx)
    {
        if (idx >= stmt.operands.size() ||
            stmt.operands[idx].kind != OperandKind::Reg)
            asmError(stmt, cat("operand ", idx + 1, " of '", stmt.mnemonic,
                               "' must be a register"));
        return stmt.operands[idx].reg;
    }

    std::int64_t
    evalExpr(const Stmt &stmt, const Expr &expr)
    {
        return evalAt(symbols_, stmt, expr);
    }

    Cond
    wantCond(const Stmt &stmt, std::size_t idx)
    {
        if (idx < stmt.operands.size() &&
            stmt.operands[idx].kind == OperandKind::Expr) {
            if (auto sym = stmt.operands[idx].expr.asBareSymbol())
                if (auto cond = condFromName(*sym))
                    return *cond;
        }
        asmError(stmt, cat("operand ", idx + 1, " of '", stmt.mnemonic,
                           "' must be a condition (alw, eq, ne, ...)"));
    }

    std::int32_t
    checkImm13(const Stmt &stmt, std::int64_t value)
    {
        if (!fitsSigned(value, 13))
            asmError(stmt, cat("immediate ", value,
                               " does not fit in 13 bits"));
        return static_cast<std::int32_t>(value);
    }

    std::int32_t
    checkImm19(const Stmt &stmt, std::int64_t value)
    {
        if (!fitsSigned(value, 19))
            asmError(stmt, cat("offset ", value,
                               " does not fit in 19 bits (too far?)"));
        return static_cast<std::int32_t>(value);
    }

    /** Fill rs1/imm/rs2 of @p inst from an s2-style operand. */
    void
    applyS2(const Stmt &stmt, Instruction &inst, const Operand &op)
    {
        if (op.kind == OperandKind::Reg) {
            inst.imm = false;
            inst.rs2 = static_cast<std::uint8_t>(op.reg);
        } else if (op.kind == OperandKind::Expr) {
            inst.imm = true;
            inst.simm13 = checkImm13(stmt, evalExpr(stmt, op.expr));
        } else {
            asmError(stmt, "bad s2 operand (register or expression expected)");
        }
    }

    /**
     * Fill address operands (rs1 + s2) from the tail of the operand
     * list starting at @p idx: accepts "expr(rN)", "(rN)", "expr"
     * (absolute, rs1 = r0), or "rN, s2".
     */
    void
    applyAddress(const Stmt &stmt, Instruction &inst, std::size_t idx)
    {
        if (idx >= stmt.operands.size())
            asmError(stmt, "missing address operand");
        const Operand &op = stmt.operands[idx];
        if (op.kind == OperandKind::Mem) {
            if (idx + 1 != stmt.operands.size())
                asmError(stmt, "trailing operands after address");
            inst.rs1 = static_cast<std::uint8_t>(op.reg);
            inst.imm = true;
            inst.simm13 = checkImm13(stmt, evalExpr(stmt, op.expr));
        } else if (op.kind == OperandKind::Expr &&
                   idx + 1 == stmt.operands.size()) {
            inst.rs1 = 0;
            inst.imm = true;
            inst.simm13 = checkImm13(stmt, evalExpr(stmt, op.expr));
        } else if (op.kind == OperandKind::Reg &&
                   idx + 2 == stmt.operands.size()) {
            inst.rs1 = static_cast<std::uint8_t>(op.reg);
            applyS2(stmt, inst, stmt.operands[idx + 1]);
        } else {
            asmError(stmt, "bad address operand: use off(rN), rN, s2, or "
                           "an absolute expression");
        }
    }

    // -- Instruction expansion -------------------------------------------

    /** Number of machine words a statement expands to (pass 1). */
    unsigned
    instructionWords(const Stmt &stmt)
    {
        const std::string &m = stmt.mnemonic;
        if (m == "ldi" || m == "mov") {
            // mov rd, rN is a single add; constants may need ldhi+add.
            if (stmt.operands.size() == 2 &&
                stmt.operands[1].kind == OperandKind::Reg)
                return 1;
            if (stmt.operands.size() == 2 &&
                stmt.operands[1].kind == OperandKind::Expr) {
                const auto v =
                    stmt.operands[1].expr.tryEval(symbols_, stmt.address);
                if (v && fitsSigned(*v, 13))
                    return 1;
            }
            return 2;
        }
        return 1;
    }

    /** Append @p inst's machine word to @p out. */
    static void
    put(std::vector<std::uint8_t> &out, const Instruction &inst)
    {
        const std::uint32_t w = inst.encode();
        for (unsigned i = 0; i < 4; ++i)
            out.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
    }

    /** Expand one instruction statement, appending its machine words. */
    void
    expand(const Stmt &stmt, std::vector<std::uint8_t> &out)
    {
        const std::string &m = stmt.mnemonic;
        auto countIs = [&](std::size_t n) {
            if (stmt.operands.size() != n)
                asmError(stmt, cat("'", m, "' takes ", n, " operand(s), got ",
                                   stmt.operands.size()));
        };

        // ---- ALU (with scc suffix handling) ----
        if (auto alu = aluMnemonic(m)) {
            countIs(3);
            Instruction inst;
            inst.op = alu->op;
            inst.scc = alu->scc;
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            inst.rs1 = static_cast<std::uint8_t>(wantReg(stmt, 1));
            applyS2(stmt, inst, stmt.operands[2]);
            put(out, inst);
            return;
        }

        // ---- Pseudo-instructions ----
        if (m == "nop") {
            countIs(0);
            put(out, Instruction::nop());
            return;
        }
        if (m == "halt") {
            countIs(0);
            put(out, Instruction::jmpr(Cond::Alw, 0));
            return;
        }
        if (m == "clr") {
            countIs(1);
            put(out,
                Instruction::aluImm(Opcode::Add, wantReg(stmt, 0), 0, 0));
            return;
        }
        if (m == "inc" || m == "dec") {
            const unsigned rd = wantReg(stmt, 0);
            std::int64_t amount = 1;
            if (stmt.operands.size() == 2)
                amount = evalExpr(stmt, stmt.operands[1].expr);
            else if (stmt.operands.size() != 1)
                asmError(stmt, cat("'", m, "' takes 1 or 2 operands"));
            put(out, Instruction::aluImm(
                m == "inc" ? Opcode::Add : Opcode::Sub, rd, rd,
                checkImm13(stmt, amount)));
            return;
        }
        if (m == "cmp") {
            countIs(2);
            Instruction inst;
            inst.op = Opcode::Sub;
            inst.scc = true;
            inst.rd = 0;
            inst.rs1 = static_cast<std::uint8_t>(wantReg(stmt, 0));
            applyS2(stmt, inst, stmt.operands[1]);
            put(out, inst);
            return;
        }
        if (m == "not") {
            countIs(2);
            put(out, Instruction::aluImm(
                Opcode::Xor, wantReg(stmt, 0), wantReg(stmt, 1), -1));
            return;
        }
        if (m == "neg") {
            countIs(2);
            put(out, Instruction::aluImm(
                Opcode::Subr, wantReg(stmt, 0), wantReg(stmt, 1), 0));
            return;
        }
        if (m == "ldi" || m == "mov") {
            countIs(2);
            const unsigned rd = wantReg(stmt, 0);
            if (stmt.operands[1].kind == OperandKind::Reg) {
                put(out, Instruction::aluImm(
                    Opcode::Add, rd, stmt.operands[1].reg, 0));
                return;
            }
            if (stmt.operands[1].kind != OperandKind::Expr)
                asmError(stmt, "second operand of ldi/mov must be a register "
                               "or expression");
            const std::int64_t value =
                evalExpr(stmt, stmt.operands[1].expr);
            if (stmt.size == 4) {
                put(out, Instruction::aluImm(
                    Opcode::Add, rd, 0, checkImm13(stmt, value)));
            } else {
                const SplitImm split = splitImmediate(value);
                put(out, Instruction::ldhi(rd, split.hi19));
                put(out, Instruction::aluImm(Opcode::Add, rd, rd,
                                             split.lo13));
            }
            return;
        }
        if (auto cond = branchPseudo(m)) {
            countIs(1);
            if (stmt.operands[0].kind != OperandKind::Expr)
                asmError(stmt, "branch target must be an expression");
            const std::int64_t target =
                evalExpr(stmt, stmt.operands[0].expr);
            put(out, Instruction::jmpr(
                *cond, checkImm19(stmt, target - stmt.address)));
            return;
        }

        // ---- Real opcodes ----
        if (m == "ldhis") {
            countIs(2);
            Instruction inst = Instruction::ldhi(
                wantReg(stmt, 0),
                checkImm19(stmt, evalExpr(stmt, stmt.operands[1].expr)));
            inst.scc = true;
            put(out, inst);
            return;
        }
        const auto opOpt = opcodeFromMnemonic(m);
        if (!opOpt)
            unknownMnemonic(stmt);
        const Opcode op = *opOpt;
        const OpcodeInfo *info = opcodeInfo(op);

        Instruction inst;
        inst.op = op;

        switch (op) {
          case Opcode::Ldhi:
            countIs(2);
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            inst.imm19 = checkImm19(
                stmt, evalExpr(stmt, stmt.operands[1].expr));
            break;
          case Opcode::Ldl:
          case Opcode::Ldsu:
          case Opcode::Ldss:
          case Opcode::Ldbu:
          case Opcode::Ldbs:
          case Opcode::Stl:
          case Opcode::Sts:
          case Opcode::Stb:
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            applyAddress(stmt, inst, 1);
            break;
          case Opcode::Jmp:
            inst.rd = static_cast<std::uint8_t>(wantCond(stmt, 0));
            applyAddress(stmt, inst, 1);
            break;
          case Opcode::Jmpr: {
            countIs(2);
            inst.rd = static_cast<std::uint8_t>(wantCond(stmt, 0));
            if (stmt.operands[1].kind != OperandKind::Expr)
                asmError(stmt, "jmpr target must be an expression");
            const std::int64_t target =
                evalExpr(stmt, stmt.operands[1].expr);
            inst.imm19 = checkImm19(stmt, target - stmt.address);
            break;
          }
          case Opcode::Call:
            if (stmt.operands.size() == 1 &&
                stmt.operands[0].kind == OperandKind::Expr) {
                // call <label>  ==>  callr r31, <label>
                inst.op = Opcode::Callr;
                inst.rd = 31;
                const std::int64_t target =
                    evalExpr(stmt, stmt.operands[0].expr);
                inst.imm19 = checkImm19(stmt, target - stmt.address);
                break;
            }
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            applyAddress(stmt, inst, 1);
            break;
          case Opcode::Callr: {
            countIs(2);
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            if (stmt.operands[1].kind != OperandKind::Expr)
                asmError(stmt, "callr target must be an expression");
            const std::int64_t target =
                evalExpr(stmt, stmt.operands[1].expr);
            inst.imm19 = checkImm19(stmt, target - stmt.address);
            break;
          }
          case Opcode::Ret:
          case Opcode::Reti:
            if (stmt.operands.empty()) {
                // Plain "ret": return to r31 + 8 (skip call + slot).
                inst.rs1 = 31;
                inst.imm = true;
                inst.simm13 = 8;
                break;
            }
            if (stmt.operands.size() != 2)
                asmError(stmt, cat("'", m, "' takes 0 or 2 operands"));
            inst.rs1 = static_cast<std::uint8_t>(wantReg(stmt, 0));
            applyS2(stmt, inst, stmt.operands[1]);
            break;
          case Opcode::Calli:
          case Opcode::Gtlpc:
          case Opcode::Getpsw:
            countIs(1);
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            break;
          case Opcode::Putpsw:
            countIs(1);
            inst.rs1 = static_cast<std::uint8_t>(wantReg(stmt, 0));
            break;
          default:
            asmError(stmt, cat("mnemonic '", m, "' (", info->mnemonic,
                               ") needs ALU operand form"));
        }
        put(out, inst);
    }

    const SymbolTable &symbols_;
};

} // namespace

Program
assembleRisc(const std::string &source, std::uint64_t memoryBytes)
{
    return assembleWith<RiscSyntax>(source, memoryBytes);
}

} // namespace risc1

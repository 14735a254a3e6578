/**
 * @file
 * The RISC I instruction set: the 31 opcodes of Patterson & Séquin's
 * ISCA'81 design, plus static per-opcode metadata used by the decoder,
 * the assembler, and the timing model.
 *
 * Encodings are our own (the paper does not publish bit-level opcodes);
 * the *architecture* — 7-bit opcode, scc bit, two 32-bit formats — follows
 * the paper.
 */

#ifndef RISC1_ISA_OPCODES_HH
#define RISC1_ISA_OPCODES_HH

#include <cstdint>
#include <optional>
#include <string_view>

namespace risc1 {

/**
 * The RISC I instruction list: one row per opcode, in table order.
 * Everything else about an opcode (the Opcode enum, numOpcodes, the
 * OpcodeInfo table and its lookups, the simulator's handler table) is
 * generated from it.  Columns, in order (0/1 for the flags):
 *
 *   name     Opcode enumerator
 *   value    the 7-bit opcode field
 *   mnem     assembler mnemonic (without any scc suffix)
 *   fmt      Format: Short or Long
 *   cls      InstClass
 *   cond     the rd field names a jump condition, not a register
 *   cc       the instruction may set condition codes via scc
 *   handler  the Machine handler family that executes it
 *   rd/s2/wr register operands it reads besides s2, whether a register
 *            s2 (imm = 0) adds a read, and register operands it writes
 *   slot     the next instruction is an architectural delay slot
 *
 * For stores the rd field names the data register, which is read.
 */
#define RISC1_OPCODES(X)                                                  \
    /* Arithmetic / logic. */                                             \
    X(Add,    0x01, "add",    Short, Alu,     0, 1, alu,     1, 1, 1, 0)  \
    X(Addc,   0x02, "addc",   Short, Alu,     0, 1, alu,     1, 1, 1, 0)  \
    X(Sub,    0x03, "sub",    Short, Alu,     0, 1, alu,     1, 1, 1, 0)  \
    X(Subc,   0x04, "subc",   Short, Alu,     0, 1, alu,     1, 1, 1, 0)  \
    X(Subr,   0x05, "subr",   Short, Alu,     0, 1, alu,     1, 1, 1, 0)  \
    X(Subcr,  0x06, "subcr",  Short, Alu,     0, 1, alu,     1, 1, 1, 0)  \
    X(And,    0x07, "and",    Short, Alu,     0, 1, alu,     1, 1, 1, 0)  \
    X(Or,     0x08, "or",     Short, Alu,     0, 1, alu,     1, 1, 1, 0)  \
    X(Xor,    0x09, "xor",    Short, Alu,     0, 1, alu,     1, 1, 1, 0)  \
    X(Sll,    0x0a, "sll",    Short, Alu,     0, 1, alu,     1, 1, 1, 0)  \
    X(Srl,    0x0b, "srl",    Short, Alu,     0, 1, alu,     1, 1, 1, 0)  \
    X(Sra,    0x0c, "sra",    Short, Alu,     0, 1, alu,     1, 1, 1, 0)  \
    /* Load immediate high. */                                            \
    X(Ldhi,   0x10, "ldhi",   Long,  Alu,     0, 1, alu,     0, 0, 1, 0)  \
    /* Loads: rd <- M[rs1 + s2]. */                                       \
    X(Ldl,    0x11, "ldl",    Short, Load,    0, 0, load,    1, 1, 1, 0)  \
    X(Ldsu,   0x12, "ldsu",   Short, Load,    0, 0, load,    1, 1, 1, 0)  \
    X(Ldss,   0x13, "ldss",   Short, Load,    0, 0, load,    1, 1, 1, 0)  \
    X(Ldbu,   0x14, "ldbu",   Short, Load,    0, 0, load,    1, 1, 1, 0)  \
    X(Ldbs,   0x15, "ldbs",   Short, Load,    0, 0, load,    1, 1, 1, 0)  \
    /* Stores: M[rs1 + s2] <- rd. */                                      \
    X(Stl,    0x19, "stl",    Short, Store,   0, 0, store,   2, 1, 0, 0)  \
    X(Sts,    0x1a, "sts",    Short, Store,   0, 0, store,   2, 1, 0, 0)  \
    X(Stb,    0x1b, "stb",    Short, Store,   0, 0, store,   2, 1, 0, 0)  \
    /* Control transfer. */                                               \
    X(Jmp,    0x20, "jmp",    Short, Jump,    1, 0, jump,    1, 1, 0, 1)  \
    X(Jmpr,   0x21, "jmpr",   Long,  Jump,    1, 0, jump,    0, 0, 0, 1)  \
    X(Call,   0x22, "call",   Short, CallRet, 0, 0, callRet, 1, 1, 1, 1)  \
    X(Callr,  0x23, "callr",  Long,  CallRet, 0, 0, callRet, 0, 0, 1, 1)  \
    X(Ret,    0x24, "ret",    Short, CallRet, 0, 0, callRet, 1, 1, 0, 1)  \
    X(Calli,  0x25, "calli",  Short, CallRet, 0, 0, callRet, 0, 0, 1, 0)  \
    X(Reti,   0x26, "reti",   Short, CallRet, 0, 0, callRet, 1, 1, 0, 1)  \
    /* Special: PC and PSW access. */                                     \
    X(Gtlpc,  0x28, "gtlpc",  Short, Special, 0, 0, special, 0, 0, 1, 0)  \
    X(Getpsw, 0x29, "getpsw", Short, Special, 0, 0, special, 0, 0, 1, 0)  \
    X(Putpsw, 0x2a, "putpsw", Short, Special, 0, 0, special, 1, 0, 0, 0)

/** The 31 RISC I instructions. Values are the 7-bit opcode field. */
enum class Opcode : std::uint8_t
{
#define RISC1_OPCODE_ENUM(name, value, ...) name = value,
    RISC1_OPCODES(RISC1_OPCODE_ENUM)
#undef RISC1_OPCODE_ENUM
};

#define RISC1_OPCODE_COUNT(...) +1
/** Number of distinct RISC I instructions (the paper's headline count). */
inline constexpr int numOpcodes = 0 RISC1_OPCODES(RISC1_OPCODE_COUNT);
#undef RISC1_OPCODE_COUNT

/** Broad instruction classes used by statistics and the timing model. */
enum class InstClass : std::uint8_t
{
    Alu,        ///< register-to-register compute (incl. LDHI)
    Load,       ///< memory read
    Store,      ///< memory write
    Jump,       ///< conditional/unconditional jumps
    CallRet,    ///< procedure call/return (incl. interrupt variants)
    Special,    ///< PSW/PC access
};

/** Which of the two 32-bit formats an opcode uses. */
enum class Format : std::uint8_t
{
    Short,  ///< opcode|scc|rd|rs1|imm|s2(13)
    Long,   ///< opcode|scc|rd|Y(19)
};

/** Static description of one opcode: its RISC1_OPCODES row. */
struct OpcodeInfo
{
    Opcode op;
    std::string_view mnemonic;
    Format format;
    InstClass cls;
    /** True when the rd field names a condition, not a register. */
    bool rdIsCond;
    /** True when the instruction may set condition codes via scc. */
    bool maySetCc;
    /** Register operands read, not counting a register s2. */
    std::uint8_t regReads;
    /** True when a register s2 (imm = 0) is one more read. */
    bool s2Read;
    /** Register operands written. */
    std::uint8_t regWrites;
    /** True when the next instruction is an architectural delay slot. */
    bool delaySlot;
};

/** Look up metadata; returns nullptr for illegal opcode values. */
const OpcodeInfo *opcodeInfo(Opcode op);

/** Look up an opcode by mnemonic (without any scc suffix). */
std::optional<Opcode> opcodeFromMnemonic(std::string_view mnemonic);

/** All valid opcodes in mnemonic-table order (31 entries). */
const OpcodeInfo *allOpcodes();

} // namespace risc1

#endif // RISC1_ISA_OPCODES_HH

/**
 * @file
 * The "VLSI CISC" baseline instruction set — a VAX-11/780-class
 * architecture implemented as the comparison machine for the paper's
 * evaluation (the paper compared RISC I against the VAX-11/780,
 * PDP-11/70, M68000 and Z8002; one parametric VAX-class machine stands
 * in for all of them, see DESIGN.md).
 *
 * Faithful CISC properties modelled:
 *  - variable-length instructions: 1 opcode byte + operand specifiers
 *  - rich addressing modes (literal, register, deferred, auto-inc/dec,
 *    displacement of three widths, immediate, absolute)
 *  - memory operands on ordinary ALU instructions
 *  - microcoded multi-cycle timing (per-opcode base cost plus
 *    per-specifier cost), patterned on published VAX-11/780 counts
 *  - heavyweight CALLS/RET building a full stack frame with an entry
 *    mask, plus the cheaper JSB/RSB subroutine linkage
 *
 * Opcode byte values are our own dense assignment (the real VAX's are
 * immaterial to the architectural comparison).
 */

#ifndef RISC1_VAX_VISA_HH
#define RISC1_VAX_VISA_HH

#include <cstdint>
#include <optional>
#include <string_view>

namespace risc1 {

/** Baseline machine registers. */
inline constexpr unsigned vaxNumRegs = 16;
inline constexpr unsigned vaxAp = 12;  ///< argument pointer
inline constexpr unsigned vaxFp = 13;  ///< frame pointer
inline constexpr unsigned vaxSp = 14;  ///< stack pointer
inline constexpr unsigned vaxPc = 15;  ///< program counter

/**
 * The baseline instruction list: one row per opcode, in table order.
 * The VaxOpcode enum, the VaxOpInfo table and its lookups are
 * generated from it.  Columns: enumerator, opcode byte, mnemonic,
 * VaxClass, microcoded base cycles, then how the instruction uses each
 * of its operands (VaxOpndUse, up to vaxMaxOperands).
 *
 * Base cycle costs are patterned on published VAX-11/780 microcycle
 * counts: simple register moves ~2, memory-form ALU ~3, multiply ~15,
 * divide ~25, taken branch ~4, CALLS ~15 plus per-register cost
 * (charged by the machine), RET ~12.
 */
#define RISC1_VAX_OPCODES(X)                                             \
    X(Halt,   0x00, "halt",   Misc,     2)                               \
    X(Nop,    0x01, "nop",    Misc,     2)                               \
    /* Moves; MOVAL moves the effective address of its source. */        \
    X(Movl,   0x10, "movl",   Move,     2, Read, Write)                  \
    X(Movb,   0x11, "movb",   Move,     2, ReadByte, WriteByte)          \
    X(Movw,   0x12, "movw",   Move,     2, ReadHalf, WriteHalf)          \
    X(Moval,  0x13, "moval",  Move,     2, Address, Write)               \
    X(Movzbl, 0x14, "movzbl", Move,     2, ReadByte, Write)              \
    X(Movzwl, 0x15, "movzwl", Move,     2, ReadHalf, Write)              \
    X(Clrl,   0x16, "clrl",   Move,     2, Write)                        \
    X(Pushl,  0x17, "pushl",  Move,     3, Read)                         \
    X(Mnegl,  0x18, "mnegl",  Alu,      3, Read, Write)                  \
    X(Mcoml,  0x19, "mcoml",  Alu,      3, Read, Write)                  \
    /* Integer arithmetic / logic: BISL2 is OR, BICL2 AND NOT, and */    \
    /* ASHL takes count, source, destination. */                         \
    X(Addl2,  0x20, "addl2",  Alu,      3, Read, Modify)                 \
    X(Addl3,  0x21, "addl3",  Alu,      3, Read, Read, Write)            \
    X(Subl2,  0x22, "subl2",  Alu,      3, Read, Modify)                 \
    X(Subl3,  0x23, "subl3",  Alu,      3, Read, Read, Write)            \
    X(Mull2,  0x24, "mull2",  Alu,     15, Read, Modify)                 \
    X(Mull3,  0x25, "mull3",  Alu,     15, Read, Read, Write)            \
    X(Divl2,  0x26, "divl2",  Alu,     25, Read, Modify)                 \
    X(Divl3,  0x27, "divl3",  Alu,     25, Read, Read, Write)            \
    X(Incl,   0x28, "incl",   Alu,      3, Modify)                       \
    X(Decl,   0x29, "decl",   Alu,      3, Modify)                       \
    X(Bisl2,  0x2a, "bisl2",  Alu,      3, Read, Modify)                 \
    X(Bicl2,  0x2b, "bicl2",  Alu,      3, Read, Modify)                 \
    X(Xorl2,  0x2c, "xorl2",  Alu,      3, Read, Modify)                 \
    X(Ashl,   0x2d, "ashl",   Alu,      6, Read, Read, Write)            \
    X(Cmpl,   0x2e, "cmpl",   Alu,      3, Read, Read)                   \
    X(Tstl,   0x2f, "tstl",   Alu,      2, Read)                         \
    X(Cmpb,   0x30, "cmpb",   Alu,      3, ReadByte, ReadByte)           \
    /* Branches: byte displacement, BRW a word one, JMP a general */     \
    /* destination. */                                                   \
    X(Brb,    0x40, "brb",    Branch,   4, Branch8)                      \
    X(Brw,    0x41, "brw",    Branch,   4, Branch16)                     \
    X(Beql,   0x42, "beql",   Branch,   3, Branch8)                      \
    X(Bneq,   0x43, "bneq",   Branch,   3, Branch8)                      \
    X(Blss,   0x44, "blss",   Branch,   3, Branch8)                      \
    X(Bleq,   0x45, "bleq",   Branch,   3, Branch8)                      \
    X(Bgtr,   0x46, "bgtr",   Branch,   3, Branch8)                      \
    X(Bgeq,   0x47, "bgeq",   Branch,   3, Branch8)                      \
    X(Blssu,  0x48, "blssu",  Branch,   3, Branch8)                      \
    X(Blequ,  0x49, "blequ",  Branch,   3, Branch8)                      \
    X(Bgtru,  0x4a, "bgtru",  Branch,   3, Branch8)                      \
    X(Bgequ,  0x4b, "bgequ",  Branch,   3, Branch8)                      \
    X(Bvs,    0x4c, "bvs",    Branch,   3, Branch8)                      \
    X(Bvc,    0x4d, "bvc",    Branch,   3, Branch8)                      \
    X(Jmp,    0x4e, "jmp",    Branch,   4, Address)                      \
    /* CISC loops: decrement and branch while > 0 or >= 0, */           \
    /* increment and branch while < or <= the limit. */                  \
    X(Sobgtr, 0x50, "sobgtr", Loop,     5, Modify, Branch8)              \
    X(Sobgeq, 0x51, "sobgeq", Loop,     5, Modify, Branch8)              \
    X(Aoblss, 0x52, "aoblss", Loop,     6, Read, Modify, Branch8)        \
    X(Aobleq, 0x53, "aobleq", Loop,     6, Read, Modify, Branch8)        \
    /* Procedure linkage: the heavyweight frame-building CALLS/RET, */   \
    /* the cheap JSB/RSB (push PC), and PUSHR/POPR by register mask. */  \
    X(Calls,  0x60, "calls",  CallRet, 15, Read, Address)                \
    X(Ret,    0x61, "ret",    CallRet, 12)                               \
    X(Jsb,    0x62, "jsb",    CallRet,  5, Address)                      \
    X(Rsb,    0x63, "rsb",    CallRet,  5)                               \
    X(Pushr,  0x64, "pushr",  CallRet,  4, Read)                         \
    X(Popr,   0x65, "popr",   CallRet,  4, Read)

/** Baseline opcodes: the RISC1_VAX_OPCODES bytes. */
enum class VaxOpcode : std::uint8_t
{
#define RISC1_VAX_OPCODE_ENUM(name, byte, ...) name = byte,
    RISC1_VAX_OPCODES(RISC1_VAX_OPCODE_ENUM)
#undef RISC1_VAX_OPCODE_ENUM
};

/** How an instruction uses each of its operands. */
enum class VaxOpndUse : std::uint8_t
{
    Read,      ///< general operand, read (longword)
    ReadByte,  ///< general operand, read (byte)
    ReadHalf,  ///< general operand, read (16-bit word)
    Write,     ///< general operand, written
    WriteByte,
    WriteHalf,
    Modify,    ///< read-modify-write
    Address,   ///< effective address only (MOVAL, JMP, CALLS dst)
    Branch8,   ///< byte PC-displacement in the instruction stream
    Branch16,  ///< word PC-displacement
};

/** Instruction classes for statistics. */
enum class VaxClass : std::uint8_t
{
    Move,
    Alu,
    Branch,
    Loop,
    CallRet,
    Misc,
};

inline constexpr unsigned vaxMaxOperands = 3;

/** Static description of one baseline opcode: its RISC1_VAX_OPCODES row. */
struct VaxOpInfo
{
    VaxOpcode op;
    std::string_view mnemonic;
    VaxClass cls;
    /** Microcoded base cost in cycles (before specifier costs). */
    std::uint8_t baseCycles;
    std::uint8_t numOperands;
    VaxOpndUse operands[vaxMaxOperands];
};

/** Metadata lookup; nullptr for illegal opcode bytes. */
const VaxOpInfo *vaxOpcodeInfo(VaxOpcode op);

/** Mnemonic lookup. */
std::optional<VaxOpcode> vaxOpcodeFromMnemonic(std::string_view mnemonic);

/** All opcodes, table order. */
const VaxOpInfo *vaxAllOpcodes(std::size_t &count);

/** Addressing-mode nibbles (specifier high nibble). */
enum class VaxMode : std::uint8_t
{
    Literal0 = 0x0,  ///< modes 0-3: 6-bit short literal
    Literal1 = 0x1,
    Literal2 = 0x2,
    Literal3 = 0x3,
    Register = 0x5,
    Deferred = 0x6,      ///< (Rn)
    AutoDec  = 0x7,      ///< -(Rn)
    AutoInc  = 0x8,      ///< (Rn)+ ; immediate when Rn = PC
    AutoIncDef = 0x9,    ///< @(Rn)+ ; absolute when Rn = PC
    DispByte = 0xa,      ///< disp8(Rn)
    DispWord = 0xc,      ///< disp16(Rn)
    DispLong = 0xe,      ///< disp32(Rn)
};

/** Per-specifier decode/EA-calculation cost in cycles. */
unsigned vaxSpecCycles(VaxMode mode);

} // namespace risc1

#endif // RISC1_VAX_VISA_HH

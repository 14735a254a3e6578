#include "isa/instruction.hh"

#include <array>

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "common/name_index.hh"

namespace risc1 {

namespace {

/** The opcode metadata table: RISC1_OPCODES, in its order. */
constexpr OpcodeInfo opcodeTable[] = {
#define RISC1_OPCODE_INFO(name, value, mnem, fmt, cls, cond, cc, handler, \
                          ...)                                            \
    {Opcode::name, mnem, Format::fmt, InstClass::cls, cond, cc, __VA_ARGS__},
    RISC1_OPCODES(RISC1_OPCODE_INFO)
#undef RISC1_OPCODE_INFO
};

/** Lookup by 7-bit opcode value; nullptr for illegal values. */
constexpr auto opcodeByValue = [] {
    std::array<const OpcodeInfo *, 128> t{};
    for (const auto &info : opcodeTable)
        t[static_cast<std::uint8_t>(info.op)] = &info;
    return t;
}();

/** Lookup by mnemonic. */
constexpr NameIndex opcodeByMnemonic(opcodeTable, &OpcodeInfo::mnemonic);

} // namespace

const OpcodeInfo *
opcodeInfo(Opcode op)
{
    return opcodeByValue[static_cast<std::uint8_t>(op) & 0x7f];
}

std::optional<Opcode>
opcodeFromMnemonic(std::string_view mnemonic)
{
    const int row = opcodeByMnemonic.find(mnemonic);
    if (row < 0)
        return std::nullopt;
    return opcodeTable[row].op;
}

const OpcodeInfo *
allOpcodes()
{
    return opcodeTable;
}

std::uint32_t
Instruction::encode() const
{
    const OpcodeInfo *info = opcodeInfo(op);
    if (!info)
        panic(cat("encoding illegal opcode ", static_cast<int>(op)));

    std::uint32_t word = 0;
    word = insertBits(word, 31, 25, static_cast<std::uint32_t>(op));
    word = insertBits(word, 24, 24, scc ? 1 : 0);
    word = insertBits(word, 23, 19, rd);

    if (info->format == Format::Long) {
        if (!fitsSigned(imm19, 19))
            fatal(cat(info->mnemonic, ": immediate ", imm19,
                      " does not fit in 19 bits"));
        word = insertBits(word, 18, 0,
                          static_cast<std::uint32_t>(imm19));
    } else {
        word = insertBits(word, 18, 14, rs1);
        word = insertBits(word, 13, 13, imm ? 1 : 0);
        if (imm) {
            if (!fitsSigned(simm13, 13))
                fatal(cat(info->mnemonic, ": immediate ", simm13,
                          " does not fit in 13 bits"));
            word = insertBits(word, 12, 0,
                              static_cast<std::uint32_t>(simm13));
        } else {
            word = insertBits(word, 12, 0, rs2 & 0x1f);
        }
    }
    return word;
}

Instruction
Instruction::decode(std::uint32_t word)
{
    Instruction inst;
    const auto opVal = static_cast<Opcode>(bits(word, 31, 25));
    const OpcodeInfo *info = opcodeInfo(opVal);
    if (!info)
        fatal(cat("illegal opcode field 0x", std::hex,
                  bits(word, 31, 25), " in instruction word 0x", word));

    inst.op = opVal;
    inst.scc = bits(word, 24, 24) != 0;
    inst.rd = static_cast<std::uint8_t>(bits(word, 23, 19));

    if (info->format == Format::Long) {
        inst.imm19 = sext(bits(word, 18, 0), 19);
    } else {
        inst.rs1 = static_cast<std::uint8_t>(bits(word, 18, 14));
        inst.imm = bits(word, 13, 13) != 0;
        if (inst.imm)
            inst.simm13 = sext(bits(word, 12, 0), 13);
        else
            inst.rs2 = static_cast<std::uint8_t>(bits(word, 4, 0));
    }
    return inst;
}

bool
Instruction::isLegal(std::uint32_t word)
{
    return opcodeInfo(static_cast<Opcode>(bits(word, 31, 25))) != nullptr;
}

Instruction
Instruction::alu(Opcode op, unsigned rd, unsigned rs1, unsigned rs2,
                 bool scc)
{
    Instruction inst;
    inst.op = op;
    inst.scc = scc;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.rs1 = static_cast<std::uint8_t>(rs1);
    inst.imm = false;
    inst.rs2 = static_cast<std::uint8_t>(rs2);
    return inst;
}

Instruction
Instruction::aluImm(Opcode op, unsigned rd, unsigned rs1, std::int32_t imm,
                    bool scc)
{
    Instruction inst;
    inst.op = op;
    inst.scc = scc;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.rs1 = static_cast<std::uint8_t>(rs1);
    inst.imm = true;
    inst.simm13 = imm;
    return inst;
}

Instruction
Instruction::ldhi(unsigned rd, std::int32_t imm19)
{
    Instruction inst;
    inst.op = Opcode::Ldhi;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.imm19 = imm19;
    return inst;
}

Instruction
Instruction::load(Opcode op, unsigned rd, unsigned rs1, std::int32_t offset)
{
    Instruction inst = aluImm(op, rd, rs1, offset);
    inst.op = op;
    return inst;
}

Instruction
Instruction::store(Opcode op, unsigned rm, unsigned rs1,
                   std::int32_t offset)
{
    Instruction inst = aluImm(op, rm, rs1, offset);
    inst.op = op;
    return inst;
}

Instruction
Instruction::jmp(Cond cond, unsigned rs1, std::int32_t offset)
{
    Instruction inst = aluImm(Opcode::Jmp,
                              static_cast<unsigned>(cond), rs1, offset);
    return inst;
}

Instruction
Instruction::jmpr(Cond cond, std::int32_t offset)
{
    Instruction inst;
    inst.op = Opcode::Jmpr;
    inst.rd = static_cast<std::uint8_t>(cond);
    inst.imm19 = offset;
    return inst;
}

Instruction
Instruction::call(unsigned rd, unsigned rs1, std::int32_t offset)
{
    return aluImm(Opcode::Call, rd, rs1, offset);
}

Instruction
Instruction::callr(unsigned rd, std::int32_t offset)
{
    Instruction inst;
    inst.op = Opcode::Callr;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.imm19 = offset;
    return inst;
}

Instruction
Instruction::ret(unsigned rs1, std::int32_t offset)
{
    return aluImm(Opcode::Ret, 0, rs1, offset);
}

Instruction
Instruction::nop()
{
    return aluImm(Opcode::Add, 0, 0, 0);
}

bool
isNop(const Instruction &inst)
{
    return inst == Instruction::nop();
}

} // namespace risc1

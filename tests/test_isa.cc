/** Unit and property tests for instruction encode/decode. */

#include <gtest/gtest.h>

#include <iterator>

#include "common/logging.hh"
#include "common/random.hh"
#include "isa/instruction.hh"
#include "helpers.hh"

namespace risc1 {
namespace {

TEST(Isa, ThirtyOneOpcodes)
{
    // The paper's headline: exactly 31 instructions.
    int legal = 0;
    for (int v = 0; v < 128; ++v)
        if (opcodeInfo(static_cast<Opcode>(v)))
            ++legal;
    EXPECT_EQ(legal, 31);
    EXPECT_EQ(numOpcodes, 31);
}

/**
 * Every opcode's facts, written out by hand in table order so the
 * opcode list is checked against values that do not come from it.
 * The operand columns are what one execution adds to the
 * register-operand counters, with a register s2 (imm = 0) and with an
 * immediate s2 (imm = 1); a call's count includes the return-address
 * write doCall() adds.
 */
struct OpcodeFacts
{
    const char *mnemonic;
    unsigned value;
    Format format;
    InstClass cls;
    bool rdIsCond;
    bool maySetCc;
    unsigned readsReg;  ///< regOperandReads added with imm = 0
    unsigned readsImm;  ///< regOperandReads added with imm = 1
    unsigned writes;    ///< regOperandWrites added
    bool delaySlot;     ///< the next instruction is a delay slot
};

constexpr Format S = Format::Short;
constexpr Format L = Format::Long;
using IC = InstClass;

constexpr OpcodeFacts kFacts[] = {
    {"add",    0x01, S, IC::Alu,     false, true,  2, 1, 1, false},
    {"addc",   0x02, S, IC::Alu,     false, true,  2, 1, 1, false},
    {"sub",    0x03, S, IC::Alu,     false, true,  2, 1, 1, false},
    {"subc",   0x04, S, IC::Alu,     false, true,  2, 1, 1, false},
    {"subr",   0x05, S, IC::Alu,     false, true,  2, 1, 1, false},
    {"subcr",  0x06, S, IC::Alu,     false, true,  2, 1, 1, false},
    {"and",    0x07, S, IC::Alu,     false, true,  2, 1, 1, false},
    {"or",     0x08, S, IC::Alu,     false, true,  2, 1, 1, false},
    {"xor",    0x09, S, IC::Alu,     false, true,  2, 1, 1, false},
    {"sll",    0x0a, S, IC::Alu,     false, true,  2, 1, 1, false},
    {"srl",    0x0b, S, IC::Alu,     false, true,  2, 1, 1, false},
    {"sra",    0x0c, S, IC::Alu,     false, true,  2, 1, 1, false},
    {"ldhi",   0x10, L, IC::Alu,     false, true,  0, 0, 1, false},
    {"ldl",    0x11, S, IC::Load,    false, false, 2, 1, 1, false},
    {"ldsu",   0x12, S, IC::Load,    false, false, 2, 1, 1, false},
    {"ldss",   0x13, S, IC::Load,    false, false, 2, 1, 1, false},
    {"ldbu",   0x14, S, IC::Load,    false, false, 2, 1, 1, false},
    {"ldbs",   0x15, S, IC::Load,    false, false, 2, 1, 1, false},
    {"stl",    0x19, S, IC::Store,   false, false, 3, 2, 0, false},
    {"sts",    0x1a, S, IC::Store,   false, false, 3, 2, 0, false},
    {"stb",    0x1b, S, IC::Store,   false, false, 3, 2, 0, false},
    {"jmp",    0x20, S, IC::Jump,    true,  false, 2, 1, 0, true},
    {"jmpr",   0x21, L, IC::Jump,    true,  false, 0, 0, 0, true},
    {"call",   0x22, S, IC::CallRet, false, false, 2, 1, 2, true},
    {"callr",  0x23, L, IC::CallRet, false, false, 0, 0, 2, true},
    {"ret",    0x24, S, IC::CallRet, false, false, 2, 1, 0, true},
    {"calli",  0x25, S, IC::CallRet, false, false, 0, 0, 2, false},
    {"reti",   0x26, S, IC::CallRet, false, false, 2, 1, 0, true},
    {"gtlpc",  0x28, S, IC::Special, false, false, 0, 0, 1, false},
    {"getpsw", 0x29, S, IC::Special, false, false, 0, 0, 1, false},
    {"putpsw", 0x2a, S, IC::Special, false, false, 1, 1, 0, false},
};

TEST(Isa, OpcodeTableMatchesPinnedFacts)
{
    ASSERT_EQ(std::size(kFacts), static_cast<std::size_t>(numOpcodes));
    for (int i = 0; i < numOpcodes; ++i) {
        const OpcodeFacts &f = kFacts[i];
        const OpcodeInfo &info = allOpcodes()[i];
        SCOPED_TRACE(f.mnemonic);
        EXPECT_EQ(info.mnemonic, f.mnemonic);
        EXPECT_EQ(static_cast<unsigned>(info.op), f.value);
        EXPECT_EQ(info.format, f.format);
        EXPECT_EQ(info.cls, f.cls);
        EXPECT_EQ(info.rdIsCond, f.rdIsCond);
        EXPECT_EQ(info.maySetCc, f.maySetCc);
        EXPECT_EQ(opcodeInfo(static_cast<Opcode>(f.value)), &info);
    }
}

TEST(Isa, OperandTrafficAndDelaySlotMatchPinnedFacts)
{
    for (const OpcodeFacts &f : kFacts) {
        for (const bool imm : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << f.mnemonic << " imm=" << imm);
            // Every other field is 0: operands are r0, addresses and
            // register targets 0.  A long-format Y of 8 keeps a taken
            // JMPR from halting on itself.
            Instruction inst;
            inst.op = static_cast<Opcode>(f.value);
            inst.imm = imm;
            if (f.format == Format::Long)
                inst.imm19 = 8;
            // A call and its slot first, so RET and RETI have a frame.
            Machine m;
            test::loadRaw(m, {Instruction::callr(31, 8), Instruction::nop(),
                              inst},
                          false);
            m.step();
            m.step();
            const RunStats before = m.stats();
            m.step();
            EXPECT_EQ(m.stats().regOperandReads - before.regOperandReads,
                      imm ? f.readsImm : f.readsReg);
            EXPECT_EQ(m.stats().regOperandWrites - before.regOperandWrites,
                      f.writes);
            EXPECT_EQ(m.snapshot().inDelaySlot, f.delaySlot);
        }
    }
}

TEST(Isa, MnemonicLookupRoundTrip)
{
    for (int i = 0; i < numOpcodes; ++i) {
        const OpcodeInfo &info = allOpcodes()[i];
        const auto op = opcodeFromMnemonic(info.mnemonic);
        ASSERT_TRUE(op.has_value()) << info.mnemonic;
        EXPECT_EQ(*op, info.op);
    }
    EXPECT_FALSE(opcodeFromMnemonic("bogus").has_value());
}

TEST(Isa, EncodeDecodeAluRegister)
{
    const Instruction inst = Instruction::alu(Opcode::Add, 3, 7, 21, true);
    const Instruction back = Instruction::decode(inst.encode());
    EXPECT_EQ(back, inst);
    EXPECT_TRUE(back.scc);
    EXPECT_EQ(back.rd, 3);
    EXPECT_EQ(back.rs1, 7);
    EXPECT_EQ(back.rs2, 21);
    EXPECT_FALSE(back.imm);
}

TEST(Isa, EncodeDecodeAluImmediate)
{
    for (const std::int32_t imm : {0, 1, -1, 4095, -4096, 1234, -777}) {
        const Instruction inst =
            Instruction::aluImm(Opcode::Sub, 15, 2, imm);
        const Instruction back = Instruction::decode(inst.encode());
        EXPECT_EQ(back, inst) << "imm=" << imm;
        EXPECT_EQ(back.simm13, imm);
    }
}

TEST(Isa, ImmediateOverflowRejected)
{
    const Instruction inst = Instruction::aluImm(Opcode::Add, 1, 1, 4096);
    EXPECT_THROW(inst.encode(), FatalError);
    const Instruction inst2 =
        Instruction::aluImm(Opcode::Add, 1, 1, -4097);
    EXPECT_THROW(inst2.encode(), FatalError);
}

TEST(Isa, LongImmediateRange)
{
    EXPECT_NO_THROW(Instruction::ldhi(1, 262143).encode());
    EXPECT_NO_THROW(Instruction::ldhi(1, -262144).encode());
    EXPECT_THROW(Instruction::ldhi(1, 262144).encode(), FatalError);
    EXPECT_THROW(Instruction::jmpr(Cond::Alw, 1 << 19).encode(),
                 FatalError);
}

TEST(Isa, EncodeDecodeLongFormat)
{
    for (const std::int32_t y : {0, 1, -1, 262143, -262144, 99999}) {
        const Instruction inst = Instruction::callr(31, y);
        const Instruction back = Instruction::decode(inst.encode());
        EXPECT_EQ(back.imm19, y);
        EXPECT_EQ(back.op, Opcode::Callr);
        EXPECT_EQ(back.rd, 31);
    }
}

TEST(Isa, JumpCarriesCondition)
{
    const Instruction inst = Instruction::jmp(Cond::Gtu, 5, -8);
    const Instruction back = Instruction::decode(inst.encode());
    EXPECT_EQ(back.cond(), Cond::Gtu);
    EXPECT_EQ(back.rs1, 5);
    EXPECT_EQ(back.simm13, -8);
}

TEST(Isa, IllegalOpcodeRejected)
{
    // 0x00 and 0x7f are not assigned.
    EXPECT_FALSE(Instruction::isLegal(0x00000000));
    EXPECT_FALSE(Instruction::isLegal(0xfe000000));
    EXPECT_THROW(Instruction::decode(0x00000000), FatalError);
}

TEST(Isa, NopIsCanonical)
{
    EXPECT_TRUE(isNop(Instruction::nop()));
    EXPECT_FALSE(isNop(Instruction::aluImm(Opcode::Add, 1, 0, 0)));
    EXPECT_FALSE(isNop(Instruction::aluImm(Opcode::Add, 0, 0, 1)));
}

/** Property sweep: random legal instructions round-trip exactly. */
class IsaRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(IsaRoundTrip, RandomInstructionsRoundTrip)
{
    Rng rng(GetParam());
    for (int iter = 0; iter < 2000; ++iter) {
        const OpcodeInfo &info =
            allOpcodes()[rng.below(numOpcodes)];
        Instruction inst;
        inst.op = info.op;
        inst.scc = info.maySetCc && rng.chance(1, 2);
        inst.rd = static_cast<std::uint8_t>(rng.below(32));
        if (info.format == Format::Long) {
            inst.imm19 =
                static_cast<std::int32_t>(rng.range(-262144, 262143));
        } else {
            inst.rs1 = static_cast<std::uint8_t>(rng.below(32));
            inst.imm = rng.chance(1, 2);
            if (inst.imm)
                inst.simm13 =
                    static_cast<std::int32_t>(rng.range(-4096, 4095));
            else
                inst.rs2 = static_cast<std::uint8_t>(rng.below(32));
        }
        const std::uint32_t word = inst.encode();
        ASSERT_TRUE(Instruction::isLegal(word));
        const Instruction back = Instruction::decode(word);
        ASSERT_EQ(back, inst)
            << "opcode " << info.mnemonic << " word 0x" << std::hex
            << word;
        // Re-encoding is stable.
        ASSERT_EQ(back.encode(), word);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsaRoundTrip,
                         ::testing::Values(1u, 42u, 0xdeadbeefu, 7777u));

} // namespace
} // namespace risc1

/** Edge-case tests for both assemblers' directives and layouts. */

#include <gtest/gtest.h>

#include <string>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "helpers.hh"
#include "vax/vassembler.hh"
#include "vax/vdisasm.hh"
#include "vax/vmachine.hh"

namespace risc1 {
namespace {

TEST(AsmEdges, MultipleOrgSegments)
{
    const Program prog = assembleRisc(R"(
        .org 0x1000
start:  bra   over
        nop
        halt
        .org 0x3000
over:   ldi   r1, 7
        jmpr  alw, back
        nop
        .org 0x1100
back:   halt
)");
    // jmpr across segments: 0x3000-region to 0x1100.
    Machine m;
    m.loadProgram(prog);
    m.run();
    EXPECT_EQ(m.reg(1), 7u);
    EXPECT_GE(prog.segments.size(), 3u);
}

TEST(AsmEdges, DotExpressionInDirectives)
{
    const Program prog = assembleRisc(R"(
start:  halt
here:   .word . , . + 4
)");
    Machine m;
    m.loadProgram(prog);
    const std::uint32_t here = prog.symbol("here");
    EXPECT_EQ(m.memory().peekWord(here), here);
    EXPECT_EQ(m.memory().peekWord(here + 4), here + 4);
}

TEST(AsmEdges, EquChains)
{
    const Program prog = assembleRisc(R"(
        .equ a, 10
        .equ b, a + 5
        .equ c, b + a
start:  ldi   r1, c
        halt
)");
    Machine m;
    m.loadProgram(prog);
    m.run();
    EXPECT_EQ(m.reg(1), 25u);
}

TEST(AsmEdges, AlignFromOddAddress)
{
    const Program prog = assembleRisc(R"(
start:  halt
bytes:  .byte 1
        .align 8
aligned: .word 42
)");
    EXPECT_EQ(prog.symbol("aligned") % 8, 0u);
}

TEST(AsmEdges, MaxWidthImmediates)
{
    Machine m;
    test::loadAsm(m, R"(
start:  add   r1, r0, 4095    ; largest positive simm13
        add   r2, r0, -4096   ; most negative
        ldhi  r3, 0x3ffff     ; large positive imm19
        halt
)");
    m.run();
    EXPECT_EQ(m.reg(1), 4095u);
    EXPECT_EQ(m.reg(2), static_cast<std::uint32_t>(-4096));
    EXPECT_EQ(m.reg(3), 0x3ffffu << 13);
}

TEST(AsmEdges, JmprRangeLimits)
{
    // A branch further than +-256 KiB must be rejected cleanly.
    EXPECT_THROW(assembleRisc(R"(
start:  bra   far
        nop
        .org 0x100000
far:    halt
)"),
                 FatalError);
}

TEST(AsmEdges, NegativeOrgRejected)
{
    EXPECT_THROW(assembleRisc(".org 0 - 4\nstart: halt\n"),
                 FatalError);
    EXPECT_THROW(assembleRisc(".org 2\nstart: halt\n"), FatalError);
}

/** The shared directive rules, checked on each ISA by name. */
class SharedDirectiveRules : public ::testing::TestWithParam<const char *>
{
  protected:
    Program
    assemble(const std::string &source) const
    {
        return std::string(GetParam()) == "risc" ? assembleRisc(source)
                                                 : assembleVax(source);
    }
};

TEST_P(SharedDirectiveRules, NegativeSpaceOrgAndAlignFail)
{
    // Cast to 32 bits these would allocate 4 GiB, allocate 2 GiB, and
    // wrap the location counter to 0xfffffffc.
    EXPECT_THROW(assemble("start: halt\n.space 0 - 4\n"), FatalError);
    EXPECT_THROW(assemble("start: halt\n.align 0 - 2147483648\n"),
                 FatalError);
    EXPECT_THROW(assemble(".org 0 - 4\nstart: halt\n"), FatalError);
    EXPECT_THROW(assemble("start: halt\n.align 0\n"), FatalError);
}

TEST_P(SharedDirectiveRules, ValuesBeyond32BitsFail)
{
    // A 2^32 alignment once truncated to 0 and divided by it.
    EXPECT_THROW(assemble("start: halt\n.align 0x100000000\n"),
                 FatalError);
    EXPECT_THROW(assemble(".org 0x100001000\nstart: halt\n"),
                 FatalError);
    EXPECT_THROW(assemble("start: halt\n.space 0x100000004\n"),
                 FatalError);
}

TEST_P(SharedDirectiveRules, OperandsOfTheWrongKindFail)
{
    EXPECT_THROW(assemble("start: halt\n.word r5\n"), FatalError);
    EXPECT_THROW(assemble("start: halt\n.word 4(r1)\n"), FatalError);
    EXPECT_THROW(assemble("start: halt\n.word \"ab\"\n"), FatalError);
    EXPECT_THROW(assemble("start: halt\n.space \"ab\"\n"), FatalError);
    EXPECT_THROW(assemble(".entry \"ab\"\nstart: halt\n"), FatalError);
    EXPECT_THROW(assemble(".equ r5, 3\nstart: halt\n"), FatalError);
    EXPECT_THROW(assemble("start: halt\n.ascii 3\n"), FatalError);
    EXPECT_THROW(assemble("start: halt\n.bogus 3\n"), FatalError);
}

TEST_P(SharedDirectiveRules, LocationCounterPast32BitsFails)
{
    // The counter once wrapped: y landed at 0x8.
    EXPECT_THROW(assemble(".org 0xfffffff8\nstart: halt\n"
                          "x: .word 1, 2, 3\ny: halt\n"),
                 FatalError);
    // A label after the last byte would have been bound to 0.
    EXPECT_THROW(assemble(".org 0xfffffff8\nstart: .word 1, 2\nend:\n"),
                 FatalError);
    EXPECT_THROW(assemble(".org 0xfffffff8\nstart: .word 1, 2\n"
                          ".word 3\n"),
                 FatalError);
    // Ending at the last byte is allowed, and so is an .org back down.
    const Program atTop =
        assemble(".org 0xfffffff8\nstart: .word 1, 2\n");
    EXPECT_EQ(atTop.segments.at(0).bytes.size(), 8u);
    EXPECT_NO_THROW(assemble(".org 0xfffffffc\n.word 1\n.org 0x2000\n"
                             "start: halt\n"));
}

INSTANTIATE_TEST_SUITE_P(BothIsas, SharedDirectiveRules,
                         ::testing::Values("risc", "vax"));

TEST(AsmEdges, ExpressionsInOperands)
{
    Machine m;
    test::loadAsm(m, R"(
        .equ  base, 0x2000
start:  ldi   r2, base
        ldi   r3, 99
        stl   r3, base + 8 - base(r2)  ; displacement 8
        ldl   r1, 8(r2)
        halt
)");
    m.run();
    EXPECT_EQ(m.reg(1), 99u);
}

TEST(AsmEdges, VaxStringAndBytesLayout)
{
    const Program prog = assembleVax(R"(
start:  halt
msg:    .ascii "AB", "CD"
term:   .asciz "!"
nums:   .byte 1, 2, 255
)");
    VaxMachine vm;
    vm.loadProgram(prog);
    const std::uint32_t msg = prog.symbol("msg");
    EXPECT_EQ(vm.memory().peekByte(msg + 0), 'A');
    EXPECT_EQ(vm.memory().peekByte(msg + 3), 'D');
    EXPECT_EQ(vm.memory().peekByte(prog.symbol("term") + 1), 0);
    EXPECT_EQ(vm.memory().peekByte(prog.symbol("nums") + 2), 255);
}

TEST(AsmEdges, VaxMaskUsesTheDirectiveExpressionGrammar)
{
    // A leading '-' negates only the first term, as in every other
    // directive: -1 + 2 is 1, and -a + b is b - a.
    const Program prog = assembleVax(R"(
        .equ a, 2
        .equ b, 7
func:   .mask -1 + 2, -a + b
        halt
)");
    ASSERT_EQ(prog.segments.size(), 1u);
    const auto &seg = prog.segments[0];
    EXPECT_EQ(seg.kind, SegmentKind::Code);
    ASSERT_GE(seg.bytes.size(), 4u);
    EXPECT_EQ(seg.bytes[0], 0x01);
    EXPECT_EQ(seg.bytes[1], 0x00);
    EXPECT_EQ(seg.bytes[2], 0x05);
    EXPECT_EQ(seg.bytes[3], 0x00);
    EXPECT_THROW(assembleVax("f: .mask \"ab\"\n"), FatalError);
}

TEST(AsmEdges, VaxLeadingMinusNegatesTheFirstTermOnly)
{
    // The operand once negated every term: -4 + 8 became -12.
    const auto disasm = [](const std::string &operand) {
        const Program prog =
            assembleVax("start: movl " + operand + ", r0\n");
        const auto &seg = prog.segments.at(0);
        return vaxDisassembleAt(seg.bytes, 0, seg.base).text;
    };
    EXPECT_EQ(disasm("-4 + 8(r2)"), "movl 4(r2), r0");
    EXPECT_EQ(disasm("-4 - 8(r2)"), "movl -12(r2), r0");
    EXPECT_EQ(disasm("-8(r2)"), "movl -8(r2), r0");
}

TEST(AsmEdges, VaxShortLiteralBoundary)
{
    // 63 fits the 1-byte short-literal form; 64 needs an immediate.
    const Program p63 = assembleVax("start: movl #63, r0\n");
    const Program p64 = assembleVax("start: movl #64, r0\n");
    // The 1-byte short literal becomes a 5-byte immediate: +4 bytes.
    EXPECT_EQ(p63.codeBytes() + 4, p64.codeBytes());
    VaxMachine m;
    m.loadProgram(assembleVax("start: movl #63, r0\n movl #64, r1\n"
                              " halt\n"));
    m.run();
    EXPECT_EQ(m.reg(0), 63u);
    EXPECT_EQ(m.reg(1), 64u);
}

TEST(AsmEdges, RiscEntryFallsBackToFirstCode)
{
    const Program prog = assembleRisc(R"(
main_loop:  halt
)");
    EXPECT_EQ(prog.entry, 0x1000u);
}

TEST(AsmEdges, CaseInsensitiveConditionsAndRegisters)
{
    Machine m;
    test::loadAsm(m, R"(
start:  LDI   R1, 5
        CMP   R1, 5
        BEQ   ok
        NOP
        CLR   R1
ok:     HALT
)");
    m.run();
    EXPECT_EQ(m.reg(1), 5u);
}

} // namespace
} // namespace risc1

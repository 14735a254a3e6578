/** Condition-code semantics and branch-family tests for the baseline. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/random.hh"
#include "vax/vassembler.hh"
#include "vax/vmachine.hh"

namespace risc1 {
namespace {

/** Run "cmpl #a, #b" then every conditional branch; returns a mask of
 *  which branches were taken (bit i = branch i). */
std::uint32_t
branchMask(std::uint32_t a, std::uint32_t b)
{
    // Each branch, when taken, sets one bit of r0.
    std::ostringstream src;
    src << "start:  clrl r0\n"
        << "        movl #" << a << ", r1\n"
        << "        movl #" << b << ", r2\n";
    const char *branches[] = {"beql", "bneq", "blss", "bleq",
                              "bgtr", "bgeq", "blssu", "blequ",
                              "bgtru", "bgequ"};
    for (int i = 0; i < 10; ++i) {
        src << "        cmpl r1, r2\n"
            << "        " << branches[i] << " yes" << i << "\n"
            << "        brb  no" << i << "\n"
            << "yes" << i << ": bisl2 #" << (1 << i) << ", r0\n"
            << "no" << i << ":  nop\n";
    }
    src << "        halt\n";

    VaxMachine m;
    m.loadProgram(assembleVax(src.str()));
    m.run(100000);
    return m.reg(0);
}

std::uint32_t
referenceMask(std::uint32_t a, std::uint32_t b)
{
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    std::uint32_t mask = 0;
    if (a == b) mask |= 1 << 0;          // beql
    if (a != b) mask |= 1 << 1;          // bneq
    if (sa < sb) mask |= 1 << 2;         // blss
    if (sa <= sb) mask |= 1 << 3;        // bleq
    if (sa > sb) mask |= 1 << 4;         // bgtr
    if (sa >= sb) mask |= 1 << 5;        // bgeq
    if (a < b) mask |= 1 << 6;           // blssu
    if (a <= b) mask |= 1 << 7;          // blequ
    if (a > b) mask |= 1 << 8;           // bgtru
    if (a >= b) mask |= 1 << 9;          // bgequ
    return mask;
}

TEST(VaxFlags, BranchFamilyOnRepresentativePairs)
{
    const std::pair<std::uint32_t, std::uint32_t> pairs[] = {
        {0, 0},
        {1, 2},
        {2, 1},
        {0xffffffff, 1},          // -1 vs 1: signed/unsigned split
        {1, 0xffffffff},
        {0x80000000, 0x7fffffff}, // INT_MIN vs INT_MAX (overflow case)
        {0x7fffffff, 0x80000000},
        {42, 42},
    };
    for (const auto &[a, b] : pairs)
        EXPECT_EQ(branchMask(a, b), referenceMask(a, b))
            << a << " vs " << b;
}

/** Property sweep with random operands. */
class VaxBranchProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(VaxBranchProperty, RandomPairsMatchReference)
{
    Rng rng(GetParam());
    for (int iter = 0; iter < 25; ++iter) {
        const auto a = static_cast<std::uint32_t>(rng.next());
        const auto b = rng.chance(1, 3)
                           ? a
                           : static_cast<std::uint32_t>(rng.next());
        ASSERT_EQ(branchMask(a, b), referenceMask(a, b))
            << a << " vs " << b;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VaxBranchProperty,
                         ::testing::Values(3u, 17u, 4242u));

TEST(VaxFlags, ArithmeticSetsNZ)
{
    VaxMachine m;
    m.loadProgram(assembleVax(R"(
start:  movl  #1, r1
        subl2 #1, r1          ; result 0: Z
        halt
)"));
    m.run();
    EXPECT_TRUE(m.cc().z);
    EXPECT_FALSE(m.cc().n);
}

TEST(VaxFlags, SubSetsBorrowAndOverflow)
{
    VaxMachine m;
    m.loadProgram(assembleVax(R"(
start:  movl  #3, r1
        subl2 #5, r1          ; 3 - 5: borrow, negative
        halt
)"));
    m.run();
    EXPECT_TRUE(m.cc().c);
    EXPECT_TRUE(m.cc().n);
    EXPECT_FALSE(m.cc().v);

    VaxMachine m2;
    m2.loadProgram(assembleVax(R"(
start:  movl  #0x80000000, r1
        subl2 #1, r1          ; INT_MIN - 1: signed overflow
        halt
)"));
    m2.run();
    EXPECT_TRUE(m2.cc().v);
}

TEST(VaxFlags, MoveSetsNZClearsVC)
{
    VaxMachine m;
    m.loadProgram(assembleVax(R"(
start:  movl  #3, r1
        subl2 #5, r1          ; C set
        movl  #0x80000000, r2 ; mov: N set, C/V cleared
        halt
)"));
    m.run();
    EXPECT_TRUE(m.cc().n);
    EXPECT_FALSE(m.cc().z);
    EXPECT_FALSE(m.cc().c);
    EXPECT_FALSE(m.cc().v);
}

TEST(VaxFlags, TstlAndLoopBranches)
{
    VaxMachine m;
    m.loadProgram(assembleVax(R"(
start:  clrl  r0
        movl  #5, r1
again:  incl  r0
        sobgtr r1, again      ; loop flags come from the decrement
        tstl  r0
        beql  zero
        movl  #1, r2
zero:   halt
)"));
    m.run();
    EXPECT_EQ(m.reg(0), 5u);
    EXPECT_EQ(m.reg(2), 1u);
}

/**
 * Run @p source to halt through step() and, on a twin, through
 * runFast(); both tiers must end in the same state.  @return the
 * step() machine.
 */
VaxMachine
runBothTiers(const std::string &source)
{
    const Program prog = assembleVax(source);
    VaxMachine slow, fast;
    slow.loadProgram(prog);
    fast.loadProgram(prog);
    slow.run(1000);
    EXPECT_TRUE(fast.runFast(1000).halted);
    EXPECT_TRUE(slow.snapshot() == fast.snapshot())
        << "step and runFast disagree";
    return slow;
}

TEST(VaxFlags, DivlOverflowKeepsLowBitsAndSetsV)
{
    // INT32_MIN / -1: the true quotient 2^31 does not fit, so the
    // destination gets its low 32 bits with V set.  A host divide of
    // these operands traps (SIGFPE) and would kill the process.
    const std::pair<const char *, unsigned> forms[] = {
        {"divl3 r2, r1, r0", 0}, {"divl2 r2, r1", 1}};
    for (const auto &[div, dst] : forms) {
        SCOPED_TRACE(div);
        const VaxMachine m = runBothTiers(
            std::string("start:  movl  #0x80000000, r1\n"
                        "        movl  #0xffffffff, r2\n"
                        "        ") +
            div + "\n        halt\n");
        EXPECT_EQ(m.reg(dst), 0x80000000u);
        EXPECT_TRUE(m.cc().v);
        EXPECT_TRUE(m.cc().n);
        EXPECT_FALSE(m.cc().z);
        EXPECT_FALSE(m.cc().c);
    }

    // The flags are DIVL's own: V set, then cleared by the next
    // in-range quotient.
    const VaxMachine v = runBothTiers(R"(
start:  movl  #0x80000000, r1
        movl  #0xffffffff, r2
        divl3 r2, r1, r0
        bvc   clear
        movl  #1, r3
clear:  divl3 #2, #8, r4
        bvs   set
        movl  #1, r5
set:    halt
)");
    EXPECT_EQ(v.reg(3), 1u);
    EXPECT_EQ(v.reg(4), 4u);
    EXPECT_EQ(v.reg(5), 1u);
}

TEST(VaxFlags, AshlClampsHugeNegativeCounts)
{
    // Counts at or below -31 shift right by 31, down to INT32_MIN,
    // whose negation would overflow.
    const VaxMachine m = runBothTiers(R"(
start:  movl  #0x80000000, r3   ; count INT32_MIN
        movl  #0x80000010, r1   ; negative source
        movl  #0x7fffffff, r2   ; non-negative source
        ashl  r3, r1, r4
        ashl  r3, r2, r5
        movl  #0xffffffe1, r6   ; count -31
        ashl  r6, r1, r7
        ashl  r6, r2, r8
        movl  #0xffffffe2, r6   ; count -30
        ashl  r6, r1, r9
        ashl  r6, r2, r10
        halt
)");
    EXPECT_EQ(m.reg(4), 0xffffffffu);
    EXPECT_EQ(m.reg(5), 0u);
    EXPECT_EQ(m.reg(7), 0xffffffffu);
    EXPECT_EQ(m.reg(8), 0u);
    EXPECT_EQ(m.reg(9), 0xfffffffeu);
    EXPECT_EQ(m.reg(10), 1u);
}

} // namespace
} // namespace risc1

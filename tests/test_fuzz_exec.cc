/**
 * Seeded execution fuzzing: generate valid-by-construction instruction
 * sequences and assert three properties over them —
 *
 *  (a) the simulator neither crashes nor trips undefined behavior
 *      (run the suite under -DSANITIZE=ON to enforce the UB half);
 *  (b) assembling the disassembly of every generated instruction
 *      reproduces the identical encoding (pc-relative JMPR/CALLR are
 *      exempt, as in test_disasm.cc: their textual operand is an
 *      absolute target the assembler re-anchors);
 *  (c) step() and runFast() agree bit-for-bit on the final machine
 *      state.  The tiers share their decode record and handlers, so
 *      this polices the decode cache and its invalidation; the
 *      semantics are judged by independent oracles (the RL reference
 *      interpreter, workload checksums, tests/golden/fault_fuzz.txt).
 *
 * Every assertion carries the failing seed so a divergence reproduces
 * with a one-line test filter.
 *
 * Generator invariants that make sequences valid by construction:
 * global r1 is the data base (0x8000) and is never a destination, so
 * loads/stores always hit an in-range, width-aligned address; control
 * transfers are strictly forward with no transfer in a delay slot, so
 * every program terminates at its trailing halt; RET/RETI/CALLI are
 * excluded (an unmatched return underflows into unmapped frames).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "helpers.hh"
#include "isa/disasm.hh"

namespace risc1 {
namespace {

constexpr std::uint32_t kDataBase = 0x8000; // ldhi r1, 4

/** Opcode pools the generator draws from. */
const Opcode kAluOps[] = {
    Opcode::Add, Opcode::Addc, Opcode::Sub,  Opcode::Subc,
    Opcode::Subr, Opcode::Subcr, Opcode::And, Opcode::Or,
    Opcode::Xor, Opcode::Sll,  Opcode::Srl,  Opcode::Sra,
};
const Opcode kLoadOps[] = {
    Opcode::Ldl, Opcode::Ldsu, Opcode::Ldss, Opcode::Ldbu, Opcode::Ldbs,
};
const Opcode kStoreOps[] = {Opcode::Stl, Opcode::Sts, Opcode::Stb};
const Cond kConds[] = {
    Cond::Never, Cond::Alw, Cond::Eq, Cond::Ne,  Cond::Lt,  Cond::Ge,
    Cond::Le,    Cond::Gt,  Cond::Ltu, Cond::Geu, Cond::Leu, Cond::Gtu,
    Cond::Mi,    Cond::Pl,  Cond::Vs,  Cond::Vc,
};

unsigned
dataReg(Rng &rng) // any global source register
{
    return static_cast<unsigned>(rng.below(10));
}

unsigned
destReg(Rng &rng) // global destination, never the r1 data base
{
    const unsigned r = static_cast<unsigned>(rng.below(8)) + 2;
    return r; // r2..r9
}

std::int32_t
alignedOffset(Rng &rng, unsigned width)
{
    return static_cast<std::int32_t>(rng.below(4096 / width) * width);
}

/**
 * Generate one terminating program: an `ldhi r1, 4` prologue, @p n
 * body instructions, and a trailing halt (appended by loadRaw).
 * Transfer targets are expressed as body indices and fixed up to
 * pc-relative offsets once the layout is final.
 */
std::vector<Instruction>
generateProgram(Rng &rng, std::size_t n)
{
    std::vector<Instruction> body;
    body.push_back(Instruction::ldhi(1, kDataBase >> 13));

    bool prevWasTransfer = true; // no transfer right after the prologue
    while (body.size() < n) {
        const std::size_t i = body.size();
        // Kinds: 0-4 ALU, 5 load, 6 store, 7 transfer, 8 special.
        std::uint64_t kind = rng.below(9);
        if (prevWasTransfer && kind == 7)
            kind = 0; // no transfer in a delay slot
        if (kind == 7 && i + 2 >= n)
            kind = 0; // too close to the halt for target + slot
        prevWasTransfer = false;

        switch (kind) {
          case 5: {
            const Opcode op = kLoadOps[rng.below(std::size(kLoadOps))];
            const unsigned width =
                op == Opcode::Ldl ? 4
                                  : (op == Opcode::Ldsu ||
                                     op == Opcode::Ldss)
                                        ? 2
                                        : 1;
            body.push_back(Instruction::load(op, destReg(rng), 1,
                                             alignedOffset(rng, width)));
            break;
          }
          case 6: {
            const Opcode op = kStoreOps[rng.below(std::size(kStoreOps))];
            const unsigned width = op == Opcode::Stl
                                       ? 4
                                       : op == Opcode::Sts ? 2 : 1;
            body.push_back(Instruction::store(op, dataReg(rng), 1,
                                              alignedOffset(rng, width)));
            break;
          }
          case 7: {
            // Forward transfer to a body slot in (i+1, n]; index n is
            // the halt.  Encoded as a pc-relative slot delta for now.
            const std::int32_t delta = static_cast<std::int32_t>(
                rng.range(2, static_cast<std::int64_t>(n - i)));
            if (rng.chance(1, 4))
                body.push_back(Instruction::callr(destReg(rng),
                                                  4 * delta));
            else
                body.push_back(Instruction::jmpr(
                    kConds[rng.below(std::size(kConds))], 4 * delta));
            prevWasTransfer = true;
            break;
          }
          case 8: {
            if (rng.chance(1, 3)) {
                body.push_back(Instruction::ldhi(
                    destReg(rng),
                    static_cast<std::int32_t>(rng.range(-1000, 1000))));
                break;
            }
            Instruction inst;
            inst.op = rng.chance(1, 2) ? Opcode::Getpsw : Opcode::Gtlpc;
            inst.rd = static_cast<std::uint8_t>(destReg(rng));
            body.push_back(inst);
            break;
          }
          default: {
            const Opcode op = kAluOps[rng.below(std::size(kAluOps))];
            const bool scc = rng.chance(1, 3);
            if (rng.chance(1, 2)) {
                body.push_back(Instruction::aluImm(
                    op, destReg(rng), dataReg(rng),
                    static_cast<std::int32_t>(rng.range(-4096, 4095)),
                    scc));
            } else {
                body.push_back(Instruction::alu(op, destReg(rng),
                                                dataReg(rng),
                                                dataReg(rng), scc));
            }
            break;
          }
        }
    }
    return body;
}

/** Outcome of driving one machine to halt (or a step budget). */
struct Drive
{
    bool halted = false;
    bool faulted = false;
    std::uint64_t steps = 0;
    std::string error;
};

Drive
driveSlow(Machine &m, std::uint64_t cap)
{
    Drive d;
    try {
        while (!m.halted() && d.steps < cap) {
            m.step();
            ++d.steps;
        }
        d.halted = m.halted();
    } catch (const FatalError &e) {
        d.faulted = true;
        d.error = e.what();
    }
    return d;
}

Drive
driveFast(Machine &m, std::uint64_t cap)
{
    Drive d;
    try {
        const RunOutcome out = m.runFast(cap);
        d.steps = out.steps;
        d.halted = out.halted;
    } catch (const FatalError &e) {
        d.faulted = true;
        d.error = e.what();
    }
    return d;
}

class FuzzExec : public ::testing::TestWithParam<std::uint64_t>
{};

/** Properties (a) and (c): no crashes, and path agreement, per seed. */
TEST_P(FuzzExec, FastAndSlowPathsAgree)
{
    Rng rng(GetParam());
    for (int round = 0; round < 40; ++round) {
        const std::uint64_t seed = GetParam();
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << seed << " round=" << round);
        const std::vector<Instruction> prog =
            generateProgram(rng, 16 + rng.below(120));
        const std::uint64_t cap = 10 * prog.size() + 1000;

        Machine slow, fast;
        test::loadRaw(slow, prog);
        test::loadRaw(fast, prog);
        const Drive ds = driveSlow(slow, cap);
        const Drive df = driveFast(fast, cap);

        // Valid-by-construction sequences must terminate cleanly...
        EXPECT_FALSE(ds.faulted) << ds.error;
        EXPECT_TRUE(ds.halted);
        // ...and the fast path must agree step for step, fault for
        // fault, bit for bit.
        EXPECT_EQ(ds.faulted, df.faulted);
        EXPECT_EQ(ds.error, df.error);
        EXPECT_EQ(ds.halted, df.halted);
        EXPECT_EQ(ds.steps, df.steps);
        const bool same = slow.snapshot() == fast.snapshot();
        EXPECT_TRUE(same) << "state divergence; reproduce with seed "
                          << seed << " round " << round;
        if (ds.faulted || !same)
            break; // later rounds share the Rng stream; stop at first
    }
}

/** Property (b): disassemble → assemble is the identity encoding. */
TEST_P(FuzzExec, DisassemblyRoundTripsToSameWords)
{
    Rng rng(GetParam());
    for (int round = 0; round < 10; ++round) {
        const std::vector<Instruction> prog =
            generateProgram(rng, 16 + rng.below(120));
        for (const Instruction &inst : prog) {
            // Pc-relative transfers render an absolute target; the
            // assembler re-anchors it, so identity does not apply.
            if (inst.op == Opcode::Jmpr || inst.op == Opcode::Callr)
                continue;
            const std::string text = disassemble(inst);
            const Program p = assembleRisc("start: " + text + "\n");
            std::uint32_t word = 0;
            for (int b = 3; b >= 0; --b)
                word = (word << 8) |
                       p.segments.at(0).bytes.at(
                           static_cast<std::size_t>(b));
            ASSERT_EQ(word, inst.encode())
                << text << " (seed " << GetParam() << ")";
        }
    }
}

/**
 * Property (a) on hostile input: fully random words are fetched and
 * executed until halt, fault, or budget.  Both paths must do the same
 * thing — including throwing the same fault from the same state.
 */
TEST_P(FuzzExec, RandomWordsFaultIdentically)
{
    Rng rng(GetParam() ^ 0xf00dull);
    for (int round = 0; round < 40; ++round) {
        SCOPED_TRACE(::testing::Message() << "seed=" << GetParam()
                                          << " round=" << round);
        Machine slow, fast;
        Rng twin = rng;
        test::loadRandomWords(slow, rng);
        test::loadRandomWords(fast, twin);

        const Drive ds = driveSlow(slow, 500);
        const Drive df = driveFast(fast, 500);
        EXPECT_EQ(ds.faulted, df.faulted);
        EXPECT_EQ(ds.error, df.error);
        EXPECT_EQ(ds.halted, df.halted);
        // A fault propagates out of runFast before it can report its
        // step count, so compare counts only on clean runs; on faults
        // the snapshot equality below pins stats.instructions anyway.
        if (!ds.faulted) {
            EXPECT_EQ(ds.steps, df.steps);
        }
        EXPECT_TRUE(slow.snapshot() == fast.snapshot())
            << "state divergence; seed " << GetParam() << " round "
            << round;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzExec,
                         ::testing::Values(1u, 2u, 42u, 0xdeadbeefu,
                                           20260806u));

} // namespace
} // namespace risc1

/**
 * Lockstep tests for the VAX decode cache.
 *
 * step() and runFast() run the same decode record (predecodeAt)
 * through the same issue() code; they differ only in that runFast
 * serves the record from a decode cache.  These tests police that
 * cache: they run the same program on two machines — one per tier —
 * and assert the complete VaxSnapshots are equal, over every
 * benchmark workload and the cases that stress decode-cache
 * invalidation (self-modifying code, snapshot restore) and mixed
 * stepping.  The semantics themselves are judged by independent
 * oracles: the RL reference interpreter, the workload checksums, and
 * the goldens under tests/golden/ (fault_fuzz.txt pins decode-fault
 * state).  The mirror of tests/test_fast_path.cc for the CISC
 * baseline.
 */

#include <gtest/gtest.h>

#include <string>

#include "vax/vassembler.hh"
#include "vax/vmachine.hh"
#include "workloads/workloads.hh"

namespace risc1 {
namespace {

/**
 * Assert two snapshots are equal, pointing at the first interesting
 * field that differs (the defaulted operator== is the real oracle;
 * the per-field checks just make failures readable).
 */
void
expectSameState(const VaxSnapshot &slow, const VaxSnapshot &fast)
{
    EXPECT_EQ(slow.regs, fast.regs);
    EXPECT_EQ(slow.halted, fast.halted);
    EXPECT_TRUE(slow.cc == fast.cc);
    EXPECT_EQ(slow.stats.instructions, fast.stats.instructions);
    EXPECT_EQ(slow.stats.cycles, fast.stats.cycles);
    EXPECT_EQ(slow.stats.instrBytes, fast.stats.instrBytes);
    EXPECT_EQ(slow.stats.regOperandReads, fast.stats.regOperandReads);
    EXPECT_EQ(slow.stats.regOperandWrites, fast.stats.regOperandWrites);
    EXPECT_EQ(slow.stats.memOperandReads, fast.stats.memOperandReads);
    EXPECT_EQ(slow.stats.memOperandWrites, fast.stats.memOperandWrites);
    EXPECT_EQ(slow.memStats.fetches, fast.memStats.fetches);
    EXPECT_EQ(slow.memStats.reads, fast.memStats.reads);
    EXPECT_EQ(slow.memStats.writes, fast.memStats.writes);
    EXPECT_EQ(slow.pages.size(), fast.pages.size());
    // The full field-for-field oracle (class mix, call depths, memory
    // pages, ...).
    EXPECT_TRUE(slow == fast) << "snapshots differ beyond the fields "
                                 "reported above";
}

/** Run @p source through both paths and compare the final states. */
void
expectLockstep(const std::string &source,
               const VaxConfig &config = VaxConfig{},
               std::uint64_t maxSteps = 50'000'000)
{
    const Program prog = assembleVax(source);

    VaxMachine slow(config);
    slow.loadProgram(prog);
    std::uint64_t steps = 0;
    while (!slow.halted() && steps < maxSteps) {
        slow.step();
        ++steps;
    }
    ASSERT_TRUE(slow.halted()) << "step() tier did not halt";

    VaxMachine fast(config);
    fast.loadProgram(prog);
    const RunOutcome out = fast.runFast(maxSteps);
    EXPECT_TRUE(out.halted);
    EXPECT_EQ(out.steps, steps);
    expectSameState(slow.snapshot(), fast.snapshot());
}

TEST(VaxFastPath, AllWorkloads)
{
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.id);
        expectLockstep(w.vaxSource);

        // And the fast path alone still produces the reference
        // checksum in r0.
        VaxMachine m;
        m.loadProgram(assembleVax(w.vaxSource));
        ASSERT_TRUE(m.runFast().halted);
        EXPECT_EQ(m.reg(0), w.expected);
    }
}

TEST(VaxFastPath, TimingCalibrations)
{
    // The specifier/memory cycle accounting must replay exactly under
    // every calibration the baseline-family experiment sweeps.
    VaxConfig slowMem;
    slowMem.memAccessCycles = 3;
    slowMem.perRegSaveCycles = 3;
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.id);
        expectLockstep(w.vaxSource, slowMem);
    }
}

TEST(VaxFastPath, AddressingModeSweep)
{
    // One program touching every statically replayable specifier kind:
    // short literal, register, immediate, absolute, deferred,
    // displacement, auto-increment/decrement, and both branch widths.
    expectLockstep(R"(
start:  movl   #0x11223344, r1  ; 32-bit immediate
        movl   #5, r2           ; short literal
        movl   r1, 0x4000       ; absolute write
        moval  0x4000, r3
        movl   (r3), r4         ; deferred read
        movl   #3, r5
loop:   movl   r4, (r3)+        ; auto-increment
        sobgtr r5, loop         ; byte branch
        movl   -(r3), r6        ; auto-decrement
        movl   4(r3), r7        ; byte displacement
        brw    join             ; word branch
        halt                    ; skipped
join:   addl3  r6, r7, r0
        halt
)");
}

TEST(VaxFastPath, ChunkedRunMatchesMonolithic)
{
    // runFast in dribs and drabs — interleaved with plain step() —
    // must land on exactly the same state as one monolithic call.
    const Workload &w = findWorkload("fib_rec");
    const Program prog = assembleVax(w.vaxSource);

    VaxMachine mono;
    mono.loadProgram(prog);
    ASSERT_TRUE(mono.runFast().halted);

    VaxMachine mixed;
    mixed.loadProgram(prog);
    std::uint64_t budget = 1;
    while (!mixed.halted()) {
        mixed.runFast(budget);
        budget = budget * 2 + 1;
        if (!mixed.halted())
            mixed.step();
    }
    expectSameState(mono.snapshot(), mixed.snapshot());
}

TEST(VaxFastPath, SelfModifyingCodeInvalidates)
{
    // Patch an instruction's immediate bytes mid-run on both machines:
    // the fast path's decode cache must notice the code-line write and
    // re-decode, keeping lockstep with step(), which decodes afresh.
    const char *const source = R"(
start:  clrl   r0
        movl   #40, r2
loop:   movl   #0x11223344, r1
        addl2  r1, r0
        sobgtr r2, loop
        halt
)";
    const Program prog = assembleVax(source);

    VaxMachine slow, fast;
    slow.loadProgram(prog);
    fast.loadProgram(prog);

    // Locate the immediate's low byte: specifier 0x8f ((PC)+ on the
    // PC, i.e. 32-bit immediate) followed by 44 33 22 11.
    std::uint32_t patchAddr = 0;
    for (std::uint32_t a = 0; a < 0x2000; ++a) {
        if (slow.memory().peekByte(a) == 0x8f &&
            slow.memory().peekByte(a + 1) == 0x44 &&
            slow.memory().peekByte(a + 2) == 0x33 &&
            slow.memory().peekByte(a + 3) == 0x22 &&
            slow.memory().peekByte(a + 4) == 0x11) {
            patchAddr = a + 1;
            break;
        }
    }
    ASSERT_NE(patchAddr, 0u) << "immediate not found in code";

    // Warm the decode cache through a few loop iterations, then patch
    // the immediate on both machines and run to completion.
    for (int i = 0; i < 20; ++i) {
        slow.step();
        fast.runFast(1);
    }
    slow.memory().pokeByte(patchAddr, 0x55);
    fast.memory().pokeByte(patchAddr, 0x55);

    while (slow.step())
        ;
    ASSERT_TRUE(fast.runFast().halted);
    expectSameState(slow.snapshot(), fast.snapshot());

    // The patch really took effect through the fast path: later loop
    // iterations accumulated the patched constant.
    VaxMachine unpatched;
    unpatched.loadProgram(prog);
    ASSERT_TRUE(unpatched.runFast().halted);
    EXPECT_NE(fast.reg(0), unpatched.reg(0));
}

TEST(VaxFastPath, SnapshotRestoreInvalidates)
{
    // Restoring a snapshot replaces memory contents wholesale; a warm
    // decode cache from the pre-restore program must not leak in.
    const Workload &sieve = findWorkload("sieve");
    const Workload &fib = findWorkload("fib_rec");

    VaxMachine donor;
    donor.loadProgram(assembleVax(fib.vaxSource));
    const VaxSnapshot fibStart = donor.snapshot();

    VaxMachine m;
    m.loadProgram(assembleVax(sieve.vaxSource));
    ASSERT_TRUE(m.runFast().halted); // warm cache on sieve's code
    EXPECT_EQ(m.reg(0), sieve.expected);

    m.restore(fibStart);
    ASSERT_TRUE(m.runFast().halted); // must decode fib's code fresh
    EXPECT_EQ(m.reg(0), fib.expected);

    VaxMachine ref;
    ref.loadProgram(assembleVax(fib.vaxSource));
    while (ref.step())
        ;
    expectSameState(ref.snapshot(), m.snapshot());
}

} // namespace
} // namespace risc1

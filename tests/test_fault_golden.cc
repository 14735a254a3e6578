/**
 * Fault-behaviour golden: hostile instruction streams on both
 * backends, with the outcome of every run pinned in
 * tests/golden/fault_fuzz.txt.
 *
 * Each (backend, seed, round) executes a random stream through the
 * step() tier and the runFast() tier on twin machines.  The two tiers
 * must agree — same halt or the same fault message, same step count
 * on clean runs, identical snapshots — and the step tier's outcome is
 * written as one golden line: how the run ended (halt, the exact
 * fault message, or the step budget), the steps completed, and the
 * FNV-1a of target::serializeSnapshot (registers, PSW/condition
 * codes, every statistics counter, memory pages).  The golden is the
 * independent oracle for the machine state a fault leaves behind:
 * the tiers share their decode and execute code, so agreeing with
 * each other alone proves little.
 *
 *  - RISC I executes the random-word stream FuzzExec uses
 *    (test::loadRandomWords).
 *  - The CISC baseline executes random byte streams in a 64 KiB
 *    memory, alternately at a low address and flush against the end
 *    of memory (so decodes run off the end).  Most instruction-shaped
 *    runs start with a legal opcode, and a quarter of the other bytes
 *    get their low nibble forced to 15, which makes PC-based
 *    specifiers — (PC), -(PC), disp(PC), @(PC)+ — common.
 *
 * To regenerate after an intended behaviour change, run
 *
 *     build/tests/test_fault_golden --update-goldens
 *
 * and commit the diff.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "helpers.hh"
#include "target/machine_target.hh"
#include "target/snapshot_io.hh"
#include "vax/vmachine.hh"

namespace risc1 {
namespace {

bool gUpdateGoldens = false;

constexpr std::uint64_t kSeeds[] = {1u, 2u, 42u, 0xdeadbeefu, 20260806u};
constexpr int kRiscRounds = 40;
constexpr int kVaxRounds = 200;
constexpr std::uint64_t kBudget = 500;

/** How one run ended. */
struct Drive
{
    bool halted = false;
    bool faulted = false;
    std::uint64_t steps = 0;
    std::string error;
};

/** Step @p m one instruction at a time until halt, fault or budget. */
template <typename M>
Drive
driveStep(M &m)
{
    Drive d;
    try {
        while (!m.halted() && d.steps < kBudget) {
            m.step();
            ++d.steps;
        }
    } catch (const std::exception &e) {
        d.faulted = true;
        d.error = e.what();
    }
    d.halted = m.halted();
    return d;
}

/** The same run through the predecoded tier. */
template <typename M>
Drive
driveFast(M &m)
{
    Drive d;
    try {
        d.steps = m.runFast(kBudget).steps;
    } catch (const std::exception &e) {
        d.faulted = true;
        d.error = e.what();
    }
    d.halted = m.halted();
    return d;
}

std::uint64_t
stateDigest(const Machine &m)
{
    return test::fnv1a(target::serializeSnapshot(
        target::RiscTargetSnapshot(m.snapshot())));
}

std::uint64_t
stateDigest(const VaxMachine &m)
{
    return test::fnv1a(target::serializeSnapshot(
        target::VaxTargetSnapshot(m.snapshot())));
}

/** One golden line for the step tier's run. */
template <typename M>
std::string
goldenLine(const char *backend, std::uint64_t seed, int round,
           const Drive &d, const M &m)
{
    std::ostringstream line;
    line << backend << " seed=" << seed << " round=" << round << " ";
    if (d.faulted)
        line << "fault \"" << d.error << "\"";
    else
        line << (d.halted ? "halt" : "budget");
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(stateDigest(m)));
    line << " steps=" << d.steps << " state=" << digest << "\n";
    return line.str();
}

/** Require the two tiers to end identically. */
template <typename M>
void
expectTiersAgree(const Drive &ds, const M &slow, const Drive &df,
                 const M &fast)
{
    EXPECT_EQ(ds.faulted, df.faulted);
    EXPECT_EQ(ds.error, df.error);
    EXPECT_EQ(ds.halted, df.halted);
    // A fault unwinds runFast before it reports a step count; the
    // snapshot comparison pins the instruction counter instead.
    if (!ds.faulted) {
        EXPECT_EQ(ds.steps, df.steps);
    }
    EXPECT_TRUE(slow.snapshot() == fast.snapshot())
        << "step and runFast left different states";
}

std::string
riscRuns()
{
    std::string text;
    for (const std::uint64_t seed : kSeeds) {
        Rng rng(seed ^ 0xf00dull);
        for (int round = 0; round < kRiscRounds; ++round) {
            SCOPED_TRACE(::testing::Message()
                         << "risc seed=" << seed << " round=" << round);
            Machine slow, fast;
            Rng twin = rng;
            test::loadRandomWords(slow, rng);
            test::loadRandomWords(fast, twin);
            const Drive ds = driveStep(slow);
            const Drive df = driveFast(fast);
            expectTiersAgree(ds, slow, df, fast);
            text += goldenLine("risc", seed, round, ds, slow);
        }
    }
    return text;
}

VaxConfig
smallVax()
{
    VaxConfig cfg;
    cfg.memorySize = 0x10000;
    cfg.stackTop = 0x8000;
    return cfg;
}

/** A random byte whose low nibble is forced to 15 (PC) one time in
 *  four. */
std::uint8_t
randomByte(Rng &rng)
{
    auto b = static_cast<std::uint8_t>(rng.next());
    if (rng.chance(1, 4))
        b |= 0x0f;
    return b;
}

/**
 * Poke 4..43 random bytes into @p slow and @p fast and reset both to
 * them.  The stream is built from instruction-shaped runs — mostly a
 * legal opcode byte, then 0..6 random bytes — so execution reaches
 * the specifier decoder instead of stopping at the first opcode.
 */
void
loadRandomBytes(VaxMachine &slow, VaxMachine &fast, Rng &rng, int round)
{
    std::size_t numOps = 0;
    const VaxOpInfo *ops = vaxAllOpcodes(numOps);
    const std::size_t n = 4 + rng.below(40);
    std::vector<std::uint8_t> bytes;
    while (bytes.size() < n) {
        bytes.push_back(rng.chance(7, 8)
                            ? static_cast<std::uint8_t>(
                                  ops[rng.below(numOps)].op)
                            : randomByte(rng));
        for (std::uint64_t k = rng.below(7); k > 0; --k)
            bytes.push_back(randomByte(rng));
    }
    bytes.resize(n);

    const std::uint32_t org =
        round % 2 == 0
            ? 0x1000u
            : static_cast<std::uint32_t>(slow.config().memorySize - n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t addr = org + static_cast<std::uint32_t>(i);
        slow.memory().pokeByte(addr, bytes[i]);
        fast.memory().pokeByte(addr, bytes[i]);
    }
    slow.reset(org);
    fast.reset(org);
}

std::string
vaxRuns()
{
    std::string text;
    for (const std::uint64_t seed : kSeeds) {
        Rng rng(seed ^ 0xbadc0deull);
        for (int round = 0; round < kVaxRounds; ++round) {
            SCOPED_TRACE(::testing::Message()
                         << "vax seed=" << seed << " round=" << round);
            VaxMachine slow(smallVax()), fast(smallVax());
            loadRandomBytes(slow, fast, rng, round);
            const Drive ds = driveStep(slow);
            const Drive df = driveFast(fast);
            expectTiersAgree(ds, slow, df, fast);
            text += goldenLine("vax", seed, round, ds, slow);
        }
    }
    return text;
}

TEST(FaultGolden, RandomStreamsMatchGolden)
{
    const std::string output = riscRuns() + vaxRuns();
    const std::string goldenPath =
        std::string(RISC1_SOURCE_DIR) + "/tests/golden/fault_fuzz.txt";

    if (gUpdateGoldens) {
        std::ofstream out(goldenPath);
        ASSERT_TRUE(out) << "cannot write " << goldenPath;
        out << output;
        std::cout << "updated " << goldenPath << "\n";
        return;
    }

    std::ifstream in(goldenPath);
    ASSERT_TRUE(in) << "missing golden " << goldenPath
                    << " — run with --update-goldens to create it";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), output)
        << "fault behaviour drifted from " << goldenPath
        << "; if the change is intended, regenerate with "
           "`test_fault_golden --update-goldens` and commit the diff";
}

} // namespace
} // namespace risc1

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-goldens")
            risc1::gUpdateGoldens = true;
    return RUN_ALL_TESTS();
}

/**
 * Assembler output pin: every program the repository assembles, on
 * both ISAs, must keep its segments (base, kind, bytes), symbols,
 * entry point and static instruction count.  Each Program is reduced
 * to one FNV-1a digest and compared with the table below.
 *
 * Covered: every workload's RISC and VAX source, every .rl program
 * under tests/corpus through compileRisc and compileVax, the .s
 * sources under examples/programs (`_cisc.s` on the VAX, the rest on
 * RISC I) and one directive tour per ISA.  The tours use every
 * directive, '.' expressions, stacked labels and a label at end of
 * file.
 *
 * On an intended output change, the failure message prints the full
 * table of current digests to paste below.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "helpers.hh"
#include "lang/compile.hh"
#include "lang/parser.hh"
#include "vax/vassembler.hh"
#include "workloads/workloads.hh"

namespace risc1 {
namespace {

const char *const kRiscTour = R"(; RISC I directive tour
        .equ  count, 3
        .equ  twice, count + count
        .entry main
        .org  0x0800
table:  .word 1, -2, twice, table, . + 4
halves: .half 0x1234, -1, count
bytes:  .byte 1, 2, 0xff, -1
        .align 4
gap:    .space 6
msg:    .ascii "hi", "!"
        .asciz "risc", ""
        .align 8
first:
second:
main:   ldi   r1, count
        ldi   r2, end
        add   r3, r1, twice
        ldl   r4, table(r0)
        ldi   r5, end - table
        halt
        .org  . + 16
tail:   .word . - main, end
end:
)";

const char *const kVaxTour = R"(; VAX directive tour
        .equ  count, 3
        .equ  twice, count + count
        .entry main
        .org  0x2001
b0:     .byte 7, -1, count
        .align 2
h0:     .half 0x1234, -2
        .align 4
w0:     .word w0, . + 8, -1, twice
gap:    .space 3
s0:     .ascii "ab", "c"
        .asciz "vax", ""
first:
second:
main:   movl  #count, r0
        movl  #end, r1
        pushl r0
        calls #1, func
        halt
func:   .mask 0x0c
        movl  4(ap), r2
        ret
        .org  . + 5
tail:   .byte . - main
end:
)";

std::uint64_t
digest(const Program &p)
{
    std::vector<std::uint8_t> b;
    auto put = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put(p.entry);
    put(p.staticInstructions);
    put(p.segments.size());
    for (const Segment &seg : p.segments) {
        put(seg.base);
        put(static_cast<std::uint64_t>(seg.kind));
        put(seg.bytes.size());
        b.insert(b.end(), seg.bytes.begin(), seg.bytes.end());
    }
    put(p.symbols.size());
    for (const auto &[name, value] : p.symbols) {
        b.insert(b.end(), name.begin(), name.end());
        b.push_back(0);
        put(value);
    }
    return test::fnv1a(b);
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot read " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::vector<std::filesystem::path>
filesIn(const std::string &dir, const std::string &ext)
{
    std::vector<std::filesystem::path> out;
    for (const auto &e : std::filesystem::directory_iterator(
             std::string(RISC1_SOURCE_DIR) + "/" + dir))
        if (e.path().extension() == ext)
            out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

/** Digest of every covered program, keyed "<group>/<name>/<isa>". */
std::map<std::string, std::uint64_t>
currentDigests()
{
    std::map<std::string, std::uint64_t> d;
    for (const Workload &w : allWorkloads()) {
        d["workload/" + w.name + "/risc"] = digest(assembleRisc(w.riscSource));
        d["workload/" + w.name + "/vax"] = digest(assembleVax(w.vaxSource));
    }
    for (const auto &path : filesIn("tests/corpus", ".rl")) {
        const lang::Program program = lang::parseProgram(readFile(path));
        const std::string key = "corpus/" + path.stem().string();
        d[key + "/risc"] =
            digest(assembleRisc(lang::compileRisc(program).source));
        d[key + "/vax"] =
            digest(assembleVax(lang::compileVax(program).source));
    }
    for (const auto &path : filesIn("examples/programs", ".s")) {
        const std::string stem = path.stem().string();
        const std::string source = readFile(path);
        if (stem.ends_with("_cisc"))
            d["example/" + stem + "/vax"] = digest(assembleVax(source));
        else
            d["example/" + stem + "/risc"] = digest(assembleRisc(source));
    }
    d["tour/directives/risc"] = digest(assembleRisc(kRiscTour));
    d["tour/directives/vax"] = digest(assembleVax(kVaxTour));
    return d;
}

// clang-format off
const std::map<std::string, std::uint64_t> kPinned = {
    {"corpus/gen_seed003/risc", 0x629edf7b3240e8e6ull},
    {"corpus/gen_seed003/vax", 0xf45f249429740dcull},
    {"corpus/gen_seed005/risc", 0x74bdc69ed932f5fdull},
    {"corpus/gen_seed005/vax", 0x48a581a7d42a953full},
    {"corpus/gen_seed008/risc", 0x15d7c7295536a898ull},
    {"corpus/gen_seed008/vax", 0x231172dde64c68d9ull},
    {"corpus/gen_seed011/risc", 0x2c5e76803a125fdcull},
    {"corpus/gen_seed011/vax", 0x63215eb6b17d6db1ull},
    {"corpus/gen_seed017/risc", 0xbad1df374b80bf1ull},
    {"corpus/gen_seed017/vax", 0x79fa8301712a67a9ull},
    {"corpus/gen_seed021/risc", 0xf25fd2f44be54421ull},
    {"corpus/gen_seed021/vax", 0x70b1a51fdf2338dull},
    {"corpus/gen_seed029/risc", 0xb54bf160c8f4ba8cull},
    {"corpus/gen_seed029/vax", 0xe3e356d789254b57ull},
    {"corpus/gen_seed034/risc", 0xd7963f68c106c312ull},
    {"corpus/gen_seed034/vax", 0x4fecc2da5b88b3e9ull},
    {"corpus/gen_seed042/risc", 0x39a4070a20b4f992ull},
    {"corpus/gen_seed042/vax", 0xaa92e0935b218c8ull},
    {"corpus/gen_seed057/risc", 0x394cccd7a065d79full},
    {"corpus/gen_seed057/vax", 0x1bc98ed39a2129b7ull},
    {"corpus/gen_seed071/risc", 0xaa9987816acc8beeull},
    {"corpus/gen_seed071/vax", 0x776f28bd696802acull},
    {"corpus/gen_seed088/risc", 0xdf394c2ce9bd96baull},
    {"corpus/gen_seed088/vax", 0x1249ec1b49b5f14ull},
    {"corpus/gen_seed101/risc", 0xab92398559ed7313ull},
    {"corpus/gen_seed101/vax", 0x855c5950f719bedull},
    {"corpus/gen_seed123/risc", 0xc154b594f3cc08c5ull},
    {"corpus/gen_seed123/vax", 0xbf50e6de85f1a5d9ull},
    {"corpus/hand_array_sum/risc", 0x319d333f40aefb73ull},
    {"corpus/hand_array_sum/vax", 0x23d99f9b10bd6730ull},
    {"corpus/hand_fib_rec/risc", 0x160a96e20b5f8344ull},
    {"corpus/hand_fib_rec/vax", 0xd9d63291262ab25full},
    {"corpus/hand_gcd_loop/risc", 0x3aff02242120a15full},
    {"corpus/hand_gcd_loop/vax", 0x5f58ee00365a9565ull},
    {"corpus/hand_shift_mask/risc", 0xfd2c3c6e107d49dbull},
    {"corpus/hand_shift_mask/vax", 0x3207bae4ae3be28aull},
    {"corpus/hand_shortcircuit/risc", 0x13b64d1a837035b2ull},
    {"corpus/hand_shortcircuit/vax", 0x682556417e0c5965ull},
    {"corpus/hand_window_pressure/risc", 0xe4614683453ce992ull},
    {"corpus/hand_window_pressure/vax", 0x9d2fbe7094022e0eull},
    {"example/fault/risc", 0xa38261891ab9ea81ull},
    {"example/fib/risc", 0xbfce040b003353baull},
    {"example/hello_cisc/vax", 0x6e9179feeb185b74ull},
    {"example/sum/risc", 0x76b36ca2e83fee4aull},
    {"tour/directives/risc", 0x33bf9a8e25558e7eull},
    {"tour/directives/vax", 0x2421397bb7f61bb2ull},
    {"workload/Ackermann(3,3)/risc", 0xb93d2c7dc59b4415ull},
    {"workload/Ackermann(3,3)/vax", 0xbc3501d1421be8b9ull},
    {"workload/E: string search/risc", 0xc104233b3e8d645dull},
    {"workload/E: string search/vax", 0x66abfb66bab134e3ull},
    {"workload/F: bit test/risc", 0xd4a9fcc893bd81e3ull},
    {"workload/F: bit test/vax", 0x677c3541c580e272ull},
    {"workload/Fibonacci(15) recursive/risc", 0x87cd650e48924f07ull},
    {"workload/Fibonacci(15) recursive/vax", 0xf2660ada0f7b8132ull},
    {"workload/H: linked list/risc", 0xcafbe4360c339159ull},
    {"workload/H: linked list/vax", 0xa462109ae3ec83cfull},
    {"workload/K: bit matrix/risc", 0xe7f8cfe91aa55a83ull},
    {"workload/K: bit matrix/vax", 0x23c004051c979678ull},
    {"workload/Puzzle (array permutation)/risc", 0xb0c5a7f0cea293d9ull},
    {"workload/Puzzle (array permutation)/vax", 0xe066944efc1663fcull},
    {"workload/Puzzle (subscript style)/risc", 0x27049367292799eull},
    {"workload/Puzzle (subscript style)/vax", 0x2992de2351a2f420ull},
    {"workload/Quicksort(64) recursive/risc", 0x7986e0aae418c432ull},
    {"workload/Quicksort(64) recursive/vax", 0x1ac8acece9213886ull},
    {"workload/Sieve of Eratosthenes(1000)/risc", 0x37a896315f734885ull},
    {"workload/Sieve of Eratosthenes(1000)/vax", 0xd7bc3b4ae59dd202ull},
    {"workload/Towers of Hanoi(10)/risc", 0x21b1b456dbc3bcf5ull},
    {"workload/Towers of Hanoi(10)/vax", 0xcee0c1f3b7e8171dull},
};
// clang-format on

TEST(AsmGolden, EveryProgramAssemblesToItsPinnedImage)
{
    const auto current = currentDigests();
    EXPECT_EQ(current.size(), kPinned.size());
    for (const auto &[key, value] : current) {
        const auto it = kPinned.find(key);
        if (it == kPinned.end())
            ADD_FAILURE() << key << " is not pinned";
        else
            EXPECT_EQ(value, it->second) << key;
    }
    if (HasFailure()) {
        std::ostringstream table;
        for (const auto &[key, value] : current)
            table << "    {\"" << key << "\", 0x" << std::hex << value
                  << std::dec << "ull},\n";
        ADD_FAILURE() << "current digests:\n" << table.str();
    }
}

} // namespace
} // namespace risc1

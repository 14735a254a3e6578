/**
 * Full-ISA sweep for the CISC baseline: every opcode assembles,
 * disassembles back to its own text, and the metadata table is
 * internally consistent.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "vax/vassembler.hh"
#include "vax/vdisasm.hh"
#include "vax/visa.hh"

namespace risc1 {
namespace {

/** A representative source statement for each mnemonic. */
std::map<std::string, std::string>
sampleStatements()
{
    return {
        {"halt", "halt"},
        {"nop", "nop"},
        {"movl", "movl r1, r2"},
        {"movb", "movb r1, r2"},
        {"movw", "movw r1, r2"},
        {"moval", "moval (r1), r2"},
        {"movzbl", "movzbl (r1), r2"},
        {"movzwl", "movzwl (r1), r2"},
        {"clrl", "clrl r3"},
        {"pushl", "pushl r4"},
        {"mnegl", "mnegl r1, r2"},
        {"mcoml", "mcoml r1, r2"},
        {"addl2", "addl2 r1, r2"},
        {"addl3", "addl3 r1, r2, r3"},
        {"subl2", "subl2 r1, r2"},
        {"subl3", "subl3 r1, r2, r3"},
        {"mull2", "mull2 r1, r2"},
        {"mull3", "mull3 r1, r2, r3"},
        {"divl2", "divl2 r1, r2"},
        {"divl3", "divl3 r1, r2, r3"},
        {"incl", "incl r5"},
        {"decl", "decl r5"},
        {"bisl2", "bisl2 r1, r2"},
        {"bicl2", "bicl2 r1, r2"},
        {"xorl2", "xorl2 r1, r2"},
        {"ashl", "ashl #4, r1, r2"},
        {"cmpl", "cmpl r1, r2"},
        {"tstl", "tstl r1"},
        {"cmpb", "cmpb r1, r2"},
        {"brb", "brb start"},
        {"brw", "brw start"},
        {"beql", "beql start"},
        {"bneq", "bneq start"},
        {"blss", "blss start"},
        {"bleq", "bleq start"},
        {"bgtr", "bgtr start"},
        {"bgeq", "bgeq start"},
        {"blssu", "blssu start"},
        {"blequ", "blequ start"},
        {"bgtru", "bgtru start"},
        {"bgequ", "bgequ start"},
        {"bvs", "bvs start"},
        {"bvc", "bvc start"},
        {"jmp", "jmp @0x2000"},
        {"sobgtr", "sobgtr r1, start"},
        {"sobgeq", "sobgeq r1, start"},
        {"aoblss", "aoblss #10, r1, start"},
        {"aobleq", "aobleq #10, r1, start"},
        {"calls", "calls #0, @0x2000"},
        {"ret", "ret"},
        {"jsb", "jsb @0x2000"},
        {"rsb", "rsb"},
        {"pushr", "pushr #6"},
        {"popr", "popr #6"},
    };
}

/**
 * Every row of the opcode table, written out by hand in table order so
 * the table is checked against values that do not come from it.
 */
struct VaxFacts
{
    unsigned byte;
    const char *mnemonic;
    VaxClass cls;
    unsigned baseCycles;
    std::vector<VaxOpndUse> uses;
};

std::vector<VaxFacts>
pinnedFacts()
{
    using U = VaxOpndUse;
    using C = VaxClass;
    return {
        {0x00, "halt", C::Misc, 2, {}},
        {0x01, "nop", C::Misc, 2, {}},
        {0x10, "movl", C::Move, 2, {U::Read, U::Write}},
        {0x11, "movb", C::Move, 2, {U::ReadByte, U::WriteByte}},
        {0x12, "movw", C::Move, 2, {U::ReadHalf, U::WriteHalf}},
        {0x13, "moval", C::Move, 2, {U::Address, U::Write}},
        {0x14, "movzbl", C::Move, 2, {U::ReadByte, U::Write}},
        {0x15, "movzwl", C::Move, 2, {U::ReadHalf, U::Write}},
        {0x16, "clrl", C::Move, 2, {U::Write}},
        {0x17, "pushl", C::Move, 3, {U::Read}},
        {0x18, "mnegl", C::Alu, 3, {U::Read, U::Write}},
        {0x19, "mcoml", C::Alu, 3, {U::Read, U::Write}},
        {0x20, "addl2", C::Alu, 3, {U::Read, U::Modify}},
        {0x21, "addl3", C::Alu, 3, {U::Read, U::Read, U::Write}},
        {0x22, "subl2", C::Alu, 3, {U::Read, U::Modify}},
        {0x23, "subl3", C::Alu, 3, {U::Read, U::Read, U::Write}},
        {0x24, "mull2", C::Alu, 15, {U::Read, U::Modify}},
        {0x25, "mull3", C::Alu, 15, {U::Read, U::Read, U::Write}},
        {0x26, "divl2", C::Alu, 25, {U::Read, U::Modify}},
        {0x27, "divl3", C::Alu, 25, {U::Read, U::Read, U::Write}},
        {0x28, "incl", C::Alu, 3, {U::Modify}},
        {0x29, "decl", C::Alu, 3, {U::Modify}},
        {0x2a, "bisl2", C::Alu, 3, {U::Read, U::Modify}},
        {0x2b, "bicl2", C::Alu, 3, {U::Read, U::Modify}},
        {0x2c, "xorl2", C::Alu, 3, {U::Read, U::Modify}},
        {0x2d, "ashl", C::Alu, 6, {U::Read, U::Read, U::Write}},
        {0x2e, "cmpl", C::Alu, 3, {U::Read, U::Read}},
        {0x2f, "tstl", C::Alu, 2, {U::Read}},
        {0x30, "cmpb", C::Alu, 3, {U::ReadByte, U::ReadByte}},
        {0x40, "brb", C::Branch, 4, {U::Branch8}},
        {0x41, "brw", C::Branch, 4, {U::Branch16}},
        {0x42, "beql", C::Branch, 3, {U::Branch8}},
        {0x43, "bneq", C::Branch, 3, {U::Branch8}},
        {0x44, "blss", C::Branch, 3, {U::Branch8}},
        {0x45, "bleq", C::Branch, 3, {U::Branch8}},
        {0x46, "bgtr", C::Branch, 3, {U::Branch8}},
        {0x47, "bgeq", C::Branch, 3, {U::Branch8}},
        {0x48, "blssu", C::Branch, 3, {U::Branch8}},
        {0x49, "blequ", C::Branch, 3, {U::Branch8}},
        {0x4a, "bgtru", C::Branch, 3, {U::Branch8}},
        {0x4b, "bgequ", C::Branch, 3, {U::Branch8}},
        {0x4c, "bvs", C::Branch, 3, {U::Branch8}},
        {0x4d, "bvc", C::Branch, 3, {U::Branch8}},
        {0x4e, "jmp", C::Branch, 4, {U::Address}},
        {0x50, "sobgtr", C::Loop, 5, {U::Modify, U::Branch8}},
        {0x51, "sobgeq", C::Loop, 5, {U::Modify, U::Branch8}},
        {0x52, "aoblss", C::Loop, 6, {U::Read, U::Modify, U::Branch8}},
        {0x53, "aobleq", C::Loop, 6, {U::Read, U::Modify, U::Branch8}},
        {0x60, "calls", C::CallRet, 15, {U::Read, U::Address}},
        {0x61, "ret", C::CallRet, 12, {}},
        {0x62, "jsb", C::CallRet, 5, {U::Address}},
        {0x63, "rsb", C::CallRet, 5, {}},
        {0x64, "pushr", C::CallRet, 4, {U::Read}},
        {0x65, "popr", C::CallRet, 4, {U::Read}},
    };
}

TEST(VaxIsaSweep, TableMatchesPinnedFacts)
{
    std::size_t count = 0;
    const VaxOpInfo *all = vaxAllOpcodes(count);
    const auto facts = pinnedFacts();
    ASSERT_EQ(count, facts.size());
    std::size_t legal = 0;
    for (unsigned b = 0; b < 256; ++b)
        legal += vaxOpcodeInfo(static_cast<VaxOpcode>(b)) != nullptr;
    EXPECT_EQ(legal, facts.size());
    for (std::size_t i = 0; i < count; ++i) {
        const VaxFacts &f = facts[i];
        const VaxOpInfo &info = all[i];
        SCOPED_TRACE(f.mnemonic);
        EXPECT_EQ(static_cast<unsigned>(info.op), f.byte);
        EXPECT_EQ(info.mnemonic, f.mnemonic);
        EXPECT_EQ(info.cls, f.cls);
        EXPECT_EQ(info.baseCycles, f.baseCycles);
        ASSERT_EQ(info.numOperands, f.uses.size());
        for (std::size_t k = 0; k < f.uses.size(); ++k)
            EXPECT_EQ(info.operands[k], f.uses[k]) << "operand " << k;
        const VaxOpInfo *byByte =
            vaxOpcodeInfo(static_cast<VaxOpcode>(f.byte));
        ASSERT_NE(byByte, nullptr);
        EXPECT_EQ(byByte->mnemonic, f.mnemonic);
    }
}

TEST(VaxIsaSweep, EveryOpcodeHasASample)
{
    std::size_t count = 0;
    const VaxOpInfo *all = vaxAllOpcodes(count);
    const auto samples = sampleStatements();
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_TRUE(samples.contains(std::string(all[i].mnemonic)))
            << all[i].mnemonic;
    EXPECT_EQ(samples.size(), count);
}

TEST(VaxIsaSweep, EveryOpcodeAssemblesAndDisassembles)
{
    for (const auto &[mnemonic, stmt] : sampleStatements()) {
        const Program prog =
            assembleVax("start: " + stmt + "\n");
        const auto &seg = prog.segments.at(0);
        const VaxDisasmLine line =
            vaxDisassembleAt(seg.bytes, 0, seg.base);
        EXPECT_EQ(line.text.substr(0, mnemonic.size()), mnemonic);
        EXPECT_EQ(line.length, seg.bytes.size()) << stmt;
    }
}

TEST(VaxIsaSweep, MetadataConsistent)
{
    std::size_t count = 0;
    const VaxOpInfo *all = vaxAllOpcodes(count);
    std::set<std::uint8_t> values;
    std::set<std::string_view> names;
    for (std::size_t i = 0; i < count; ++i) {
        const VaxOpInfo &info = all[i];
        EXPECT_TRUE(values.insert(
            static_cast<std::uint8_t>(info.op)).second)
            << "duplicate opcode value for " << info.mnemonic;
        EXPECT_TRUE(names.insert(info.mnemonic).second)
            << "duplicate mnemonic " << info.mnemonic;
        EXPECT_LE(info.numOperands, vaxMaxOperands);
        EXPECT_GE(info.baseCycles, 2) << info.mnemonic;
        // The dense table round-trips.
        ASSERT_NE(vaxOpcodeInfo(info.op), nullptr);
        EXPECT_EQ(vaxOpcodeInfo(info.op)->mnemonic, info.mnemonic);
        EXPECT_EQ(vaxOpcodeFromMnemonic(info.mnemonic), info.op);
    }
}

TEST(VaxIsaSweep, BranchDisplacementsAreOneByte)
{
    // Conditional branch: opcode + disp8 = 2 bytes.
    const Program prog = assembleVax("start: beql start\n halt\n");
    EXPECT_EQ(prog.segments.at(0).bytes.size(), 3u);
}

TEST(VaxIsaSweep, OutOfRangeBranchRejected)
{
    // Put the target out of byte range.
    std::string src = "start: beql far\n";
    for (int i = 0; i < 200; ++i)
        src += " nop\n nop\n";
    src += "far: halt\n";
    EXPECT_THROW(assembleVax(src), FatalError);
}

} // namespace
} // namespace risc1

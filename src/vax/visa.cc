#include "vax/visa.hh"

#include <array>

#include "common/logging.hh"

namespace risc1 {

namespace {

using enum VaxOpndUse;

/** One table row; the operand count is the number of uses given. */
template <typename... Uses>
constexpr VaxOpInfo
row(VaxOpcode op, std::string_view mnemonic, VaxClass cls,
    std::uint8_t baseCycles, Uses... uses)
{
    return {op, mnemonic, cls, baseCycles, sizeof...(uses), {uses...}};
}

/** The opcode table: RISC1_VAX_OPCODES, in its order. */
constexpr VaxOpInfo table[] = {
#define RISC1_VAX_OPCODE_INFO(name, byte, mnem, cls, ...) \
    row(VaxOpcode::name, mnem, VaxClass::cls, __VA_ARGS__),
    RISC1_VAX_OPCODES(RISC1_VAX_OPCODE_INFO)
#undef RISC1_VAX_OPCODE_INFO
};

/** Lookup by opcode byte; nullptr for illegal bytes. */
constexpr auto byByte = [] {
    std::array<const VaxOpInfo *, 256> t{};
    for (const auto &info : table)
        t[static_cast<std::uint8_t>(info.op)] = &info;
    return t;
}();

} // namespace

const VaxOpInfo *
vaxOpcodeInfo(VaxOpcode op)
{
    return byByte[static_cast<std::uint8_t>(op)];
}

std::optional<VaxOpcode>
vaxOpcodeFromMnemonic(std::string_view mnemonic)
{
    for (const auto &info : table)
        if (info.mnemonic == mnemonic)
            return info.op;
    return std::nullopt;
}

const VaxOpInfo *
vaxAllOpcodes(std::size_t &count)
{
    count = std::size(table);
    return table;
}

unsigned
vaxSpecCycles(VaxMode mode)
{
    switch (mode) {
      case VaxMode::Literal0:
      case VaxMode::Literal1:
      case VaxMode::Literal2:
      case VaxMode::Literal3:
      case VaxMode::Register:
        return 0;
      case VaxMode::Deferred:
      case VaxMode::AutoInc:
      case VaxMode::AutoDec:
        return 1;
      case VaxMode::DispByte:
      case VaxMode::DispWord:
        return 1;
      case VaxMode::DispLong:
      case VaxMode::AutoIncDef:
        return 2;
    }
    panic("bad addressing mode");
}

} // namespace risc1

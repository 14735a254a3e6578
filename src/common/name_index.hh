/**
 * @file
 * A hash index from names to the rows of a constant table, built at
 * compile time: the assemblers' mnemonic lookups, generated from each
 * ISA's opcode list.
 */

#ifndef RISC1_COMMON_NAME_INDEX_HH
#define RISC1_COMMON_NAME_INDEX_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace risc1 {

/**
 * Open-addressed, linearly probed, at most half full.  Two rows with
 * the same name make the constructor throw, which fails compilation
 * of a constexpr index.
 */
template <std::size_t N>
class NameIndex
{
  public:
    template <typename Row>
    constexpr NameIndex(const Row (&table)[N], std::string_view Row::*name)
    {
        rows_.fill(-1);
        for (std::size_t row = 0; row < N; ++row) {
            const std::string_view key = table[row].*name;
            std::size_t slot = hash(key);
            for (; rows_[slot] >= 0; slot = (slot + 1) % kSlots)
                if (names_[slot] == key)
                    throw "NameIndex: duplicate name";
            names_[slot] = key;
            rows_[slot] = static_cast<int>(row);
        }
    }

    /** The row named @p name, or -1. */
    constexpr int
    find(std::string_view name) const
    {
        for (std::size_t slot = hash(name); rows_[slot] >= 0;
             slot = (slot + 1) % kSlots)
            if (names_[slot] == name)
                return rows_[slot];
        return -1;
    }

  private:
    static constexpr std::size_t kSlots = std::bit_ceil(2 * N);

    /** 32-bit FNV-1a, reduced to a slot. */
    static constexpr std::size_t
    hash(std::string_view s)
    {
        std::uint32_t h = 2166136261u;
        for (const char c : s)
            h = (h ^ static_cast<std::uint8_t>(c)) * 16777619u;
        return h % kSlots;
    }

    std::array<std::string_view, kSlots> names_{};
    std::array<int, kSlots> rows_{};
};

} // namespace risc1

#endif // RISC1_COMMON_NAME_INDEX_HH

#include "hostspeed.hh"

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util.hh"

namespace perfbench {

namespace {

volatile std::uint32_t probeSink;

// The probe mixes the three kinds of work the simulator paths do most:
// table dispatch to small handlers, string-keyed symbol tables, and
// many small heap blocks.  Each part takes about a third of the probe.

using Handler = void (*)(std::uint32_t *regs, std::uint32_t *mem,
                         std::uint32_t op);

template <int K>
void
handler(std::uint32_t *regs, std::uint32_t *mem, std::uint32_t op)
{
    const unsigned a = op & 15, b = (op >> 4) & 15;
    const std::uint32_t imm = (op >> 8) & 0xffff;
    if constexpr (K % 4 == 0)
        regs[a] = regs[b] + imm;
    else if constexpr (K % 4 == 1)
        regs[a] = mem[(regs[b] + imm) & 0xffff];
    else if constexpr (K % 4 == 2)
        mem[(regs[a] + imm) & 0xffff] = regs[b] ^ K;
    else
        regs[a] = (regs[a] << (K & 7)) ^ regs[b];
}

template <std::size_t... K>
constexpr std::array<Handler, sizeof...(K)>
handlerTable(std::index_sequence<K...>)
{
    return {handler<int(K)>...};
}

void
dispatchPart()
{
    static constexpr auto table =
        handlerTable(std::make_index_sequence<16>());
    static const std::vector<std::uint32_t> code = [] {
        std::vector<std::uint32_t> c(1u << 14);
        std::uint32_t x = 777;
        for (std::uint32_t &w : c) {
            x = x * 1664525u + 1013904223u;
            w = x;
        }
        return c;
    }();
    std::vector<std::uint32_t> mem(1u << 16, 3u);
    std::uint32_t regs[16] = {};
    for (int rep = 0; rep < 16; ++rep)
        for (const std::uint32_t op : code)
            table[op >> 28](regs, mem.data(), op);
    probeSink = regs[1] ^ mem[regs[2] & 0xffff];
}

void
symbolPart()
{
    std::unordered_map<std::string, int> symbols;
    std::uint32_t acc = 0;
    for (int i = 0; i < 3000; ++i)
        symbols["label_" + std::to_string(i * 7919 % 10007)] = i;
    for (int i = 0; i < 6000; ++i) {
        const auto it =
            symbols.find("label_" + std::to_string(i * 31 % 10007));
        if (it != symbols.end())
            acc += std::uint32_t(it->second);
    }
    probeSink = acc;
}

void
heapPart()
{
    std::uint32_t acc = 0;
    for (int i = 0; i < 8000; ++i) {
        std::vector<std::uint32_t> block(256 + (i % 7) * 64,
                                         std::uint32_t(i));
        const auto shared =
            std::make_shared<std::vector<std::uint32_t>>(block);
        acc += (*shared)[std::size_t(i) % 256];
    }
    probeSink = acc;
}

} // namespace

double
speedProbeMs()
{
    const auto t0 = Clock::now();
    dispatchPart();
    symbolPart();
    heapPart();
    return msSince(t0);
}

PinToCpu::PinToCpu()
{
    cpu_ = sched_getcpu();
    if (cpu_ < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    restore_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

PinToCpu::~PinToCpu()
{
    if (restore_)
        sched_setaffinity(0, sizeof(saved_), &saved_);
}

} // namespace perfbench

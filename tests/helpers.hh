/** Shared helpers for machine-level tests. */

#ifndef RISC1_TESTS_HELPERS_HH
#define RISC1_TESTS_HELPERS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hh"
#include "common/random.hh"
#include "core/machine.hh"
#include "isa/instruction.hh"
#include "obs/trace.hh"

namespace risc1::test {

inline constexpr std::uint32_t kOrg = 0x1000;

/** Load raw instructions at kOrg, append a halt, and reset @p m. */
inline void
loadRaw(Machine &m, const std::vector<Instruction> &insts,
        bool appendHalt = true)
{
    std::uint32_t addr = kOrg;
    for (const auto &inst : insts) {
        m.memory().pokeWord(addr, inst.encode());
        addr += 4;
    }
    if (appendHalt)
        m.memory().pokeWord(addr, Instruction::jmpr(Cond::Alw, 0).encode());
    m.reset(kOrg);
}

/**
 * Load 8..47 fully random words at kOrg and reset @p m to them: the
 * hostile instruction stream the random-word fuzz tests execute.
 */
inline void
loadRandomWords(Machine &m, Rng &rng)
{
    const std::size_t n = 8 + rng.below(40);
    std::uint32_t addr = kOrg;
    for (std::size_t i = 0; i < n; ++i) {
        m.memory().pokeWord(addr, static_cast<std::uint32_t>(rng.next()));
        addr += 4;
    }
    m.reset(kOrg);
}

/** 64-bit FNV-1a of @p bytes: the digest the byte-pinning goldens use. */
inline std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Assemble @p source, load, and reset @p m. */
inline void
loadAsm(Machine &m, const std::string &source)
{
    const Program prog = assembleRisc(source);
    m.loadProgram(prog);
}

/** Assemble + run to completion on a fresh default machine. */
inline Machine
runAsm(const std::string &source, std::uint64_t maxSteps = 10'000'000)
{
    Machine m;
    loadAsm(m, source);
    m.run(maxSteps);
    return m;
}

/**
 * A per-step probe for tests: a minimal Trace whose single sink
 * forwards instruction events to a callback.  Install with
 * `m.setTrace(probe.get())`; the callback fires before each
 * instruction executes, so machine state read inside it is the
 * pre-execution state (trap/interrupt events are filtered out).
 */
class ProbeTrace
{
  public:
    using Callback = std::function<void(const obs::TraceEvent &)>;

    explicit ProbeTrace(Callback fn) : sink_(std::move(fn))
    {
        trace_.addSink(sink_);
    }

    obs::Trace *get() { return &trace_; }

  private:
    class CallbackSink final : public obs::TraceSink
    {
      public:
        explicit CallbackSink(Callback fn) : fn_(std::move(fn)) {}

        void
        event(const obs::TraceEvent &ev) override
        {
            if (ev.kind == obs::EventKind::Instruction)
                fn_(ev);
        }

      private:
        Callback fn_;
    };

    obs::Trace trace_{1};
    CallbackSink sink_;
};

} // namespace risc1::test

#endif // RISC1_TESTS_HELPERS_HH

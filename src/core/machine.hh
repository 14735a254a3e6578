/**
 * @file
 * The cycle-level RISC I machine: the paper's primary contribution.
 *
 * Execution model
 *  - Register-to-register instructions take one cycle; loads and stores
 *    take two (the extra memory cycle), matching the paper's timing.
 *  - Every control transfer has one architectural delay slot: the
 *    instruction after a jump/call/return always executes (RISC I has no
 *    annul bit).
 *  - CALL slides the register window down; when all windows are
 *    occupied the machine takes a window-overflow trap, spilling the
 *    oldest activation's 16 registers (HIGH + LOCAL) to the register
 *    save stack.  RETURN symmetrically refills on underflow.  Trap cost
 *    (handler overhead plus 16 memory accesses) is charged to the run.
 *
 * Program termination: a taken transfer whose target is the transfer's
 * own address halts the machine (the classic bare-metal self-jump; the
 * assembler's `halt` pseudo-instruction emits `jmpr alw, 0`).
 *
 * Ablation: with MachineConfig::windowedCalls = false the machine
 * models a conventional single-window register file.  Window mechanics
 * still run silently for correctness, but their traps are free and
 * uncounted; instead each CALL/RETURN is charged the software
 * save/restore convention (softFrameWords words each way, executed
 * against the save area so the memory counters see the traffic).
 */

#ifndef RISC1_CORE_MACHINE_HH
#define RISC1_CORE_MACHINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include <optional>

#include "common/program.hh"
#include "core/outcome.hh"
#include "core/regfile.hh"
#include "core/stats.hh"
#include "isa/instruction.hh"
#include "mem/hierarchy.hh"
#include "mem/level.hh"
#include "memory/memory.hh"
#include "target/decode_cache.hh"

namespace risc1::obs {
class Trace;
} // namespace risc1::obs

namespace risc1 {

/** Per-event cycle costs (the paper's stated timing). */
struct Timing
{
    unsigned aluCycles = 1;
    unsigned loadCycles = 2;   ///< includes the extra memory cycle
    unsigned storeCycles = 2;
    unsigned jumpCycles = 1;
    unsigned callCycles = 1;
    unsigned retCycles = 1;
    unsigned specialCycles = 1;
    unsigned trapOverheadCycles = 6;   ///< per overflow/underflow trap
    unsigned trapPerWordCycles = 2;    ///< per spilled/filled word
    unsigned softPerWordCycles = 2;    ///< ablation save/restore word
};

/** Machine construction parameters. */
struct MachineConfig
{
    WindowConfig windows = WindowConfig::full();
    Timing timing;
    std::size_t memorySize = 16u << 20;
    /** Register-save stack top; spills grow downward from here. */
    std::uint32_t saveAreaTop = 0x00f00000;
    /** Ablation save-area top (distinct from the spill stack). */
    std::uint32_t softAreaTop = 0x00e00000;
    /** False = no-window ablation (see file comment). */
    bool windowedCalls = true;
    /** Words saved and restored per call in the ablation. */
    unsigned softFrameWords = 8;
    /**
     * Memory-hierarchy configuration (mem/hierarchy.hh): split L1s
     * over an optional unified L2.  The L1D sees program loads and
     * stores only (window spill/fill traffic bypasses the hierarchy,
     * as trap microcode would).  Empty by default — RISC I had no
     * cache.
     */
    mem::HierarchyConfig caches;
};

/** Packed PSW layout used by GETPSW/PUTPSW. */
struct Psw
{
    CondCodes cc;
    bool intEnable = true;
    std::uint8_t cwp = 0;   ///< read-only via GETPSW
    std::uint8_t swp = 0;   ///< read-only via GETPSW

    std::uint32_t pack() const;
    /** PUTPSW writes condition codes and interrupt enable only. */
    void unpackUserBits(std::uint32_t value);

    bool operator==(const Psw &) const = default;
};

/** Call/return event recorded for the window analyzer. */
enum class CallEvent : std::uint8_t { Call, Return };

/**
 * Full architectural + accounting state captured by Machine::snapshot().
 *
 * A snapshot can be restored into any machine whose window geometry,
 * memory size, and windowed/non-windowed mode match the machine it was
 * taken from; timing parameters and cache fittings may differ.  This is
 * the fork primitive the batch engine uses to run a warmed-up prologue
 * once and sweep the epilogue across configurations: caches whose
 * geometry matches the snapshot resume with their captured contents,
 * any other cache restarts cold.
 *
 * Memory is captured as dirty pages only (everything written since the
 * machine was constructed); memory starts zeroed, so the dirty set is
 * a complete content snapshot.
 */
struct MachineSnapshot
{
    // -- Compatibility fingerprint ---------------------------------------
    WindowConfig windows;
    std::size_t memorySize = 0;
    bool windowedCalls = true;

    // -- Processor state -------------------------------------------------
    std::vector<std::uint32_t> physRegs;
    unsigned cwp = 0;
    Psw psw;
    std::uint32_t pc = 0;
    std::uint32_t npc = 0;
    std::uint32_t lastPc = 0;
    bool halted = false;
    bool inDelaySlot = false;
    bool hasNpcOverride = false;
    std::uint32_t npcOverride = 0;
    unsigned resident = 1;
    unsigned saved = 0;
    std::uint32_t spillSp = 0;
    std::uint32_t softSp = 0;
    bool interruptPending = false;
    std::uint32_t interruptVector = 0;
    std::uint64_t interruptsTaken = 0;

    // -- Accounting ------------------------------------------------------
    RunStats stats;
    MemoryStats memStats;
    std::vector<CallEvent> callTrace;

    // -- Memory and caches -----------------------------------------------
    /** Shared-page view of the dirty contents (no bytes copied). */
    MemoryImage pages;
    mem::HierarchySnapshot caches;

    /**
     * Field-for-field equality over the complete captured state — the
     * oracle the fast-path lockstep and fuzz tests assert with.
     */
    bool operator==(const MachineSnapshot &) const = default;
};

class Machine;

/**
 * One decoded instruction: the decode record both tiers execute, and
 * the fast path's cache entry.  Decoded fields, opcode metadata, the
 * operand-counter contributions, delay-slot classification, and the
 * resolved handler are all computed once at decode time.
 */
struct DecodedInst
{
    Instruction inst;
    const OpcodeInfo *info = nullptr;
    /** Resolved handler; nullptr marks an empty cache slot. */
    void (*exec)(Machine &, const DecodedInst &) = nullptr;
    std::uint8_t regReads = 0;   ///< register-operand reads
    std::uint8_t regWrites = 0;  ///< register-operand writes
    bool nop = false;            ///< isNop(inst)
    bool hasDelaySlot = false;   ///< transfer with architectural slot
};

/** The RISC I processor simulator. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = MachineConfig{});

    const MachineConfig &config() const { return config_; }
    Memory &memory() { return mem_; }
    const Memory &memory() const { return mem_; }

    /** Load a program image and reset the processor to its entry. */
    void loadProgram(const Program &program);

    /** Reset processor state (registers, PSW, stats); memory is kept. */
    void reset(std::uint32_t entry = 0);

    /**
     * Execute one instruction, fetched and decoded afresh (no decode
     * cache). @return false once halted.
     */
    bool step();

    /**
     * Run until halt or @p maxSteps instructions.
     * @throws FatalError when the step limit is hit (runaway program).
     */
    RunOutcome run(std::uint64_t maxSteps = 200'000'000);

    /**
     * Execute up to @p maxSteps instructions through the predecoded
     * fast path and report how far it got (no runaway throw — callers
     * that need a budget, like the batch engine, check `halted`).
     *
     * The only difference from calling step() in a loop is where
     * the decode record comes from: runFast() serves it from a decode
     * cache, and both then run the same handler and per-instruction
     * bookkeeping.  So registers, PSW, memory, all RunStats/
     * MemoryStats/cache counters, interrupt acceptance, delay-slot
     * behavior and trace events are identical, including across
     * self-modifying code and snapshot restore (the decode cache keys
     * on Memory's per-line write generations, so any content change
     * invalidates it); see docs/SIM.md.
     *
     * It starts on a cache line, so its hot loop keeps one alignment
     * when code elsewhere in the binary grows or shrinks (a shift of
     * this function's link address alone once moved batch_sweep by
     * about 4%).
     */
    [[gnu::aligned(64)]] RunOutcome
    runFast(std::uint64_t maxSteps = 200'000'000);

    bool halted() const { return halted_; }
    std::uint32_t pc() const { return pc_; }

    /** Visible register access (current window). */
    std::uint32_t reg(unsigned r) const { return regs_.read(r); }
    void setReg(unsigned r, std::uint32_t v) { regs_.write(r, v); }

    const RegFile &regFile() const { return regs_; }
    const Psw &psw() const { return psw_; }
    const RunStats &stats() const { return stats_; }

    /** Activation frames currently resident in the register file. */
    unsigned residentFrames() const { return resident_; }
    /** Frames spilled to the register-save stack. */
    unsigned savedFrames() const { return saved_; }

    /** Record call/return events for the window analyzer. */
    void setRecordCallTrace(bool on) { recordCalls_ = on; }
    const std::vector<CallEvent> &callTrace() const { return callTrace_; }

    /**
     * Install (or clear, with nullptr) an execution tracer.  While
     * installed, every executed instruction, window trap, and accepted
     * interrupt is recorded into @p trace (obs/trace.hh), on either
     * tier.  Non-owning — the Trace must outlive the registration.
     * One branch per instruction when none is installed.
     */
    void setTrace(obs::Trace *trace) { trace_ = trace; }
    obs::Trace *trace() const { return trace_; }

    /**
     * Request an external interrupt to @p vector.  Taken at the next
     * sequential instruction boundary while interrupts are enabled
     * (RISC I defers acceptance in a taken transfer's shadow — the
     * simulator's stand-in for the chip's LSTPC pipeline restart).
     * Entry mirrors CALLINT: the window slides down, the interrupted
     * instruction's address lands in the new window's r31, and
     * interrupts are disabled; the handler resumes with
     * `reti r31, 0`.
     */
    void raiseInterrupt(std::uint32_t vector);

    /** Interrupts accepted so far. */
    std::uint64_t interruptsTaken() const { return interruptsTaken_; }

    /** Per-level memory-hierarchy statistics (empty when none fitted). */
    mem::HierarchyStats memHierarchyStats() const
    {
        return hier_ ? hier_->stats() : mem::HierarchyStats{};
    }

    /** L1I statistics (zeroes when no instruction cache is fitted). */
    mem::LevelStats icacheStats() const
    {
        return memHierarchyStats().l1i.value_or(mem::LevelStats{});
    }

    /** L1D statistics (zeroes when no data cache is fitted). */
    mem::LevelStats dcacheStats() const
    {
        return memHierarchyStats().l1d.value_or(mem::LevelStats{});
    }

    /**
     * Capture the complete machine state (registers, PSW, window
     * bookkeeping, pending interrupt, statistics, dirty memory pages,
     * cache contents).  The snapshot is self-contained and may outlive
     * this machine.
     */
    MachineSnapshot snapshot() const;

    /**
     * Replace this machine's state with @p snap, as if execution had
     * run to the capture point here.  @throws FatalError when the
     * snapshot's window geometry, memory size, or windowed-calls mode
     * does not match this machine's configuration.  Caches keep their
     * snapshot contents when the geometry matches and restart cold
     * otherwise (see MachineSnapshot).
     */
    void restore(const MachineSnapshot &snap);

  private:
    friend struct OpHandlers;  ///< the opcode handler table (machine.cc)

    /** Decode-cache payload: one word-aligned code address. */
    struct PredecodePayload
    {
        DecodedInst d;
        /** Raw instruction word @ref d was decoded from; an unchanged
         *  word keeps its decode on revalidation, so data stores that
         *  merely land near code cost one word compare, not a
         *  re-decode. */
        std::uint32_t word = 0;
    };

    /** One slot per word-aligned address (see target/decode_cache.hh
     *  for the shared generation-validation machinery). */
    using PredecodeCache = target::DecodeCache<PredecodePayload, 2>;

    void doCall(std::uint32_t target, unsigned rd, bool isInterrupt);
    void doReturn(std::uint32_t target, bool isInterrupt);
    void spillOldestFrame();
    void fillCurrentFrame();
    void transferTo(std::uint32_t target, bool haltOnSelf = false);
    void maybeAcceptInterrupt();
    /** Decode a fetched instruction word (throws the decoder's fault). */
    static DecodedInst predecodeWord(std::uint32_t word);
    /**
     * Execute @p d, the instruction at pc_, once fetched: the
     * per-instruction bookkeeping (trace hook, counters), its handler,
     * and the pc/npc/delay-slot advance — shared by both tiers and
     * inlined into each.
     */
    void issue(const DecodedInst &d);

    MachineConfig config_;
    Memory mem_;
    RegFile regs_;
    Psw psw_;
    RunStats stats_;

    std::uint32_t pc_ = 0;
    std::uint32_t npc_ = 4;
    std::uint32_t lastPc_ = 0;
    bool halted_ = false;
    /** True when the next instruction sits in a delay slot. */
    bool inDelaySlot_ = false;
    /** Taken-transfer target for the instruction after the delay slot. */
    std::uint32_t npcOverride_ = 0;
    bool hasNpcOverride_ = false;

    unsigned resident_ = 1;     ///< frames in the register file
    unsigned saved_ = 0;        ///< frames on the save stack
    std::uint32_t spillSp_;     ///< register-save stack pointer
    std::uint32_t softSp_;      ///< ablation save-area pointer

    bool recordCalls_ = false;
    std::vector<CallEvent> callTrace_;
    obs::Trace *trace_ = nullptr;

    bool interruptPending_ = false;
    std::uint32_t interruptVector_ = 0;
    std::uint64_t interruptsTaken_ = 0;

    std::optional<mem::Hierarchy> hier_;

    /** Lazily populated decode cache, one image per memory page. */
    PredecodeCache predecode_;
};

} // namespace risc1

#endif // RISC1_CORE_MACHINE_HH

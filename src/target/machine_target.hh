/**
 * @file
 * The one Target implementation: a class template over a backend
 * traits struct, instantiated for RISC I (core/Machine) and the CISC
 * baseline (vax/VaxMachine).
 *
 * Everything the two adapters share — forwarding the lifecycle to the
 * wrapped machine, the stats and snapshot wrappers, fork() — is
 * written once here.  What differs between backends is a handful of
 * facts, each stated once in that backend's traits struct: its name,
 * machine/config/snapshot/stats types, its slice of TargetOptions, the
 * assembler, the checksum register, the visible-register count and
 * the workload source.  Adding a backend means one traits struct plus
 * one registry row (registry.cc).
 */

#ifndef RISC1_TARGET_MACHINE_TARGET_HH
#define RISC1_TARGET_MACHINE_TARGET_HH

#include <string>
#include <string_view>
#include <utility>

#include "asm/assembler.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "target/target.hh"
#include "vax/vassembler.hh"
#include "workloads/workloads.hh"

namespace risc1::target {

/** RISC I: core/Machine. */
struct RiscBackend
{
    using Machine = risc1::Machine;
    using Config = MachineConfig;
    using Snapshot = MachineSnapshot;
    using Stats = RunStats;

    static constexpr std::string_view name = "risc";
    static constexpr Config TargetOptions::*options = &TargetOptions::risc;
    static constexpr unsigned checksumReg = 1;
    static constexpr unsigned numRegs = 32;

    static Program
    assemble(const std::string &s,
             std::uint64_t memoryBytes = std::uint64_t{1} << 32)
    {
        return assembleRisc(s, memoryBytes);
    }
    static const std::string &
    workloadSource(const Workload &w)
    {
        return w.riscSource;
    }
};

/** The CISC baseline: vax/VaxMachine. */
struct VaxBackend
{
    using Machine = VaxMachine;
    using Config = VaxConfig;
    using Snapshot = VaxSnapshot;
    using Stats = VaxStats;

    static constexpr std::string_view name = "vax";
    static constexpr Config TargetOptions::*options = &TargetOptions::vax;
    static constexpr unsigned checksumReg = 0;
    static constexpr unsigned numRegs = vaxNumRegs;

    static Program
    assemble(const std::string &s,
             std::uint64_t memoryBytes = std::uint64_t{1} << 32)
    {
        return assembleVax(s, memoryBytes);
    }
    static const std::string &
    workloadSource(const Workload &w)
    {
        return w.vaxSource;
    }
};

/** A backend's full statistics (downcast via riscStats / vaxStats). */
template <typename B>
struct MachineTargetStats final : TargetStats
{
    typename B::Stats run;
    mem::HierarchyStats caches;

    std::uint64_t cycles() const override { return run.cycles; }
    std::uint64_t instructions() const override { return run.instructions; }
    std::uint64_t calls() const override { return run.calls; }
    std::uint64_t returns() const override { return run.returns; }
    const mem::HierarchyStats &memHierarchy() const override
    {
        return caches;
    }

    void
    writeJson(JsonWriter &w) const override
    {
        w.key("stats");
        run.writeJson(w);
        // The same "mem" schema on every backend (docs/MEMORY.md).
        w.key("mem");
        caches.writeJson(w);
    }
};

/** A backend's machine snapshot behind the opaque TargetSnapshot. */
template <typename B>
class MachineTargetSnapshot final : public TargetSnapshot
{
  public:
    explicit MachineTargetSnapshot(typename B::Snapshot snap)
        : snap_(std::move(snap))
    {
    }

    std::string_view backend() const override { return B::name; }
    const typename B::Snapshot &machineSnapshot() const { return snap_; }

  private:
    typename B::Snapshot snap_;
};

/** A simulation target wrapping one machine of backend @p B. */
template <typename B>
class MachineTarget final : public Target
{
  public:
    explicit MachineTarget(const TargetOptions &options)
        : machine_(options.*B::options)
    {
    }

    std::string_view name() const override { return B::name; }

    /** An image that would not fit in memory fails in pass 1. */
    void
    load(const std::string &source) override
    {
        loadProgram(B::assemble(source, machine_.memory().size()));
    }

    void
    loadProgram(const Program &program) override
    {
        codeBytes_ = program.codeBytes();
        machine_.loadProgram(program);
    }

    std::uint64_t codeBytes() const override { return codeBytes_; }
    bool step() override { return machine_.step(); }

    RunOutcome
    run(std::uint64_t maxSteps, bool fast) override
    {
        if (fast)
            return machine_.runFast(maxSteps);
        RunOutcome outcome;
        while (!machine_.halted() && outcome.steps < maxSteps) {
            machine_.step();
            ++outcome.steps;
        }
        outcome.halted = machine_.halted();
        return outcome;
    }

    bool halted() const override { return machine_.halted(); }
    void setTrace(obs::Trace *trace) override { machine_.setTrace(trace); }
    std::uint32_t checksum() const override
    {
        return machine_.reg(B::checksumReg);
    }
    unsigned numRegs() const override { return B::numRegs; }

    std::uint32_t
    readReg(unsigned r) const override
    {
        if (r >= B::numRegs)
            fatal(cat("readReg: r", r, " out of range (", B::name, " has ",
                      B::numRegs, " visible registers)"));
        return machine_.reg(r);
    }

    std::uint32_t pc() const override { return machine_.pc(); }
    std::uint32_t peekWord(std::uint32_t addr) const override
    {
        return machine_.memory().peekWord(addr);
    }

    std::shared_ptr<const TargetStats>
    stats() const override
    {
        auto stats = std::make_shared<MachineTargetStats<B>>();
        stats->run = machine_.stats();
        stats->caches = machine_.memHierarchyStats();
        return stats;
    }

    MemoryStats memStats() const override
    {
        return machine_.memory().stats();
    }

    std::shared_ptr<const TargetSnapshot>
    snapshot() const override
    {
        return std::make_shared<MachineTargetSnapshot<B>>(
            machine_.snapshot());
    }

    void
    restore(const TargetSnapshot &snap) override
    {
        const auto *own =
            dynamic_cast<const MachineTargetSnapshot<B> *>(&snap);
        if (!own)
            fatal(cat("cannot restore a '", snap.backend(),
                      "' snapshot into the '", B::name, "' backend"));
        machine_.restore(own->machineSnapshot());
    }

    std::unique_ptr<Target>
    fork() const override
    {
        // snapshot() + restore() move page handles, not page content,
        // so the clone costs O(pages touched) regardless of memory size.
        TargetOptions options;
        options.*B::options = machine_.config();
        auto clone = std::make_unique<MachineTarget>(options);
        clone->machine_.restore(machine_.snapshot());
        clone->codeBytes_ = codeBytes_;
        return clone;
    }

    MemoryUsage memUsage() const override
    {
        return machine_.memory().usage();
    }

    /** The wrapped machine, for callers that need ISA specifics. */
    typename B::Machine &machine() { return machine_; }

  private:
    typename B::Machine machine_;
    std::uint64_t codeBytes_ = 0;
};

using RiscTarget = MachineTarget<RiscBackend>;
using VaxTarget = MachineTarget<VaxBackend>;
using RiscTargetStats = MachineTargetStats<RiscBackend>;
using VaxTargetStats = MachineTargetStats<VaxBackend>;
using RiscTargetSnapshot = MachineTargetSnapshot<RiscBackend>;
using VaxTargetSnapshot = MachineTargetSnapshot<VaxBackend>;

/**
 * Checked downcast to backend @p B's counters.  @throws FatalError
 * when @p stats came from another backend.
 */
template <typename B>
const MachineTargetStats<B> &
statsOf(const TargetStats &stats)
{
    const auto *s = dynamic_cast<const MachineTargetStats<B> *>(&stats);
    if (!s)
        fatal(cat("result does not carry '", B::name, "' statistics"));
    return *s;
}

/** Checked downcast to the RISC I counters; fatal on a non-RISC result. */
inline const RiscTargetStats &
riscStats(const TargetStats &stats)
{
    return statsOf<RiscBackend>(stats);
}

/** Checked downcast to the baseline counters; fatal on a non-VAX result. */
inline const VaxTargetStats &
vaxStats(const TargetStats &stats)
{
    return statsOf<VaxBackend>(stats);
}

} // namespace risc1::target

#endif // RISC1_TARGET_MACHINE_TARGET_HH

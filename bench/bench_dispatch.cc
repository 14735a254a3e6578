/**
 * D1 — dispatch-loop microbenchmark (google-benchmark): the uncached
 * tier (Machine::step, which decodes every instruction) vs the decode
 * cache (Machine::runFast) on the loop-heavy workloads, where instruction
 * delivery — not window traffic — dominates.  The paper's thesis is
 * that one short simple cycle per instruction wins; the simulator's own
 * dispatch loop should embody that (ROADMAP north star: "makes a hot
 * path measurably faster").  Target: >= 2x steps/sec.
 *
 * Before timing anything, every workload is run once on both paths and
 * the full machine snapshots are compared, so a ctest smoke run of this
 * binary doubles as an end-to-end equivalence check.
 *
 * Always writes a `bench/out/BENCH_dispatch.json` artifact (per-path
 * steps/sec and speedup per workload, plus the geometric mean) so the
 * dispatch-performance trajectory is tracked from PR 2 onward.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "core/machine.hh"
#include "workloads/workloads.hh"

namespace {

using namespace risc1;

/** Loop-heavy first (the fast path's target), one call-heavy control. */
const std::vector<std::string> &
benchWorkloads()
{
    static const std::vector<std::string> ids = {
        "sieve", "k_bitmatrix", "e_strsearch", "puzzle_sub", "fib_rec",
    };
    return ids;
}

void
runStepLoop(Machine &m)
{
    while (!m.halted())
        m.step();
}

void
dispatchBench(benchmark::State &state, const std::string &id, bool fast)
{
    const Workload &w = findWorkload(id);
    const Program prog = assembleRisc(w.riscSource);
    Machine m;
    std::uint64_t steps = 0;
    for (auto _ : state) {
        m.loadProgram(prog);
        if (fast)
            m.runFast();
        else
            runStepLoop(m);
        steps += m.stats().instructions;
    }
    state.counters["steps_per_s"] = benchmark::Counter(
        static_cast<double>(steps), benchmark::Counter::kIsRate);
}

/** Console reporter that also captures the steps/sec counters. */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const auto &run : runs) {
            const auto it = run.counters.find("steps_per_s");
            if (it != run.counters.end())
                captured[run.benchmark_name()] = it->second.value;
        }
        ConsoleReporter::ReportRuns(runs);
    }

    std::map<std::string, double> captured;
};

/** Run @p id on both paths and require bit-identical machine state. */
bool
checkEquivalence(const std::string &id)
{
    const Workload &w = findWorkload(id);
    const Program prog = assembleRisc(w.riscSource);
    Machine slow, fast;
    slow.loadProgram(prog);
    fast.loadProgram(prog);
    runStepLoop(slow);
    fast.runFast();
    if (slow.snapshot() == fast.snapshot())
        return true;
    std::cerr << "FATAL: step()/runFast() state divergence on workload '"
              << id << "'\n";
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    for (const auto &id : benchWorkloads())
        if (!checkEquivalence(id))
            return 1;

    for (const auto &id : benchWorkloads()) {
        benchmark::RegisterBenchmark(
            ("dispatch_step/" + id).c_str(),
            [id](benchmark::State &st) { dispatchBench(st, id, false); });
        benchmark::RegisterBenchmark(
            ("dispatch_fast/" + id).c_str(),
            [id](benchmark::State &st) { dispatchBench(st, id, true); });
    }

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    Table table({"workload", "step() steps/s", "runFast steps/s",
                 "speedup"});
    JsonWriter json;
    json.beginObject()
        .field("bench", "dispatch")
        .key("workloads")
        .beginArray();

    double product = 1.0;
    int count = 0;
    for (const auto &id : benchWorkloads()) {
        const double slow = reporter.captured["dispatch_step/" + id];
        const double fast = reporter.captured["dispatch_fast/" + id];
        if (slow <= 0.0 || fast <= 0.0)
            continue; // filtered out by a --benchmark_filter run
        const double speedup = fast / slow;
        product *= speedup;
        ++count;
        table.addRow({id, Table::num(slow, 0), Table::num(fast, 0),
                      Table::num(speedup, 2)});
        json.beginObject()
            .field("id", id)
            .field("step_steps_per_s", slow)
            .field("fast_steps_per_s", fast)
            .field("speedup", speedup)
            .endObject();
    }
    const double geomean =
        count ? std::pow(product, 1.0 / count) : 0.0;
    json.endArray().field("geomean_speedup", geomean).endObject();

    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\ngeometric-mean speedup: " << Table::num(geomean, 2)
              << "x\n";

    std::filesystem::create_directories("bench/out");
    const char *path = "bench/out/BENCH_dispatch.json";
    std::ofstream out(path);
    out << json.str() << "\n";
    std::cout << "artifact: " << path << "\n";
    return out ? 0 : 1;
}

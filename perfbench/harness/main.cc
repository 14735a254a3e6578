/**
 * @file
 * perfbench-harness: runs one benchmark workload and writes its
 * metrics, op counts and correctness checks as JSON.
 *
 *     perfbench-harness --workload batch_sweep|serve_mix|diff_fuzz
 *                       --seed N --seconds S --trace 0|1
 *                       --daemon PATH --out FILE [--setup-only]
 *
 * perfbench/run.py builds this binary, runs it (plus the set-up-only
 * repetitions behind setup_s) and prints the benchmark's result line.
 * Every file the run writes (socket, spool, artifact, trace) goes to
 * the current directory.
 * A human-readable copy of every metric, with its unit and sample
 * count, goes to stdout.
 *
 * Exit status: 0 when every check passed, 1 otherwise, 2 on usage.
 */

#include <sched.h>

#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace {

int
usage()
{
    std::cerr << "usage: perfbench-harness --workload W --seed N "
                 "--seconds S --trace 0|1 --daemon PATH --out FILE "
                 "[--setup-only]\n";
    return 2;
}

unsigned
cpuCount()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    std::string outPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (arg == "--workload")
            cfg.workload = next();
        else if (arg == "--seed")
            cfg.seed = std::stoull(next());
        else if (arg == "--seconds")
            cfg.seconds = std::stod(next());
        else if (arg == "--trace")
            cfg.trace = next() == "1";
        else if (arg == "--daemon")
            cfg.daemonPath = next();
        else if (arg == "--out")
            outPath = next();
        else if (arg == "--setup-only")
            cfg.setupOnly = true;
        else
            return usage();
    }
    if (outPath.empty() || cfg.seconds <= 0)
        return usage();
    cfg.nproc = cpuCount();

    using Runner = int (*)(const RunConfig &, Report &, SetupClock &);
    const std::map<std::string, Runner> runners = {
        {"batch_sweep", runBatchSweep},
        {"serve_mix", runServeMix},
        {"diff_fuzz", runDiffFuzz},
    };
    const auto runner = runners.find(cfg.workload);
    if (runner == runners.end())
        return usage();

    Report report;
    SetupClock setup;
    try {
        runner->second(cfg, report, setup);
        if (cfg.trace && !cfg.setupOnly)
            runProbes(cfg, report);
    } catch (const std::exception &e) {
        report.errors.push_back(std::string("harness: ") + e.what());
    }
    report.facts["setup_done_ns"] = std::to_string(monoNs(setup.at));
    report.facts["nproc"] = std::to_string(cfg.nproc);
    if (!cfg.setupOnly) {
        // serve_mix adds the daemon's own peak (it is a separate
        // process) under the same name.
        report.metrics["peak_rss_mib"].value += peakRssMib();
        report.metrics["peak_rss_mib"].unit = "MiB";
    }
    for (const auto &[name, m] : report.metrics)
        report.check(std::isfinite(m.value),
                     name + " is not a finite number");

    std::ofstream out(outPath);
    out << report.json() << "\n";
    out.close();
    if (!out)
        std::cerr << "perfbench-harness: cannot write " << outPath << "\n";

    for (const auto &[name, m] : report.metrics) {
        std::cout << cfg.workload << "  " << std::left << std::setw(34)
                  << name << " " << std::setprecision(6) << m.value << " "
                  << m.unit;
        if (m.samples != 0)
            std::cout << "  (n=" << m.samples << ")";
        std::cout << "\n";
    }
    for (const auto &e : report.errors)
        std::cout << cfg.workload << "  CHECK FAILED: " << e << "\n";
    return report.errors.empty() && report.failed == 0 && out ? 0 : 1;
}

/**
 * @file
 * The three benchmark workloads and the per-layer probes of the traced
 * run (see perfbench/NOTES.md for why each exists).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/job.hh"
#include "util.hh"

namespace perfbench {

/** Marks the end of set-up: the instant the first timed op may start. */
struct SetupClock
{
    Clock::time_point at{};
    bool set = false;

    void
    done()
    {
        if (!set) {
            at = Clock::now();
            set = true;
        }
    }
};

/**
 * Engine workers of every pool the benchmark starts (the sweep's batch
 * engine, the diff engine, the daemon's).  One: the fewer threads the
 * benchmark keeps busy, the less host preemption on a small shared
 * machine moves its figures (see NOTES.md).
 */
inline constexpr unsigned kEngineWorkers = 1;

// ------------------------------------------------------------ batch_sweep

/** One seeded sweep: the job-file text and the parsed jobs. */
struct SweepPlan
{
    std::string jobText;
    std::vector<risc1::sim::SimJob> jobs;
    /** Per job, the workload's reference checksum (native C++). */
    std::vector<std::uint32_t> reference;
};

SweepPlan planSweep(std::uint64_t seed);

/** What one sweep round (run + render) produced. */
struct SweepRound
{
    std::vector<risc1::sim::SimResult> results;
    std::string artifact;
    double wallMs = 0.0;      ///< runBatchReport + artifact rendering
    double artifactMs = 0.0;  ///< artifact rendering alone
    std::uint64_t instructions = 0;
    /** Per job: worker CPU time (see NOTES.md on why not wall time),
     *  queue wait; per worker: utilization. */
    std::vector<double> jobCpuMs, queueWaitMs, utilization;
};

SweepRound runSweepRound(const SweepPlan &plan, unsigned workers,
                         Spans &spans, std::uint64_t round);

/** sim.* per-layer metrics from @p rounds of @p plan. */
void simLayerMetrics(const SweepPlan &plan,
                     const std::vector<SweepRound> &rounds,
                     Report &report);

int runBatchSweep(const RunConfig &cfg, Report &report, SetupClock &setup);

// -------------------------------------------------------------- serve_mix

/** The RL program every serve_mix session runs; it never halts. */
const std::string &serveProgramRl();

/** maxSteps of every serve_mix `run`, and the daemon's turn quota: each
 *  run takes four quota-sliced turns. */
inline constexpr std::uint64_t kServeRunSteps = 20'000;
inline constexpr std::uint64_t kServeQuota = 5'000;

int runServeMix(const RunConfig &cfg, Report &report, SetupClock &setup);

/**
 * A shorter serve_mix phase for the traced runs of the other
 * workloads, so every traced run reports the server layers.
 */
void probeServe(const RunConfig &cfg, Report &report);

// -------------------------------------------------------------- diff_fuzz

/** First RL seed of a run's seed range: the default benchmark seed 1
 *  maps to riscdiff's default start seed 1. */
std::uint64_t diffStartSeed(std::uint64_t seed);

int runDiffFuzz(const RunConfig &cfg, Report &report, SetupClock &setup);

// ----------------------------------------------------------------- probes

/**
 * Per-layer probes: timed calls into each module's public functions,
 * made from outside the program.  Fills every per-layer metric the
 * workload's own traced phase did not.
 */
void runProbes(const RunConfig &cfg, Report &report);

/** trace.overhead_share, self time per layer, the Chrome trace file. */
void finishTrace(const RunConfig &cfg, const Spans &spans,
                 double untracedMsPerOp, double tracedMsPerOp,
                 Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

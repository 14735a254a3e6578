/**
 * @file
 * diff_fuzz: the riscdiff loop.  Seeded RL programs are generated and
 * judged by lang::diffProgram (the reference oracle against both
 * backends x both simulator tiers), fanned out over a sim::Engine pool
 * of at most nproc workers, exactly as riscdiff runs them.  Every
 * seed must agree; the per-block digests fold the oracle observations
 * exactly as riscdiff does, so run.py can compare a block against
 * riscdiff's own summary line.
 */

#include "workloads.hh"

#include "hostspeed.hh"

#include <atomic>

#include "common/logging.hh"
#include "lang/diff.hh"
#include "lang/gen.hh"
#include "sim/engine.hh"

namespace perfbench {

namespace {

/** Seeds per block: the unit of the riscdiff check. */
constexpr std::uint64_t kBlockSeeds = 400;

/** Seeds per slice: the unit of timing.  Each slice's times are scaled
 *  by the speed probe run just before it (hostspeed.hh). */
constexpr std::uint64_t kSliceSeeds = 50;
static_assert(kBlockSeeds % kSliceSeeds == 0);

/** A slice's time goes as the speed probe's to this power: the log-log
 *  slope measured over two sets of runs was 1.02 and 1.04 (NOTES.md). */
constexpr double kSpeedSensitivity = 1.0;

/** One seed's verdict. */
struct SeedVerdict
{
    bool skipped = false;
    bool agreed = false;
    std::uint32_t digest = 0;
    double wallMs = 0.0;
    double cpuMs = 0.0;  ///< the worker thread's CPU time for the seed
    double queueWaitMs = 0.0;
    std::string report;
};

/** Judge one seed exactly as riscdiff does: generateProgram, then
 *  diffProgram, under one span. */
SeedVerdict
judgeSeed(std::uint64_t seed, Spans &spans, unsigned lane)
{
    namespace lang = risc1::lang;
    const Scope span(spans, "diff.seed", "lang", 0, seed, lane);
    const lang::Program program = lang::generateProgram(seed);
    const lang::DiffOutcome o = lang::diffProgram(program);
    SeedVerdict v;
    v.skipped = o.skipped;
    v.agreed = o.agreed;
    if (!o.skipped)
        v.digest = o.reference.obs.digest();
    if (!o.skipped && !o.agreed)
        v.report = risc1::cat("seed ", seed, ": ", o.report());
    return v;
}

/** Aggregates of one block of consecutive seeds. */
struct Block
{
    double wallMs = 0.0;
    std::uint32_t digest = kFnvBasis;
};

} // namespace

std::uint64_t
diffStartSeed(std::uint64_t seed)
{
    // Disjoint 10^6-seed ranges per benchmark seed; seed 1 starts at
    // riscdiff's default start seed.
    return 1 + ((seed - 1) & 0xffffffffull) * 1'000'000;
}

int
runDiffFuzz(const RunConfig &cfg, Report &report, SetupClock &setup)
{
    const unsigned workers = kEngineWorkers;
    const std::uint64_t first = diffStartSeed(cfg.seed);
    // Pinned before the engine starts its workers, so they share the
    // CPU with the speed probe.
    const PinToCpu pin;
    // The engine's queue holds two tasks per worker, so the queue wait
    // measures scheduling, not how far ahead the submitter ran.
    risc1::sim::Engine engine(workers, 2 * std::size_t(workers));
    setup.done();
    if (cfg.setupOnly)
        return 0;

    report.facts["workers"] = std::to_string(workers);
    report.facts["first_seed"] = std::to_string(first);
    report.facts["block_seeds"] = std::to_string(kBlockSeeds);
    report.facts["cpu"] = std::to_string(pin.cpu());

    Spans untraced(false);
    Spans traced(true);
    std::vector<double> seedsPerS, wallSeedsPerS, seedCpuMs, untracedMs,
        tracedMs, queueWaitMs, utilization, probeMs;
    std::uint64_t next = first;
    std::uint64_t skipped = 0;
    // Each worker thread takes a lane number on its first task; a lane
    // is written only by its own thread, and read after drain().
    std::atomic<unsigned> lanes{0};

    const auto start = Clock::now();
    for (const bool tracing : {false, true}) {
        if (tracing && !cfg.trace)
            break;
        Spans &spans = tracing ? traced : untraced;
        const double untilMs = cfg.seconds * 1000.0 *
                               (cfg.trace && !tracing ? 0.5 : 1.0);
        for (unsigned n = 0; n < 2 || msSince(start) < untilMs; ++n) {
            std::vector<SeedVerdict> verdicts(kBlockSeeds);
            std::vector<double> laneBusy(workers, 0.0);
            Block block;
            for (std::uint64_t s0 = 0; s0 < kBlockSeeds;
                 s0 += kSliceSeeds) {
                probeMs.push_back(speedProbeMs());
                const double scale =
                    speedScale(probeMs.back(), kSpeedSensitivity);
                const auto t0 = Clock::now();
                for (std::uint64_t i = s0; i < s0 + kSliceSeeds; ++i) {
                    SeedVerdict *slot = &verdicts[i];
                    const std::uint64_t seed = next + i;
                    const auto submitted = Clock::now();
                    engine.submit([slot, seed, submitted, &spans, &lanes,
                                   &laneBusy] {
                        thread_local unsigned lane = ~0u;
                        if (lane == ~0u)
                            lane = lanes.fetch_add(1);
                        const auto began = Clock::now();
                        const double cpu0 = threadCpuMs();
                        *slot = judgeSeed(seed, spans, lane + 1);
                        slot->cpuMs = threadCpuMs() - cpu0;
                        slot->queueWaitMs = msBetween(submitted, began);
                        slot->wallMs = msSince(began);
                        laneBusy[lane] += slot->wallMs;
                    });
                }
                engine.drain();
                const double wallMs = msSince(t0);
                block.wallMs += wallMs;
                const double refMs = wallMs * scale;
                (tracing ? tracedMs : untracedMs)
                    .push_back(refMs / double(kSliceSeeds));
                if (tracing)
                    continue;
                double judged = 0;
                for (std::uint64_t i = s0; i < s0 + kSliceSeeds; ++i) {
                    if (verdicts[i].skipped)
                        continue;
                    ++judged;
                    seedCpuMs.push_back(verdicts[i].cpuMs * scale);
                }
                seedsPerS.push_back(judged / (refMs / 1e3));
                wallSeedsPerS.push_back(judged / (wallMs / 1e3));
            }
            for (std::uint64_t i = 0; i < kBlockSeeds; ++i) {
                const SeedVerdict &v = verdicts[i];
                ++report.attempted;
                if (v.skipped) {
                    ++skipped;
                    block.digest = fold(block.digest, 0x51u);
                    continue;
                }
                block.digest = fold(block.digest, v.digest);
                if (!v.agreed) {
                    ++report.failed;
                    if (report.errors.size() < 8)
                        report.errors.push_back(v.report);
                }
                if (tracing)
                    queueWaitMs.push_back(v.queueWaitMs);
            }
            if (next == first)
                report.facts["first_block_digest"] =
                    "0x" + hex32(block.digest);
            next += kBlockSeeds;
            if (tracing)
                for (const double b : laneBusy)
                    utilization.push_back(b / block.wallMs);
        }
    }

    report.facts["seeds"] = std::to_string(next - first);
    report.facts["skipped"] = std::to_string(skipped);
    report.set("ops_per_s", median(seedsPerS), "1/s");
    report.set("wall_ops_per_s", median(wallSeedsPerS), "1/s");
    report.set("host.probe_ms", median(probeMs), "ms");
    report.facts["setup_scale"] =
        std::to_string(speedScale(median(probeMs), kSetupSensitivity));
    report.setOpLatencies(seedCpuMs);

    if (cfg.trace) {
        // The engine is the sim layer this workload runs through.
        report.setPercentile("sim.queue_wait_p99_ms",
                             percentile(queueWaitMs, 0.99), "ms");
        report.set("sim.worker_util", median(utilization), "share");
        finishTrace(cfg, traced, median(untracedMs), median(tracedMs),
                    report);
    }
    return 0;
}

} // namespace perfbench

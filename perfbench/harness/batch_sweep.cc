/**
 * @file
 * batch_sweep: the researchers' sweep path.  A seeded job file — every
 * paper workload x {risc, vax} x {flat memory, seeded L1I+L1D+L2} x
 * seeded RISC window count — is parsed by the job-file layer, run
 * through sim::runBatchReport with the fast path on, and rendered by
 * the artifact writer, round after round until the run's time is up.
 */

#include "workloads.hh"

#include "hostspeed.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/random.hh"
#include "sim/artifact.hh"
#include "sim/engine.hh"
#include "sim/jobfile.hh"
#include "workloads/workloads.hh"

namespace perfbench {

using risc1::sim::JobStatus;
using risc1::sim::SimJob;
using risc1::sim::SimResult;

namespace {

/** RISC register-window counts; every round runs each RISC job once
 *  per count, so the seed moves parameters but not the amount of work. */
constexpr unsigned kWindows[] = {2, 3, 4, 6, 8};
constexpr unsigned kReplicas = std::size(kWindows);

/** A sweep round's time goes as the speed probe's to this power: the
 *  log-log slope measured over two sets of runs was 1.41 and 1.49
 *  (NOTES.md). */
constexpr double kSpeedSensitivity = 1.5;

std::string
levelSpec(risc1::Rng &rng, const std::vector<unsigned> &sizes,
          unsigned line, int penaltyLo, int penaltyHi)
{
    const unsigned size = sizes[rng.below(sizes.size())];
    const auto penalty = rng.range(penaltyLo, penaltyHi);
    return risc1::cat(size, ",", line, ",", penalty,
                      rng.chance(1, 2) ? ",wt" : ",wb");
}

/** Count failed jobs: a bad status, or a checksum other than the
 *  workload's native reference value. */
std::uint64_t
failedJobs(const SweepPlan &plan, const std::vector<SimResult> &results,
           Report &report)
{
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SimResult &r = results[i];
        if (r.status == JobStatus::Ok && r.checksum == plan.reference[i])
            continue;
        ++failed;
        if (report.errors.size() < 8)
            report.errors.push_back(risc1::cat(
                "job ", r.id, ": status ",
                risc1::sim::jobStatusName(r.status), ", checksum ",
                r.checksum, " (expected ", plan.reference[i], ") ",
                r.error));
    }
    return failed;
}

/** Digest of every job's simulated statistics: status, checksum,
 *  cycles, instructions, and each mem level's counters. */
std::uint32_t
statsDigest(const std::vector<SimResult> &results)
{
    std::uint32_t h = kFnvBasis;
    for (const SimResult &r : results) {
        h = fold(h, std::uint32_t(r.status));
        h = fold(h, r.checksum);
        h = fold64(h, r.stats->cycles());
        h = fold64(h, r.stats->instructions());
        const auto &mem = r.stats->memHierarchy();
        for (const auto *level : {&mem.l1i, &mem.l1d, &mem.l2}) {
            h = fold(h, level->has_value() ? 1u : 0u);
            if (!level->has_value())
                continue;
            h = fold64(h, (*level)->hits);
            h = fold64(h, (*level)->misses);
            h = fold64(h, (*level)->writebacks);
            h = fold64(h, (*level)->penaltyCycles);
        }
    }
    return h;
}

} // namespace

SweepPlan
planSweep(std::uint64_t seed)
{
    risc1::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xba7c5);
    SweepPlan plan;
    std::ostringstream os;
    os << "# batch_sweep job set, seed " << seed << "\n";
    const auto windowShift = rng.below(kReplicas);
    for (unsigned r = 0; r < kReplicas; ++r) {
        for (const risc1::Workload &w : risc1::allWorkloads()) {
            for (const std::string backend : {"risc", "vax"}) {
                for (const bool hier : {false, true}) {
                    os << "\n[job]\nid = r" << r << "-" << w.id << "-"
                       << backend << (hier ? "-l1l2" : "-flat")
                       << "\nworkload = " << w.id
                       << "\nmachine = " << backend << "\n";
                    if (backend == "risc")
                        os << "windows = "
                           << kWindows[(r + windowShift) % kReplicas]
                           << "\n";
                    if (hier) {
                        const unsigned line = rng.chance(1, 2) ? 16 : 32;
                        os << "l1i = "
                           << levelSpec(rng, {256, 512, 1024, 2048}, line,
                                        2, 6)
                           << "\nl1d = "
                           << levelSpec(rng, {256, 512, 1024, 2048}, line,
                                        2, 6)
                           << "\nl2 = "
                           << levelSpec(rng, {4096, 8192, 16384}, 32, 10,
                                        16)
                           << "\n";
                    }
                    plan.reference.push_back(w.expected);
                }
            }
        }
    }
    plan.jobText = os.str();
    plan.jobs = risc1::sim::parseJobText(plan.jobText);
    if (plan.jobs.size() != plan.reference.size())
        risc1::fatal("batch_sweep: job file parsed to the wrong job count");
    return plan;
}


SweepRound
runSweepRound(const SweepPlan &plan, unsigned workers, Spans &spans,
              std::uint64_t round)
{
    SweepRound out;
    risc1::sim::BatchOptions opts;
    opts.workers = workers;

    const auto t0 = Clock::now();
    const Scope batchSpan(spans, "sim.runBatchReport", "sim", 0, round);
    risc1::sim::BatchReport report =
        risc1::sim::runBatchReport(plan.jobs, opts);
    const auto t1 = Clock::now();
    {
        const Scope artifactSpan(spans, "sim.artifact", "sim",
                                 batchSpan.id(), round);
        risc1::sim::ArtifactOptions artifact;
        artifact.metrics = &report.metrics;
        out.artifact = risc1::sim::resultSetToJson(
            "batch_sweep", report.results, artifact);
    }
    const auto t2 = Clock::now();

    // Jobs run inside the engine; their spans come from the engine's
    // own per-job timing, placed under the round's span.  They are
    // recorded inside the timed window, so a traced round pays for
    // them and trace.overhead_share shows that cost.
    const auto at = [t0](double ms) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
    };
    for (const SimResult &r : report.results) {
        const bool risc = r.backend == "risc";
        spans.add(risc ? "core.job" : "vax.job", risc ? "core" : "vax",
                  batchSpan.id(), round, r.metrics.worker + 1,
                  at(r.metrics.startMs),
                  at(r.metrics.startMs + r.metrics.wallMs));
    }
    out.wallMs = msSince(t0);
    out.artifactMs = msBetween(t1, t2);

    for (const SimResult &r : report.results) {
        out.instructions += r.stats->instructions();
        out.jobCpuMs.push_back(r.metrics.cpuMs);
        out.queueWaitMs.push_back(r.metrics.queueWaitMs);
    }
    for (const auto &w : report.metrics.perWorker)
        out.utilization.push_back(w.utilization);
    out.results = std::move(report.results);
    return out;
}

void
simLayerMetrics(const SweepPlan &plan,
                const std::vector<SweepRound> &rounds, Report &report)
{
    std::vector<double> parseMs;
    for (int i = 0; i < 20; ++i) {
        const auto t0 = Clock::now();
        const auto jobs = risc1::sim::parseJobText(plan.jobText);
        parseMs.push_back(msSince(t0));
        report.check(jobs.size() == plan.jobs.size(),
                     "job file re-parse changed the job count");
    }
    std::vector<double> queueWaitMs, utilization, artifactMs;
    for (const SweepRound &r : rounds) {
        queueWaitMs.insert(queueWaitMs.end(), r.queueWaitMs.begin(),
                           r.queueWaitMs.end());
        utilization.insert(utilization.end(), r.utilization.begin(),
                           r.utilization.end());
        artifactMs.push_back(r.artifactMs);
    }
    report.set("sim.jobfile_ms", median(parseMs), "ms");
    report.set("sim.artifact_ms", median(artifactMs), "ms");
    report.setPercentile("sim.queue_wait_p99_ms",
                         percentile(queueWaitMs, 0.99), "ms");
    report.set("sim.worker_util", median(utilization), "share");
}

int
runBatchSweep(const RunConfig &cfg, Report &report, SetupClock &setup)
{
    const SweepPlan plan = planSweep(cfg.seed);
    setup.done();
    if (cfg.setupOnly)
        return 0;

    const unsigned workers = kEngineWorkers;
    report.facts["workers"] = std::to_string(workers);
    report.facts["jobs_per_round"] = std::to_string(plan.jobs.size());
    // The engine's worker threads start inside runBatchReport, so they
    // share the pinned CPU with the speed probe.
    const PinToCpu pin;
    report.facts["cpu"] = std::to_string(pin.cpu());

    Spans untraced(false);
    Spans traced(true);
    std::vector<double> jobsPerS, wallJobsPerS, minstrPerS, jobCpuMs,
        untracedMs, tracedMs, probeMs;
    std::vector<SweepRound> tracedRounds;
    std::uint32_t digest = 0;
    std::uint64_t round = 0;
    std::string artifact;

    // Untraced rounds give the end-to-end figures.  A traced run
    // spends the second half of its time on traced rounds, whose cost
    // relative to the untraced rounds is the tracing overhead.  Every
    // round's times are scaled by the speed probe run just before it.
    const auto start = Clock::now();
    for (const bool tracing : {false, true}) {
        if (tracing && !cfg.trace)
            break;
        const double untilMs = cfg.seconds * 1000.0 *
                               (cfg.trace && !tracing ? 0.5 : 1.0);
        for (unsigned n = 0; n < 3 || msSince(start) < untilMs; ++n) {
            probeMs.push_back(speedProbeMs());
            const double scale =
                speedScale(probeMs.back(), kSpeedSensitivity);
            SweepRound r = runSweepRound(
                plan, workers, tracing ? traced : untraced, ++round);
            const std::uint32_t d = statsDigest(r.results);
            if (round == 1)
                digest = d;
            report.check(d == digest,
                         risc1::cat("round ", round,
                                    ": simulated statistics differ from "
                                    "round 1"));
            report.attempted += r.results.size();
            report.failed += failedJobs(plan, r.results, report);
            const double refMs = r.wallMs * scale;
            (tracing ? tracedMs : untracedMs).push_back(refMs);
            if (!tracing) {
                const double jobs = double(r.results.size());
                jobsPerS.push_back(jobs / (refMs / 1e3));
                wallJobsPerS.push_back(jobs / (r.wallMs / 1e3));
                minstrPerS.push_back(double(r.instructions) /
                                     (refMs / 1e3) / 1e6);
                for (const double ms : r.jobCpuMs)
                    jobCpuMs.push_back(ms * scale);
            }
            artifact = std::move(r.artifact);
            r.results.clear();
            if (tracing)
                tracedRounds.push_back(std::move(r));
        }
    }

    // Reference-tier cross-check (untimed): the per-step interpreter
    // must reproduce every simulated statistic of the fast path.
    {
        SweepPlan reference = plan;
        for (SimJob &job : reference.jobs)
            job.fast = false;
        Spans off(false);
        const SweepRound r = runSweepRound(reference, workers, off, 0);
        report.attempted += r.results.size();
        report.failed += failedJobs(reference, r.results, report);
        report.check(statsDigest(r.results) == digest,
                     "reference-tier (step) statistics differ from the "
                     "fast path");
    }

    std::ofstream("batch_sweep.json") << artifact;
    report.facts["stats_digest"] = "0x" + hex32(digest);
    report.facts["rounds"] = std::to_string(round);

    report.set("ops_per_s", median(jobsPerS), "1/s");
    report.set("wall_ops_per_s", median(wallJobsPerS), "1/s");
    report.set("host.probe_ms", median(probeMs), "ms");
    report.facts["setup_scale"] =
        std::to_string(speedScale(median(probeMs), kSetupSensitivity));
    report.set("sim_minstr_per_s", median(minstrPerS), "Minstr/s");
    report.setOpLatencies(jobCpuMs);

    if (cfg.trace) {
        simLayerMetrics(plan, tracedRounds, report);
        finishTrace(cfg, traced, median(untracedMs), median(tracedMs),
                    report);
    }
    return 0;
}

} // namespace perfbench

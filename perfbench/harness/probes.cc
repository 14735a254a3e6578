/**
 * @file
 * The traced run's per-layer probes: timed calls into each module's
 * public functions, made from outside the program, on the workload's
 * own inputs.  Each probe fills only metrics the workload's traced
 * phase has not already measured.
 */

#include "workloads.hh"

#include <malloc.h>

#include <functional>
#include <future>
#include <iostream>

#include "asm/assembler.hh"
#include "common/json.hh"
#include "common/json_value.hh"
#include "common/logging.hh"
#include "lang/compile.hh"
#include "lang/diff.hh"
#include "lang/gen.hh"
#include "lang/interp.hh"
#include "lang/parser.hh"
#include "server/frame.hh"
#include "server/protocol.hh"
#include "target/registry.hh"
#include "target/snapshot_io.hh"
#include "vax/vassembler.hh"
#include "workloads/workloads.hh"

namespace perfbench {

namespace {

using risc1::target::Target;
using risc1::target::TargetOptions;

/** A program the layer probes run, in both ISAs. */
struct ProbeProgram
{
    std::string riscSource;
    std::string vaxSource;
    /** Step budget per run; programs that halt stop earlier. */
    std::uint64_t maxSteps = 0;
};

/** The workload's own inputs: the paper workloads, the serve program,
 *  or the run's RL programs as the oracle accepts them. */
std::vector<ProbeProgram>
probePrograms(const RunConfig &cfg)
{
    namespace lang = risc1::lang;
    std::vector<ProbeProgram> out;
    if (cfg.workload == "batch_sweep") {
        for (const risc1::Workload &w : risc1::allWorkloads())
            out.push_back({w.riscSource, w.vaxSource, 200'000'000});
    } else if (cfg.workload == "serve_mix") {
        const lang::Program p = lang::parseProgram(serveProgramRl());
        out.push_back({lang::compileRisc(p).source,
                       lang::compileVax(p).source, 200'000});
    } else {  // diff_fuzz
        for (std::uint64_t seed = diffStartSeed(cfg.seed); out.size() < 32;
             ++seed) {
            const lang::Program p = lang::generateProgram(seed);
            lang::InterpLimits il;
            il.maxSteps = lang::DiffLimits{}.maxInterpSteps;
            if (!lang::interpret(p, il).ok)
                continue;
            out.push_back({lang::compileRisc(p).source,
                           lang::compileVax(p).source,
                           lang::DiffLimits{}.maxSimSteps});
        }
    }
    return out;
}

/** The L1I+L1D+L2 configuration the mem probe compares with flat. */
TargetOptions
hierarchyOptions()
{
    TargetOptions opts;
    risc1::mem::HierarchyConfig h;
    h.l1i = risc1::mem::LevelConfig{1024, 16, 4,
                                    risc1::mem::WritePolicy::WriteThrough};
    h.l1d = risc1::mem::LevelConfig{1024, 16, 4,
                                    risc1::mem::WritePolicy::WriteBack};
    h.l2 = risc1::mem::LevelConfig{8192, 32, 12,
                                   risc1::mem::WritePolicy::WriteBack};
    opts.risc.caches = h;
    opts.vax.caches = h;
    return opts;
}

/** Repeat @p body until @p minMs have passed (and at least @p minReps
 *  times); @return the median per-call time in µs. */
double
medianUs(const std::function<void()> &body, double minMs = 30.0,
         unsigned minReps = 5)
{
    std::vector<double> us;
    const auto start = Clock::now();
    while (us.size() < minReps || msSince(start) < minMs) {
        const auto t0 = Clock::now();
        body();
        us.push_back(msSince(t0) * 1e3);
    }
    return median(us);
}

const std::string &
sourceFor(const ProbeProgram &p, bool risc)
{
    return risc ? p.riscSource : p.vaxSource;
}

/** ns per simulated instruction: cold first run after load, warm fast
 *  rerun after restore, reference step(), and warm fast with the
 *  hierarchy; plus the hierarchy's exact miss counts. */
struct TierTimes
{
    double coldNs = 0, fastNs = 0, stepNs = 0, hierNs = 0;
    std::uint64_t misses[3] = {0, 0, 0}, accesses[3] = {0, 0, 0};
};

TierTimes
timeTiers(const std::vector<ProbeProgram> &programs, bool risc)
{
    const char *backend = risc ? "risc" : "vax";
    const TargetOptions hier = hierarchyOptions();
    std::vector<double> cold, fast, step, withHier;
    TierTimes out;
    for (unsigned rep = 0; rep < 3; ++rep) {
        double ns[4] = {0, 0, 0, 0};
        std::uint64_t instr[4] = {0, 0, 0, 0};
        for (const ProbeProgram &p : programs) {
            const auto timed = [&](Target &t, bool useFast, int slot) {
                const auto t0 = Clock::now();
                const risc1::RunOutcome o = t.run(p.maxSteps, useFast);
                ns[slot] += msSince(t0) * 1e6;
                instr[slot] += o.steps;
            };
            auto flat = risc1::target::makeTarget(backend);
            flat->load(sourceFor(p, risc));
            const auto loaded = flat->snapshot();
            timed(*flat, true, 0);  // cold: decode caches empty
            flat->restore(*loaded);
            timed(*flat, true, 1);  // warm fast path
            flat->restore(*loaded);
            timed(*flat, false, 2);  // reference step()

            auto cached = risc1::target::makeTarget(backend, hier);
            cached->load(sourceFor(p, risc));
            const auto fresh = cached->snapshot();
            cached->run(p.maxSteps, true);  // warm the decode cache
            cached->restore(*fresh);         // caches start empty again
            timed(*cached, true, 3);
            if (rep == 0) {
                const auto &mem = cached->stats()->memHierarchy();
                const std::optional<risc1::mem::LevelStats> *levels[3] = {
                    &mem.l1i, &mem.l1d, &mem.l2};
                for (int l = 0; l < 3; ++l) {
                    if (!levels[l]->has_value())
                        continue;
                    out.misses[l] += (*levels[l])->misses;
                    out.accesses[l] += (*levels[l])->accesses();
                }
            }
        }
        cold.push_back(ns[0] / double(instr[0]));
        fast.push_back(ns[1] / double(instr[1]));
        step.push_back(ns[2] / double(instr[2]));
        withHier.push_back(ns[3] / double(instr[3]));
    }
    out.coldNs = median(cold);
    out.fastNs = median(fast);
    out.stepNs = median(step);
    out.hierNs = median(withHier);
    return out;
}

void
probeSimulators(const std::vector<ProbeProgram> &programs, Report &report)
{
    std::uint64_t misses[3] = {0, 0, 0}, accesses[3] = {0, 0, 0};
    for (const bool risc : {true, false}) {
        const TierTimes t = timeTiers(programs, risc);
        const std::string layer = risc ? "core" : "vax";
        report.set(layer + ".fast_ns_per_instr", t.fastNs, "ns/instr");
        report.set(layer + ".step_ns_per_instr", t.stepNs, "ns/instr");
        report.set(layer + ".cold_ns_per_instr", t.coldNs, "ns/instr");
        report.set(std::string("mem.") + (risc ? "risc" : "vax") +
                       "_hier_ns_per_instr",
                   t.hierNs - t.fastNs, "ns/instr");
        for (int l = 0; l < 3; ++l) {
            misses[l] += t.misses[l];
            accesses[l] += t.accesses[l];
        }
    }
    const char *names[3] = {"mem.l1i_miss_ratio", "mem.l1d_miss_ratio",
                            "mem.l2_miss_ratio"};
    for (int l = 0; l < 3; ++l)
        report.set(names[l],
                   accesses[l] ? double(misses[l]) / double(accesses[l])
                               : 0.0,
                   "ratio");
}

void
probeAssembler(const std::vector<ProbeProgram> &programs, Report &report)
{
    std::size_t bytes = 0;
    report.set("asm.risc_us",
               medianUs([&] {
                   for (const auto &p : programs)
                       bytes += risc1::assembleRisc(p.riscSource)
                                    .codeBytes();
               }) / double(programs.size()),
               "us");
    report.set("asm.vax_us",
               medianUs([&] {
                   for (const auto &p : programs)
                       bytes += risc1::assembleVax(p.vaxSource).codeBytes();
               }) / double(programs.size()),
               "us");
    report.check(bytes > 0, "asm probe assembled no code");
}

void
probeLang(const RunConfig &cfg, Report &report)
{
    namespace lang = risc1::lang;
    const std::uint64_t first = diffStartSeed(cfg.seed);
    constexpr unsigned kPrograms = 64;
    std::vector<lang::Program> programs;
    double genUs = medianUs(
        [&] {
            programs.clear();
            for (unsigned i = 0; i < kPrograms; ++i)
                programs.push_back(lang::generateProgram(first + i));
        },
        30.0, 3);
    // Only programs the oracle finishes reach the lowerings (the
    // riscdiff rule for skipped seeds).
    std::vector<lang::Program> judged;
    const double interpUs = medianUs(
        [&] {
            judged.clear();
            for (const auto &p : programs) {
                lang::InterpLimits il;
                il.maxSteps = lang::DiffLimits{}.maxInterpSteps;
                if (lang::interpret(p, il).ok)
                    judged.push_back(p.clone());
            }
        },
        30.0, 3);
    const double riscUs = medianUs([&] {
        for (const auto &p : judged)
            lang::compileRisc(p);
    });
    const double vaxUs = medianUs([&] {
        for (const auto &p : judged)
            lang::compileVax(p);
    });
    const double n = double(std::max<std::size_t>(1, judged.size()));
    report.set("lang.gen_us", genUs / kPrograms, "us");
    report.set("lang.interp_us", interpUs / kPrograms, "us");
    report.set("lang.compile_risc_us", riscUs / n, "us");
    report.set("lang.compile_vax_us", vaxUs / n, "us");
}

/** Targets warmed on each probe program (run to halt or budget). */
std::vector<std::unique_ptr<Target>>
warmedTargets(const std::vector<ProbeProgram> &programs)
{
    std::vector<std::unique_ptr<Target>> out;
    for (const ProbeProgram &p : programs) {
        for (const bool risc : {true, false}) {
            auto t = risc1::target::makeTarget(risc ? "risc" : "vax");
            t->load(sourceFor(p, risc));
            t->run(p.maxSteps, true);
            out.push_back(std::move(t));
        }
    }
    return out;
}

void
probeSnapshots(const std::vector<std::unique_ptr<Target>> &targets,
               Report &report)
{
    std::vector<std::shared_ptr<const risc1::target::TargetSnapshot>> snaps;
    for (const auto &t : targets)
        snaps.push_back(t->snapshot());
    std::vector<std::vector<std::uint8_t>> encoded(snaps.size());
    const double encodeUs = medianUs([&] {
        for (std::size_t i = 0; i < snaps.size(); ++i)
            encoded[i] = risc1::target::serializeSnapshot(*snaps[i]);
    });
    double bytes = 0;
    for (const auto &e : encoded)
        bytes += double(e.size());
    bool roundTrips = true;
    const double decodeUs = medianUs([&] {
        for (std::size_t i = 0; i < encoded.size(); ++i)
            roundTrips &= risc1::target::deserializeSnapshot(encoded[i])
                              ->backend() == snaps[i]->backend();
    });
    report.check(roundTrips, "snapshot codec changed a snapshot's backend");
    const double n = double(targets.size());
    report.set("target.snapshot_encode_us", encodeUs / n, "us");
    report.set("target.snapshot_decode_us", decodeUs / n, "us");
    report.set("target.snapshot_kib", bytes / n / 1024.0, "KiB");
}

void
probeForks(const std::vector<std::unique_ptr<Target>> &targets,
           Report &report)
{
    constexpr unsigned kForks = 100;
    std::vector<double> us, kib;
    for (const auto &base : targets) {
        malloc_trim(0);
        const std::uint64_t rss0 = rssBytes();
        std::vector<std::unique_ptr<Target>> fleet;
        fleet.reserve(kForks);
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < kForks; ++i)
            fleet.push_back(base->fork());
        us.push_back(msSince(t0) * 1e3 / kForks);
        const std::uint64_t rss1 = rssBytes();
        kib.push_back(double(rss1 > rss0 ? rss1 - rss0 : 0) / 1024.0 /
                      kForks);
        report.check(fleet.back()->pc() == base->pc() &&
                         fleet.back()->checksum() == base->checksum(),
                     "a fork lost its parent's state");
    }
    report.set("memory.fork_us", median(us), "us");
    report.set("memory.fork_resident_kib", median(kib), "KiB");
}

/** In-process Service::execute per command class, plus the frame and
 *  JSON codecs on the replies it produces. */
void
probeService(Report &report)
{
    namespace server = risc1::server;
    server::ServiceConfig sc;
    sc.workers = kEngineWorkers;
    sc.ttlMs = -1;
    sc.quota = kServeQuota;
    sc.spoolDir = "probe-spool";
    server::Service service(sc);
    const auto call = [&service](const std::string &json) {
        std::promise<std::string> reply;
        auto future = reply.get_future();
        service.execute(json, [&reply](std::string payload) {
            reply.set_value(std::move(payload));
        });
        return future.get();
    };
    const auto ok = [&report](const std::string &payload) {
        const risc1::JsonValue v = risc1::parseJson(payload);
        report.check(v.boolOr("ok", false),
                     "service probe: error reply " + payload.substr(0, 120));
        return v;
    };

    const risc1::lang::Program program =
        risc1::lang::parseProgram(serveProgramRl());
    std::vector<std::string> ids;
    for (const bool risc : {true, false}) {
        risc1::JsonWriter w;
        w.beginObject()
            .field("cmd", "create")
            .field("backend", risc ? "risc" : "vax")
            .field("source",
                   std::string_view(
                       risc ? risc1::lang::compileRisc(program).source
                            : risc1::lang::compileVax(program).source))
            .endObject();
        ids.push_back(ok(call(w.str())).stringOr("session", ""));
    }

    // Each command is timed around execute() alone; its reply is
    // parsed and checked afterwards.
    std::vector<double> lightUs, runUs, stateUs;
    const auto timed = [&](std::vector<double> &into,
                           const std::string &json) {
        const auto t0 = Clock::now();
        std::string payload = call(json);
        into.push_back(msSince(t0) * 1e3);
        ok(payload);
        return payload;
    };
    const auto onSession = [&ids](unsigned i, const char *cmd,
                                  const std::string &extra = "") {
        return risc1::cat(R"({"cmd":")", cmd, R"(","session":")",
                          ids[i % ids.size()], "\"", extra, "}");
    };
    std::string statsReply;
    for (unsigned i = 0; i < 200; ++i) {
        timed(lightUs, onSession(i, "step", R"(,"count":16)"));
        timed(lightUs, onSession(i, "regs"));
        timed(lightUs, onSession(i, "peek", R"(,"addr":4096,"count":8)"));
        statsReply = timed(lightUs, onSession(i, "stats"));
        timed(runUs, onSession(i, "run",
                               risc1::cat(R"(,"maxSteps":)", kServeRunSteps)));
        const std::string snap = timed(stateUs, onSession(i, "snapshot"));
        timed(stateUs,
              risc1::cat(R"({"cmd":"drop","snapshot":")",
                         risc1::parseJson(snap).stringOr("snapshot", ""),
                         R"("})"));
        const std::string child = timed(stateUs, onSession(i, "fork"));
        timed(stateUs,
              risc1::cat(R"({"cmd":"destroy","session":")",
                         risc1::parseJson(child).stringOr("session", ""),
                         R"("})"));
        timed(stateUs, onSession(i, "evict"));
        // The first touch after an evict restores from the spool.
        timed(stateUs, onSession(i, "regs"));
    }
    report.set("server.execute_us.light", median(lightUs), "us");
    report.set("server.execute_us.run", median(runUs), "us");
    report.set("server.execute_us.state", median(stateUs), "us");
    service.stop();

    // Codecs on the largest reply the mix produces (stats).
    const double frameUs = medianUs([&] {
        const auto bytes = server::encodeFrame(server::FrameType::Response,
                                               7, statsReply);
        server::FrameReader reader;
        reader.feed(bytes);
        const auto frame = reader.next();
        report.check(frame && frame->payload == statsReply,
                     "frame codec changed a payload");
    });
    const double parseUs =
        medianUs([&] { risc1::parseJson(statsReply); });
    const auto target = risc1::target::makeTarget("risc");
    target->load(risc1::lang::compileRisc(program).source);
    target->run(kServeRunSteps, true);
    const auto stats = target->stats();
    const double renderUs = medianUs([&] {
        risc1::JsonWriter w;
        w.beginObject().field("ok", true).key("result").beginObject();
        stats->writeJson(w);
        w.endObject().endObject();
        report.check(!w.str().empty(), "JSON render produced nothing");
    });
    report.set("server.frame_us", frameUs, "us");
    report.set("common.json_parse_us", parseUs, "us");
    report.set("common.json_render_us", renderUs, "us");
}

} // namespace


void
runProbes(const RunConfig &cfg, Report &report)
{
    const std::vector<ProbeProgram> programs = probePrograms(cfg);
    probeSimulators(programs, report);
    probeAssembler(programs, report);
    probeLang(cfg, report);
    {
        const auto targets = warmedTargets(programs);
        probeSnapshots(targets, report);
        probeForks(targets, report);
    }
    if (!report.metrics.count("sim.artifact_ms")) {
        // The sweep's job set through the engine, for workloads that
        // do not run it themselves; figures the workload measured on
        // its own engine use are kept.
        const SweepPlan plan = planSweep(cfg.seed);
        Spans off(false);
        std::vector<SweepRound> rounds;
        for (std::uint64_t r = 1; r <= 6; ++r) {
            rounds.push_back(runSweepRound(plan, kEngineWorkers, off, r));
            rounds.back().results.clear();
        }
        Report sim;
        simLayerMetrics(plan, rounds, sim);
        for (const auto &[name, m] : sim.metrics)
            report.metrics.try_emplace(name, m);
        report.errors.insert(report.errors.end(), sim.errors.begin(),
                             sim.errors.end());
    }
    probeService(report);
    if (!report.metrics.count("serve.late_p99_ms"))
        probeServe(cfg, report);
}

void
finishTrace(const RunConfig &cfg, const Spans &spans,
            double untracedMsPerOp, double tracedMsPerOp, Report &report)
{
    report.set("trace.overhead_share",
               untracedMsPerOp > 0 ? tracedMsPerOp / untracedMsPerOp - 1.0
                                   : 0.0,
               "share");
    double total = 0;
    const auto self = spans.selfMsByLayer();
    for (const auto &[layer, ms] : self)
        total += ms;
    for (const auto &[layer, ms] : self)
        std::cout << cfg.workload << "  self time " << layer << ": " << ms
                  << " ms (" << (total > 0 ? 100.0 * ms / total : 0.0)
                  << "%)\n";
    const std::string path = cfg.workload + ".trace.json";
    spans.writeChromeTrace(path, "perfbench " + cfg.workload);
    report.facts["trace_file"] = path;
    report.facts["spans"] = std::to_string(spans.size());
}

} // namespace perfbench

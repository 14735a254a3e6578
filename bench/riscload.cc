/**
 * riscload — load generator for riscserved (docs/SERVER.md).
 *
 * Opens N connections, creates M sessions on each, then fires a
 * seeded, scripted command mix (run/step/regs/peek/stats/snapshot+
 * fork) at the daemon and reports command-latency percentiles and
 * session-creation throughput:
 *
 *     riscload --unix riscserved.sock --connections 4 --sessions 256 \
 *              --ops 2000 --out bench/out/BENCH_server.json
 *
 * Flags:
 *     --unix PATH / --tcp PORT   where the daemon listens
 *     --connections N            client threads (one connection each)
 *     --sessions M               sessions created per connection
 *     --ops K                    scripted commands per connection
 *     --seed S                   PRNG seed (default 1; deterministic
 *                                command script per seed)
 *     --workload ID              program each session runs
 *     --mem BYTES                per-session memory ("mem" on create)
 *     --run-steps N              maxSteps for scripted `run` commands
 *     --out FILE                 write the JSON report (BENCH_server)
 *     --p99-limit-ms X           exit 1 when p99 latency exceeds X
 *     --keep                     skip the final destroy pass
 *     --server-metrics-out FILE  write the daemon's Prometheus text
 *                                exposition (scraped via `telemetry`)
 *
 * After the load completes, riscload scrapes the daemon's `telemetry`
 * command and cross-checks the server-observed per-command p99 against
 * its own client-observed p99 (docs/OBSERVABILITY.md): server time is
 * a subset of client time (no framing, no socket), so serverP99 must
 * not exceed 2x clientP99 — the gate the report's `server` block
 * records.  The gate fails closed: a command with too few samples on
 * either side is `undecided`, `p99Within2x` is true only when every
 * command was gated and passed, and an undecided check fails the run
 * like a failed one.  It also micro-benchmarks obs::Histogram::record
 * so the registry's hot-path cost is pinned in the same artifact.
 *
 * Exit status: 0 on success, 1 when any command failed, the p99 limit
 * was exceeded, or a telemetry gate failed or was undecided, 2 on
 * usage errors.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "obs/registry.hh"
#include "server/client.hh"

using namespace risc1;
using Clock = std::chrono::steady_clock;

namespace {

struct LoadConfig
{
    std::string unixPath;
    bool tcp = false;
    std::uint16_t tcpPort = 0;
    unsigned connections = 4;
    unsigned sessions = 64;
    unsigned ops = 500;
    std::uint64_t seed = 1;
    std::string workload = "fib_rec";
    std::uint64_t memBytes = 256 * 1024;
    std::uint64_t runSteps = 20'000;
    std::string outPath;
    std::string serverMetricsOut;
    double p99LimitMs = 0.0; // 0 = no limit
    bool keep = false;
};

/** Per-command-kind latency samples (milliseconds). */
struct CommandSamples
{
    const char *name;
    std::vector<double> ms;
};

struct WorkerReport
{
    std::vector<double> createMs;  ///< session-creation latencies
    std::vector<CommandSamples> perCommand;
    std::uint64_t errors = 0;
    std::string firstError;
};

double
msSince(Clock::time_point from)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - from)
        .count();
}

// One percentile definition, shared with the server-side histograms
// (obs/registry.hh) so the cross-check below compares like with like.
double
percentile(const std::vector<double> &sorted, double p)
{
    return obs::percentileSorted(sorted, p);
}

/** The scripted mix: cumulative weights out of 100. */
enum class Op { Run, Step, Regs, Peek, Stats, SnapshotFork };

Op
pickOp(Rng &rng)
{
    const std::uint64_t roll = rng.below(100);
    if (roll < 35)
        return Op::Run;
    if (roll < 55)
        return Op::Step;
    if (roll < 70)
        return Op::Regs;
    if (roll < 85)
        return Op::Peek;
    if (roll < 95)
        return Op::Stats;
    return Op::SnapshotFork;
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::Run:
        return "run";
      case Op::Step:
        return "step";
      case Op::Regs:
        return "regs";
      case Op::Peek:
        return "peek";
      case Op::Stats:
        return "stats";
      case Op::SnapshotFork:
        return "snapshotFork";
    }
    return "?";
}

void
workerMain(const LoadConfig &cfg, unsigned lane, WorkerReport &report)
{
    for (Op op : {Op::Run, Op::Step, Op::Regs, Op::Peek, Op::Stats,
                  Op::SnapshotFork})
        report.perCommand.push_back({opName(op), {}});
    const auto samplesFor = [&report](Op op) -> std::vector<double> & {
        return report.perCommand[std::size_t(op)].ms;
    };

    try {
        server::Client client =
            cfg.tcp ? server::Client::connectTcp(cfg.tcpPort)
                    : server::Client::connectUnix(cfg.unixPath);

        // Alternate backends across sessions so both machines are
        // resident at once.
        std::vector<std::string> ids;
        ids.reserve(cfg.sessions);
        for (unsigned s = 0; s < cfg.sessions; ++s) {
            const char *backend = s % 2 == 0 ? "risc" : "vax";
            const auto t0 = Clock::now();
            const JsonValue resp = client.callOk(
                cat("{\"cmd\":\"create\",\"backend\":\"", backend,
                    "\",\"workload\":\"", cfg.workload,
                    "\",\"mem\":", cfg.memBytes, "}"));
            report.createMs.push_back(msSince(t0));
            ids.push_back(resp.stringOr("session", ""));
        }

        Rng rng(cfg.seed * 1000003 + lane);
        for (unsigned i = 0; i < cfg.ops; ++i) {
            const std::string &id = ids[rng.below(ids.size())];
            const Op op = pickOp(rng);
            const auto t0 = Clock::now();
            try {
                switch (op) {
                  case Op::Run:
                    client.callOk(cat("{\"cmd\":\"run\",\"session\":\"",
                                      id, "\",\"maxSteps\":",
                                      cfg.runSteps, "}"));
                    break;
                  case Op::Step:
                    client.callOk(cat("{\"cmd\":\"step\",\"session\":\"",
                                      id, "\",\"count\":",
                                      1 + rng.below(64), "}"));
                    break;
                  case Op::Regs:
                    client.callOk(cat("{\"cmd\":\"regs\",\"session\":\"",
                                      id, "\"}"));
                    break;
                  case Op::Peek:
                    client.callOk(cat("{\"cmd\":\"peek\",\"session\":\"",
                                      id, "\",\"addr\":",
                                      4 * rng.below(64), ",\"count\":",
                                      1 + rng.below(16), "}"));
                    break;
                  case Op::Stats:
                    client.callOk(cat("{\"cmd\":\"stats\",\"session\":\"",
                                      id, "\"}"));
                    break;
                  case Op::SnapshotFork: {
                    const JsonValue snap = client.callOk(
                        cat("{\"cmd\":\"snapshot\",\"session\":\"", id,
                            "\"}"));
                    const std::string snapId =
                        snap.stringOr("snapshot", "");
                    const JsonValue fork = client.callOk(
                        cat("{\"cmd\":\"fork\",\"snapshot\":\"", snapId,
                            "\"}"));
                    client.callOk(
                        cat("{\"cmd\":\"destroy\",\"session\":\"",
                            fork.stringOr("session", ""), "\"}"));
                    client.callOk(cat("{\"cmd\":\"drop\",\"snapshot\":\"",
                                      snapId, "\"}"));
                    break;
                  }
                }
                samplesFor(op).push_back(msSince(t0));
            } catch (const std::exception &e) {
                ++report.errors;
                if (report.firstError.empty())
                    report.firstError = e.what();
            }
        }

        if (!cfg.keep)
            for (const std::string &id : ids)
                client.callOk(cat("{\"cmd\":\"destroy\",\"session\":\"",
                                  id, "\"}"));
    } catch (const std::exception &e) {
        ++report.errors;
        if (report.firstError.empty())
            report.firstError = e.what();
    }
}

int
usage()
{
    std::cerr
        << "usage: riscload (--unix PATH | --tcp PORT)\n"
           "                [--connections N] [--sessions M] [--ops K]\n"
           "                [--seed S] [--workload ID] [--mem BYTES]\n"
           "                [--run-steps N] [--out FILE]\n"
           "                [--p99-limit-ms X] [--keep]\n"
           "                [--server-metrics-out FILE]\n";
    return 2;
}

/** Server-observed latency for one command, from the `telemetry`
 *  scrape ("cmd.<name>.ns" histogram, converted to milliseconds). */
struct ServerQuantiles
{
    bool present = false;
    std::uint64_t count = 0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
};

ServerQuantiles
scrapeQuantiles(const JsonValue &telemetry, const std::string &cmd)
{
    ServerQuantiles q;
    const JsonValue *histograms = telemetry.find("histograms");
    if (!histograms)
        return q;
    const JsonValue *h = histograms->find(cat("cmd.", cmd, ".ns"));
    if (!h)
        return q;
    q.present = true;
    q.count = h->u64Or("count", 0);
    if (const JsonValue *p = h->find("p50"))
        q.p50Ms = p->asDouble() / 1e6;
    if (const JsonValue *p = h->find("p99"))
        q.p99Ms = p->asDouble() / 1e6;
    return q;
}

/**
 * The registry's hot-path cost: nanoseconds per Histogram::record,
 * measured over a million records spread across the bucket range.
 * This is what "no measurable steps/sec regression with no sinks
 * attached" rests on — a record is a handful of relaxed atomics, so
 * even one per quota-slice (~100k instructions) is noise.
 */
constexpr std::uint64_t kOverheadRecords = 1'000'000;
constexpr double kOverheadLimitNs = 250.0; // generous for sanitizers

/** What the p99 cross-check needs to decide: samples on each side, and
 *  a client p99 large enough that 2x is not lost in timer noise. */
constexpr std::uint64_t kCrossCheckSamples = 20;
constexpr double kCrossCheckMinClientP99Ms = 0.01;

double
measureRecordNs()
{
    obs::Histogram h;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kOverheadRecords; ++i)
        h.record(i * 977 + 13);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - t0);
    return double(ns.count()) / double(kOverheadRecords);
}

bool
parseU64(const std::string &value, std::uint64_t &out)
{
    if (value.empty() || value.size() > 18 ||
        value.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(value);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    LoadConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            return ++i < argc ? argv[i] : nullptr;
        };
        std::uint64_t n = 0;
        if (arg == "--unix") {
            const char *v = value();
            if (!v)
                return usage();
            cfg.unixPath = v;
        } else if (arg == "--tcp") {
            const char *v = value();
            if (!v || !parseU64(v, n) || n > 65535)
                return usage();
            cfg.tcp = true;
            cfg.tcpPort = static_cast<std::uint16_t>(n);
        } else if (arg == "--connections") {
            const char *v = value();
            if (!v || !parseU64(v, n) || n == 0)
                return usage();
            cfg.connections = static_cast<unsigned>(n);
        } else if (arg == "--sessions") {
            const char *v = value();
            if (!v || !parseU64(v, n) || n == 0)
                return usage();
            cfg.sessions = static_cast<unsigned>(n);
        } else if (arg == "--ops") {
            const char *v = value();
            if (!v || !parseU64(v, n))
                return usage();
            cfg.ops = static_cast<unsigned>(n);
        } else if (arg == "--seed") {
            const char *v = value();
            if (!v || !parseU64(v, n))
                return usage();
            cfg.seed = n;
        } else if (arg == "--workload") {
            const char *v = value();
            if (!v)
                return usage();
            cfg.workload = v;
        } else if (arg == "--mem") {
            const char *v = value();
            if (!v || !parseU64(v, n) || n == 0)
                return usage();
            cfg.memBytes = n;
        } else if (arg == "--run-steps") {
            const char *v = value();
            if (!v || !parseU64(v, n) || n == 0)
                return usage();
            cfg.runSteps = n;
        } else if (arg == "--out") {
            const char *v = value();
            if (!v)
                return usage();
            cfg.outPath = v;
        } else if (arg == "--server-metrics-out") {
            const char *v = value();
            if (!v)
                return usage();
            cfg.serverMetricsOut = v;
        } else if (arg == "--p99-limit-ms") {
            const char *v = value();
            if (!v)
                return usage();
            try {
                cfg.p99LimitMs = std::stod(v);
            } catch (const std::exception &) {
                return usage();
            }
        } else if (arg == "--keep") {
            cfg.keep = true;
        } else {
            return usage();
        }
    }
    if (cfg.unixPath.empty() && !cfg.tcp)
        return usage();

    std::vector<WorkerReport> reports(cfg.connections);
    std::vector<std::thread> threads;
    threads.reserve(cfg.connections);
    const auto start = Clock::now();
    for (unsigned c = 0; c < cfg.connections; ++c)
        threads.emplace_back(workerMain, std::cref(cfg), c,
                             std::ref(reports[c]));
    for (auto &t : threads)
        t.join();
    const double wallMs = msSince(start);

    // Merge.
    std::vector<double> all;
    std::vector<double> creates;
    std::vector<CommandSamples> merged;
    std::uint64_t errors = 0;
    std::string firstError;
    std::uint64_t ops = 0;
    for (const WorkerReport &r : reports) {
        creates.insert(creates.end(), r.createMs.begin(),
                       r.createMs.end());
        errors += r.errors;
        if (firstError.empty())
            firstError = r.firstError;
        for (const CommandSamples &c : r.perCommand) {
            auto it = std::find_if(merged.begin(), merged.end(),
                                   [&c](const CommandSamples &m) {
                                       return std::strcmp(m.name,
                                                          c.name) == 0;
                                   });
            if (it == merged.end()) {
                merged.push_back({c.name, {}});
                it = merged.end() - 1;
            }
            it->ms.insert(it->ms.end(), c.ms.begin(), c.ms.end());
            all.insert(all.end(), c.ms.begin(), c.ms.end());
            ops += c.ms.size();
        }
    }
    std::sort(all.begin(), all.end());
    std::sort(creates.begin(), creates.end());
    for (CommandSamples &c : merged)
        std::sort(c.ms.begin(), c.ms.end());

    // Scrape the daemon's own view of the load over a fresh
    // connection: the full registry as JSON for the p99 cross-check,
    // and optionally the Prometheus exposition for --server-metrics-out.
    bool scraped = false;
    std::string scrapeError;
    JsonValue telemetry;
    std::uint64_t serverUptimeMs = 0;
    try {
        server::Client client =
            cfg.tcp ? server::Client::connectTcp(cfg.tcpPort)
                    : server::Client::connectUnix(cfg.unixPath);
        const JsonValue resp =
            client.callOk("{\"cmd\":\"telemetry\"}");
        serverUptimeMs = resp.u64Or("uptimeMs", 0);
        if (const JsonValue *t = resp.find("telemetry"))
            telemetry = *t;
        scraped = true;
        if (!cfg.serverMetricsOut.empty()) {
            const JsonValue prom = client.callOk(
                "{\"cmd\":\"telemetry\",\"format\":\"prometheus\"}");
            std::ofstream out(cfg.serverMetricsOut);
            if (!out)
                fatal(cat("cannot write ", cfg.serverMetricsOut));
            out << prom.stringOr("exposition", "");
            std::cout << "riscload: server metrics written to "
                      << cfg.serverMetricsOut << "\n";
        }
    } catch (const std::exception &e) {
        scrapeError = e.what();
    }

    // Server-vs-client p99 cross-check: the server measures
    // accept-to-reply, a strict subset of the client's
    // send-to-receive, so serverP99 > 2x clientP99 means the two
    // views of the same load disagree.  Decided only where both sides
    // have enough samples for a stable tail; otherwise `undecided`,
    // which fails the run (a gate never passes vacuously).
    struct CrossCheck
    {
        const char *name;
        std::uint64_t clientCount;
        double clientP50Ms;
        double clientP99Ms;
        ServerQuantiles server;
        bool gated;
        bool pass; ///< gated and within 2x
    };
    std::vector<CrossCheck> crossChecks;
    if (scraped) {
        for (const CommandSamples &c : merged) {
            if (std::strcmp(c.name, "snapshotFork") == 0)
                continue; // composite op; no single server histogram
            CrossCheck check{};
            check.name = c.name;
            check.clientCount = c.ms.size();
            check.clientP50Ms = percentile(c.ms, 0.50);
            check.clientP99Ms = percentile(c.ms, 0.99);
            check.server = scrapeQuantiles(telemetry, c.name);
            check.gated =
                check.server.present &&
                check.server.count >= kCrossCheckSamples &&
                check.clientCount >= kCrossCheckSamples &&
                check.clientP99Ms >= kCrossCheckMinClientP99Ms;
            check.pass =
                check.gated &&
                check.server.p99Ms <= 2.0 * check.clientP99Ms + 0.05;
            crossChecks.push_back(check);
        }
    }
    const bool crossCheckOk =
        !crossChecks.empty() &&
        std::all_of(crossChecks.begin(), crossChecks.end(),
                    [](const CrossCheck &check) { return check.pass; });

    const double nsPerRecord = measureRecordNs();
    const bool overheadOk = nsPerRecord < kOverheadLimitNs;

    const double p50 = percentile(all, 0.50);
    const double p90 = percentile(all, 0.90);
    const double p99 = percentile(all, 0.99);
    const double opsPerSec =
        wallMs > 0.0 ? double(ops) / (wallMs / 1e3) : 0.0;
    const double createWallMs = creates.empty() ? 0.0 : [&] {
        double total = 0.0;
        for (const double ms : creates)
            total += ms;
        return total;
    }();
    const double sessionsPerSec =
        createWallMs > 0.0
            ? double(creates.size()) /
                  (createWallMs / 1e3 / double(cfg.connections))
            : 0.0;

    JsonWriter w;
    w.beginObject()
        .field("bench", "server")
        .field("connections", std::uint64_t(cfg.connections))
        .field("sessionsPerConnection", std::uint64_t(cfg.sessions))
        .field("sessions", std::uint64_t(creates.size()))
        .field("ops", ops)
        .field("errors", errors)
        .field("wallMs", wallMs)
        .field("opsPerSec", opsPerSec)
        .field("sessionsPerSec", sessionsPerSec)
        .field("seed", cfg.seed)
        .field("workload", cfg.workload)
        .field("runSteps", cfg.runSteps);
    w.key("latencyMs")
        .beginObject()
        .field("p50", p50)
        .field("p90", p90)
        .field("p99", p99)
        .field("max", all.empty() ? 0.0 : all.back())
        .endObject();
    w.key("createMs")
        .beginObject()
        .field("p50", percentile(creates, 0.50))
        .field("p99", percentile(creates, 0.99))
        .field("max", creates.empty() ? 0.0 : creates.back())
        .endObject();
    w.key("perCommand").beginObject();
    for (const CommandSamples &c : merged) {
        w.key(c.name)
            .beginObject()
            .field("count", std::uint64_t(c.ms.size()))
            .field("p50", percentile(c.ms, 0.50))
            .field("p99", percentile(c.ms, 0.99))
            .endObject();
    }
    w.endObject();
    w.key("server")
        .beginObject()
        .field("scraped", scraped)
        .field("uptimeMs", serverUptimeMs)
        .field("p99Within2x", crossCheckOk);
    w.key("perCommand").beginObject();
    for (const CrossCheck &check : crossChecks) {
        w.key(check.name)
            .beginObject()
            .field("clientCount", check.clientCount)
            .field("clientP50Ms", check.clientP50Ms)
            .field("clientP99Ms", check.clientP99Ms)
            .field("serverCount", check.server.count)
            .field("serverP50Ms", check.server.p50Ms)
            .field("serverP99Ms", check.server.p99Ms)
            .field("ratio", check.clientP99Ms > 0.0
                                ? check.server.p99Ms / check.clientP99Ms
                                : 0.0)
            .field("gated", check.gated)
            .field("pass", check.pass)
            .field("verdict", !check.gated ? "undecided"
                              : check.pass ? "pass"
                                           : "fail")
            .endObject();
    }
    w.endObject().endObject();
    w.key("registryOverhead")
        .beginObject()
        .field("records", kOverheadRecords)
        .field("nsPerRecord", nsPerRecord)
        .field("limitNsPerRecord", kOverheadLimitNs)
        .field("pass", overheadOk)
        .endObject();
    w.endObject();

    const std::string json = w.str();
    if (!cfg.outPath.empty()) {
        const auto parent =
            std::filesystem::path(cfg.outPath).parent_path();
        if (!parent.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(parent, ec);
        }
        std::ofstream out(cfg.outPath);
        if (!out) {
            std::cerr << "riscload: cannot write " << cfg.outPath
                      << "\n";
            return 1;
        }
        out << json << "\n";
        std::cout << "riscload: report written to " << cfg.outPath
                  << "\n";
    }

    std::cout << "riscload: " << creates.size() << " sessions, " << ops
              << " ops in " << wallMs << " ms (" << opsPerSec
              << " ops/s, " << sessionsPerSec
              << " sessions/s), p50=" << p50 << "ms p99=" << p99
              << "ms, errors=" << errors << "\n";
    if (errors != 0) {
        std::cerr << "riscload: first error: " << firstError << "\n";
        return 1;
    }
    if (cfg.p99LimitMs > 0.0 && p99 > cfg.p99LimitMs) {
        std::cerr << "riscload: p99 " << p99 << " ms exceeds limit "
                  << cfg.p99LimitMs << " ms\n";
        return 1;
    }
    if (!scraped) {
        std::cerr << "riscload: telemetry scrape failed: "
                  << scrapeError << "\n";
        return 1;
    }
    if (!crossCheckOk) {
        if (crossChecks.empty())
            std::cerr << "riscload: no command to cross-check\n";
        for (const CrossCheck &check : crossChecks)
            if (!check.gated)
                std::cerr << "riscload: " << check.name
                          << ": p99 cross-check undecided: "
                          << check.clientCount << " client and "
                          << check.server.count
                          << " server samples (needs "
                          << kCrossCheckSamples
                          << " each and a client p99 of at least "
                          << kCrossCheckMinClientP99Ms << " ms)\n";
            else if (!check.pass)
                std::cerr << "riscload: " << check.name
                          << ": server p99 " << check.server.p99Ms
                          << " ms exceeds 2x client p99 "
                          << check.clientP99Ms << " ms\n";
        return 1;
    }
    if (!overheadOk) {
        std::cerr << "riscload: registry overhead " << nsPerRecord
                  << " ns/record exceeds limit " << kOverheadLimitNs
                  << " ns\n";
        return 1;
    }
    return 0;
}

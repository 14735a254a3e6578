/**
 * @file
 * The riscserved command service (docs/SERVER.md) — everything above
 * the framing layer and below the sockets.
 *
 * Service owns the session table, the shared sim::Engine worker pool,
 * and the TTL eviction sweeper, and exposes exactly one entry point:
 * execute(requestJson, reply).  It is deliberately transport-free —
 * server.hh feeds it decoded frame payloads, and the lifecycle tests
 * drive it directly with strings — so every protocol behavior is
 * testable without opening a socket.
 *
 * Commands.  RISCSERVED_COMMANDS (protocol.cc) is the one list of
 * commands: per row the handler, the session it needs, which execute()
 * looks up, locks and checks first, and whether it replies later.
 *
 * Scheduling model.  Every command but `run` replies synchronously on
 * the calling thread.  A `run` command is sliced into quota-bounded
 * turns executed on the engine pool: the session joins a FIFO ready
 * queue, each turn executes at most `quota` instructions, and an
 * unfinished run rejoins the queue tail — round-robin fairness across
 * however many sessions are runnable.  Turns enter the engine through
 * trySubmit(), so the bounded engine queue applies backpressure: when
 * it is full the overflow waits in the ready queue and is pumped in as
 * turns retire.
 *
 * Every request receives exactly one reply, including at shutdown:
 * stop() fails queued and in-flight runs with a "server shutting down"
 * error before the engine threads are joined.
 */

#ifndef RISC1_SERVER_PROTOCOL_HH
#define RISC1_SERVER_PROTOCOL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hh"
#include "server/session.hh"
#include "sim/engine.hh"

namespace risc1 {
class JsonValue;
} // namespace risc1

namespace risc1::server {

/** Build identity reported by `info` and the event log. */
inline constexpr std::string_view kServerName = "riscserved";
inline constexpr std::string_view kServerVersion = "0.9.0";

/** Tunables for one Service instance (riscserved's flag surface). */
struct ServiceConfig
{
    /** Engine worker threads; 0 = one per hardware thread. */
    unsigned workers = 0;

    /** Engine queue bound — the backpressure knob (engine.hh). */
    std::size_t engineQueue = 256;

    /** Max instructions one scheduling turn may execute. */
    std::uint64_t quota = 100'000;

    /**
     * Idle eviction threshold: sessions untouched for this many
     * milliseconds are spooled to disk.  Negative = never evict;
     * zero = evict on the next sweep after any command completes.
     */
    std::int64_t ttlMs = -1;

    /** Directory for eviction spool files. */
    std::string spoolDir = "spool";

    std::size_t maxSessions = 4096;

    /** Session memory when `create` omits "mem" (small by design so
     *  thousands of resident sessions fit in RAM; see docs/SERVER.md). */
    std::uint64_t defaultMemBytes = 256 * 1024;

    /** Upper bound a `create` may request. */
    std::uint64_t maxMemBytes = 16u * 1024 * 1024;

    /** Per-`run` step budget cap. */
    std::uint64_t maxRunSteps = 1'000'000'000;

    /** Per-`step` command count cap. */
    std::uint64_t maxStepCount = 1'000'000;

    /** Concurrent pending `run` cap; 0 = bounded by maxSessions only
     *  (each session can have at most one run in flight). */
    std::size_t maxPendingRuns = 0;

    /** JSONL event-log path (docs/OBSERVABILITY.md); empty = no log. */
    std::string eventLogPath;

    /** Minimum level written to the event log: debug|info|warn. */
    std::string eventLogLevel = "info";

    /**
     * Commands slower than this (accept-to-reply, milliseconds) are
     * logged as `slow.command` warn events with the offending request
     * echoed.  0 = disabled.
     */
    double slowMs = 0.0;
};

/** Completion callback: receives the JSON response payload. */
using ReplyFn = std::function<void(std::string)>;

/** Build the canonical `{"ok":false,"error":...}` payload. */
std::string errorPayload(std::string_view message);

/** The transport-independent command processor (see file comment). */
class Service
{
  public:
    explicit Service(ServiceConfig config);
    ~Service();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * Execute one request (a JSON command object, docs/SERVER.md) and
     * deliver exactly one response payload through @p reply — on the
     * calling thread for immediate commands, from an engine worker for
     * `run`.  Never throws: every failure becomes an error payload.
     */
    void execute(const std::string &requestJson, ReplyFn reply);

    /**
     * Drain and shut down: pending runs receive "server shutting
     * down" errors, the sweeper and engine threads are joined.
     * Idempotent; called by the destructor.
     */
    void stop();

    /** Run one eviction sweep now (deterministic tests; no-op when
     *  ttlMs is negative). */
    void sweepNow();

    const ServiceConfig &config() const { return config_; }
    SessionManager &sessions() { return sessions_; }
    sim::Engine &engine() { return engine_; }

    /** The process-wide metrics table every layer reports through. */
    obs::Registry &registry() { return registry_; }

    /** The structured JSONL event log (no-op unless configured). */
    obs::EventLog &eventLog() { return eventLog_; }

    /** Milliseconds since this Service was constructed. */
    std::uint64_t uptimeMs() const;

  private:
    /** One request as its handler sees it, and the command table
     *  (protocol.cc). */
    struct Call;

    /** Move ready sessions into the engine while it has room. */
    void pump();

    /** One scheduling turn for @p session (runs on an engine worker). */
    void runTurn(const std::shared_ptr<Session> &session);

    /** Fail @p session's pending run with @p message (session mutex
     *  must NOT be held). */
    void failRun(const std::shared_ptr<Session> &session,
                 std::string_view message);

    void sweepLoop();
    void sweepOnce();

    /**
     * Record one finished command: latency into the histogram of
     * command-table @p row (one past the last row: cmd.other.ns),
     * reply size into server.bytesOut, a @p failed reply into
     * server.errors, and a `slow.command` event when the --slow-ms
     * threshold is crossed.
     */
    void finishCommand(std::size_t row, std::string_view cmd,
                       std::chrono::steady_clock::time_point t0,
                       const std::string &request,
                       const std::string &payload, bool failed);

    /** Sample queue depths, fleet memory etc. into gauges (the
     *  registry collect hook). */
    void collectGauges();

    const ServiceConfig config_;

    // Telemetry sinks are declared before sessions_ so the manager can
    // hold handles into them for its whole lifetime.
    obs::Registry registry_;
    obs::EventLog eventLog_;
    const std::chrono::steady_clock::time_point startTime_ =
        std::chrono::steady_clock::now();

    SessionManager sessions_;
    sim::Engine engine_;

    // Hot-path metric handles, resolved once at construction.
    obs::Counter *requests_ = nullptr;
    obs::Counter *errors_ = nullptr;
    obs::Counter *bytesIn_ = nullptr;
    obs::Counter *bytesOut_ = nullptr;
    obs::Counter *slowCommands_ = nullptr;
    obs::Counter *schedTurns_ = nullptr;
    obs::Histogram *schedQueueWaitNs_ = nullptr;
    obs::Histogram *schedTurnNs_ = nullptr;
    /** cmd.<name>.ns by command-table row, then cmd.other.ns. */
    std::vector<obs::Histogram *> cmdNs_;

    std::atomic<bool> stopping_{false};

    std::mutex schedMutex_;
    std::deque<std::shared_ptr<Session>> ready_;
    std::size_t inFlight_ = 0;     ///< turns inside the engine
    std::size_t pendingRuns_ = 0;  ///< accepted, not yet replied

    std::mutex sweepMutex_;
    std::condition_variable sweepCv_;
    bool sweepStop_ = false;
    std::thread sweeper_;
};

} // namespace risc1::server

#endif // RISC1_SERVER_PROTOCOL_HH

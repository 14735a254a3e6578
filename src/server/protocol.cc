#include "server/protocol.hh"

#include <algorithm>
#include <chrono>

#include "common/json.hh"
#include "common/json_value.hh"
#include "common/logging.hh"
#include "mem/config.hh"
#include "memory/memory.hh"
#include "target/registry.hh"
#include "workloads/workloads.hh"

namespace risc1::server {

/**
 * The riscserved commands: one row per command, in table order.  The
 * handler declarations, the dispatch table, the `cmd.<name>.ns`
 * latency histograms and the unknown-command error are generated from
 * it.  Columns:
 *
 *   name   the request's "cmd", and the Service::Call handler's name
 *   need   the session Service::execute looks up, locks and checks
 *          before the handler runs: none, alive (not destroyed) or
 *          idle (alive, no run in progress)
 *   reply  sync: the handler returns the reply; async: the handler
 *          keeps the deferred reply and answers later (run)
 */
#define RISCSERVED_COMMANDS(X)                                            \
    X(ping,      none,  sync)                                             \
    X(info,      none,  sync)                                             \
    X(telemetry, none,  sync)                                             \
    X(create,    none,  sync)                                             \
    X(destroy,   idle,  sync)                                             \
    X(step,      idle,  sync)                                             \
    X(run,       idle,  async)                                            \
    X(peek,      alive, sync)                                             \
    X(regs,      alive, sync)                                             \
    X(stats,     alive, sync)                                             \
    X(snapshot,  idle,  sync)                                             \
    X(fork,      none,  sync)                                             \
    X(evict,     idle,  sync)                                             \
    X(drop,      none,  sync)

namespace {

using Clock = std::chrono::steady_clock;

enum class Need { none, alive, idle };
enum class Reply { sync, async };

#define RISCSERVED_COMMAND_COUNT(name, need, reply) +1
/** Rows in the command table; also the index of cmd.other.ns. */
constexpr std::size_t numCommands =
    0 RISCSERVED_COMMANDS(RISCSERVED_COMMAND_COUNT);
#undef RISCSERVED_COMMAND_COUNT

/** Longest request echo a slow.command event carries. */
constexpr std::size_t kSlowEchoBytes = 256;

/** Most words one `peek` may read (keeps responses frame-sized). */
constexpr std::uint64_t kMaxPeekWords = 1024;

/** Smallest session memory `create` accepts (code + stack areas). */
constexpr std::uint64_t kMinMemBytes = 64 * 1024;

constexpr std::uint64_t kDefaultRunSteps = 10'000'000;

/** Resolve the request's "session" or fail. */
std::shared_ptr<Session>
needSession(const SessionManager &sessions, const JsonValue &req)
{
    const std::string id = req.stringOr("session", "");
    if (id.empty())
        fatal("request missing 'session'");
    auto session = sessions.find(id);
    if (!session)
        fatal(cat("unknown session '", id, "'"));
    return session;
}

/** @throws FatalError unless @p session (mutex held) meets @p need. */
void
require(const Session &session, Need need)
{
    if (session.destroyed) // destroyed after lookup
        fatal(cat("unknown session '", session.id, "'"));
    if (need == Need::idle && session.runActive)
        fatal(cat("session ", session.id,
                  ": run in progress (mutating commands must wait for "
                  "its reply)"));
}

void
touch(Session &session)
{
    ++session.metrics.commands;
    session.lastActive = Clock::now();
}

void
okHeader(const Session &session, JsonWriter &w)
{
    w.beginObject()
        .field("ok", true)
        .field("session", session.id)
        .field("backend", session.cfg.backend);
}

} // namespace

/** One request as its handler sees it; the handlers are its members. */
struct Service::Call
{
    Service &svc;
    const JsonValue &req;
    /** The row's session, locked and checked; null for `none` rows. */
    std::shared_ptr<Session> session;
    /** An async row's reply; its handler takes it when it accepts. */
    RunReplyFn &deferred;

#define RISCSERVED_HANDLER(name, need, reply) std::string name();
    RISCSERVED_COMMANDS(RISCSERVED_HANDLER)
#undef RISCSERVED_HANDLER

    struct Row
    {
        std::string_view name;
        std::string (Call::*handler)();
        Need need;
        Reply reply;
    };
    static const Row table[numCommands];

    /** @return @p cmd's row. @throws FatalError for an unknown name. */
    static std::size_t find(std::string_view cmd);
};

const Service::Call::Row Service::Call::table[numCommands] = {
#define RISCSERVED_ROW(name, need, reply)                                 \
    {#name, &Call::name, Need::need, Reply::reply},
    RISCSERVED_COMMANDS(RISCSERVED_ROW)
#undef RISCSERVED_ROW
};

std::size_t
Service::Call::find(std::string_view cmd)
{
    for (std::size_t row = 0; row < numCommands; ++row)
        if (table[row].name == cmd)
            return row;
    std::string names;
    for (const Row &row : table)
        names += cat(names.empty() ? "" : ", ", row.name);
    fatal(cat("unknown command '", cmd, "' (expected one of: ", names,
              ")"));
}

std::string
errorPayload(std::string_view message)
{
    JsonWriter w;
    w.beginObject().field("ok", false).field("error", message).endObject();
    return w.str();
}

Service::Service(ServiceConfig config)
    : config_(std::move(config)),
      sessions_(config_.spoolDir, config_.maxSessions, &registry_,
                &eventLog_),
      engine_(config_.workers, config_.engineQueue)
{
    if (!config_.eventLogPath.empty())
        eventLog_.open(config_.eventLogPath,
                       obs::parseEventLevel(config_.eventLogLevel));

    requests_ = &registry_.counter("server.requests");
    errors_ = &registry_.counter("server.errors");
    bytesIn_ = &registry_.counter("server.bytesIn");
    bytesOut_ = &registry_.counter("server.bytesOut");
    slowCommands_ = &registry_.counter("server.slowCommands");
    schedTurns_ = &registry_.counter("sched.turns");
    schedQueueWaitNs_ = &registry_.histogram("sched.queueWait.ns");
    schedTurnNs_ = &registry_.histogram("sched.turn.ns");
    for (const Call::Row &row : Call::table)
        cmdNs_.push_back(
            &registry_.histogram(cat("cmd.", row.name, ".ns")));
    cmdNs_.push_back(&registry_.histogram("cmd.other.ns"));
    registry_.onCollect([this] { collectGauges(); });

    if (eventLog_.enabled(obs::EventLevel::Info))
        eventLog_.emit(obs::EventLevel::Info, "server.start",
                       obs::EventFields{}
                           .field("version", kServerVersion)
                           .field("workers",
                                  std::uint64_t(engine_.workers()))
                           .field("quota", config_.quota));

    sweeper_ = std::thread(&Service::sweepLoop, this);
}

std::uint64_t
Service::uptimeMs() const
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - startTime_)
            .count());
}

void
Service::finishCommand(std::size_t row, std::string_view cmd,
                       Clock::time_point t0, const std::string &request,
                       const std::string &payload, bool failed)
{
    const std::uint64_t ns = nsSince(t0);
    cmdNs_[row]->record(ns);
    bytesOut_->add(payload.size());
    if (failed)
        errors_->add(1);
    const double ms = double(ns) / 1e6;
    if (config_.slowMs > 0.0 && ms >= config_.slowMs) {
        slowCommands_->add(1);
        if (eventLog_.enabled(obs::EventLevel::Warn)) {
            const std::string_view echo =
                std::string_view(request).substr(0, kSlowEchoBytes);
            eventLog_.emit(obs::EventLevel::Warn, "slow.command",
                           obs::EventFields{}
                               .field("cmd", cmd)
                               .field("ms", ms)
                               .field("thresholdMs", config_.slowMs)
                               .field("truncated",
                                      request.size() > echo.size())
                               .field("request", echo));
        }
    }
}

void
Service::collectGauges()
{
    const SessionCounts c = sessions_.counts();
    registry_.gauge("sessions.alive").set(double(c.sessions));
    registry_.gauge("sessions.resident").set(double(c.resident));
    registry_.gauge("sessions.evicted").set(double(c.evicted));
    registry_.gauge("sessions.snapshots").set(double(c.snapshots));
    registry_.gauge("fleet.residentBytes").set(double(c.residentBytes));
    registry_.gauge("fleet.sharedBytes").set(double(c.sharedBytes));

    const std::size_t active = engine_.activeTasks();
    registry_.gauge("engine.queueDepth")
        .set(double(engine_.queueDepth()));
    registry_.gauge("engine.activeTasks").set(double(active));
    registry_.gauge("engine.utilization")
        .set(engine_.workers() != 0
                 ? double(active) / double(engine_.workers())
                 : 0.0);
    registry_.gauge("engine.tasksExecuted")
        .set(double(engine_.tasksExecuted()));

    std::lock_guard sched(schedMutex_);
    registry_.gauge("runs.ready").set(double(ready_.size()));
    registry_.gauge("runs.inFlight").set(double(inFlight_));
    registry_.gauge("runs.pending").set(double(pendingRuns_));
}

Service::~Service()
{
    stop();
}

void
Service::execute(const std::string &requestJson, ReplyFn reply)
{
    const auto t0 = Clock::now();
    requests_->add(1);
    bytesIn_->add(requestJson.size());

    std::string cmd;
    std::size_t row = numCommands; // cmd.other.ns until cmd resolves
    std::string payload;
    bool failed = false;
    bool accepted = false; // an async handler took the reply
    RunReplyFn deferred;
    try {
        if (stopping_.load(std::memory_order_acquire))
            fatal("server shutting down");
        const JsonValue req = parseJson(requestJson);
        if (!req.isObject())
            fatal(cat("request must be a JSON object, got ",
                      JsonValue::kindName(req.kind())));
        cmd = req.stringOr("cmd", "");
        if (cmd.empty())
            fatal("request missing 'cmd'");
        row = Call::find(cmd);
        const Call::Row &command = Call::table[row];

        Call call{*this, req, nullptr, deferred};
        std::unique_lock<std::mutex> lock;
        if (command.need != Need::none) {
            call.session = needSession(sessions_, req);
            lock = std::unique_lock(call.session->mutex);
            require(*call.session, command.need);
        }
        if (command.reply == Reply::async)
            // The reply comes from the command's last engine turn; the
            // wrapper puts accept-to-final-reply latency into its
            // histogram, the same interval the client measures.
            deferred = [this, row, t0, requestJson,
                        inner = std::move(reply)](std::string p,
                                                  bool error) {
                finishCommand(row, Call::table[row].name, t0,
                              requestJson, p, error);
                inner(std::move(p));
            };
        payload = (call.*command.handler)();
        accepted = command.reply == Reply::async;
    } catch (const std::exception &e) {
        payload = errorPayload(e.what());
        failed = true;
    }
    if (accepted) {
        pump(); // the session is unlocked now; start its first turn
        return;
    }
    if (deferred) { // refused before its handler took the reply
        deferred(std::move(payload), failed);
        return;
    }
    finishCommand(row, cmd, t0, requestJson, payload, failed);
    reply(std::move(payload));
}

std::string
Service::Call::ping()
{
    JsonWriter w;
    w.beginObject().field("ok", true).field("server", "riscserved")
        .endObject();
    return w.str();
}

std::string
Service::Call::info()
{
    const SessionCounts c = svc.sessions_.counts();
    std::size_t ready = 0;
    std::size_t inFlight = 0;
    std::size_t pending = 0;
    {
        std::lock_guard sched(svc.schedMutex_);
        ready = svc.ready_.size();
        inFlight = svc.inFlight_;
        pending = svc.pendingRuns_;
    }
    JsonWriter w;
    w.beginObject()
        .field("ok", true)
        .field("server", kServerName)
        .field("protocolVersion", std::uint64_t(1))
        .field("uptimeMs", svc.uptimeMs())
        .field("workers", std::uint64_t(svc.engine_.workers()))
        .field("queueDepth", std::uint64_t(svc.engine_.queueDepth()))
        .field("queueCapacity", std::uint64_t(svc.engine_.capacity()))
        .field("quota", svc.config_.quota)
        .field("ttlMs", std::int64_t(svc.config_.ttlMs))
        .field("maxSessions", std::uint64_t(svc.config_.maxSessions));
    w.key("sessions")
        .beginObject()
        .field("alive", std::uint64_t(c.sessions))
        .field("resident", std::uint64_t(c.resident))
        .field("evicted", std::uint64_t(c.evicted))
        .field("created", c.created)
        .field("destroyed", c.destroyed)
        .field("evictions", c.evictions)
        .field("restores", c.restores)
        .field("snapshots", std::uint64_t(c.snapshots))
        // Copy-on-write accounting summed over the resident sessions
        // (docs/MEMORY.md): residentBytes is the private page deltas,
        // sharedBytes the pages aliased with snapshots and forks.
        // riscload asserts forked fleets keep residentBytes flat.
        .field("residentBytes", c.residentBytes)
        .field("sharedBytes", c.sharedBytes)
        .endObject();
    w.key("runs")
        .beginObject()
        .field("pending", std::uint64_t(pending))
        .field("ready", std::uint64_t(ready))
        .field("inFlight", std::uint64_t(inFlight))
        .endObject();
    // Lifetime command totals (the registry's server.* counters) and
    // build identity, so one `info` answers "what is this daemon and
    // how much has it served".
    w.key("commands")
        .beginObject()
        .field("total", svc.requests_->value())
        .field("errors", svc.errors_->value())
        .field("bytesIn", svc.bytesIn_->value())
        .field("bytesOut", svc.bytesOut_->value())
        .endObject();
    w.key("build")
        .beginObject()
        .field("name", kServerName)
        .field("version", kServerVersion)
        .field("compiler", __VERSION__)
        .endObject();
    w.endObject();
    return w.str();
}

std::string
Service::Call::telemetry()
{
    const std::string format = req.stringOr("format", "json");
    if (format == "prometheus") {
        JsonWriter w;
        w.beginObject()
            .field("ok", true)
            .field("format", "prometheus")
            .field("exposition", svc.registry_.prometheus())
            .endObject();
        return w.str();
    }
    if (format != "json")
        fatal(cat("telemetry: unknown format '", format,
                  "' (expected json or prometheus)"));
    JsonWriter w;
    w.beginObject().field("ok", true).field("uptimeMs", svc.uptimeMs());
    w.key("telemetry");
    svc.registry_.writeJson(w);
    w.endObject();
    return w.str();
}

std::string
Service::Call::create()
{
    SessionConfig cfg;
    cfg.backend = std::string(
        target::canonicalBackend(req.stringOr("backend", "risc")));
    cfg.fast = req.boolOr("fast", true);

    const std::uint64_t mem = req.u64Or("mem", svc.config_.defaultMemBytes);
    if (mem < kMinMemBytes || mem > svc.config_.maxMemBytes)
        fatal(cat("create: mem must be ", kMinMemBytes, "..",
                  svc.config_.maxMemBytes, " bytes, got ", mem));
    if (mem % Memory::pageBytes != 0)
        fatal(cat("create: mem must be a multiple of ", Memory::pageBytes,
                  " bytes, got ", mem));

    // Scale the fixed memory-map anchors with the session's memory the
    // same way the 16 MiB defaults sit in a 16 MiB machine: the
    // register-save area occupies the top 1/16th, the soft frame area
    // the 1/16th below it, and the baseline's stack grows down from
    // the save-area floor.
    auto &risc = cfg.options.risc;
    auto &vax = cfg.options.vax;
    risc.memorySize = static_cast<std::uint32_t>(mem);
    risc.saveAreaTop = static_cast<std::uint32_t>(mem - mem / 16);
    risc.softAreaTop = static_cast<std::uint32_t>(mem - mem / 8);
    vax.memorySize = static_cast<std::uint32_t>(mem);
    vax.stackTop = static_cast<std::uint32_t>(mem - mem / 16);

    if (const JsonValue *windows = req.find("windows")) {
        const std::uint64_t n = windows->asU64();
        if (n > 0xffffffffu)
            fatal(cat("create: windows ", n, " does not fit in 32 bits"));
        risc.windows.numWindows = static_cast<unsigned>(n);
    }
    risc.windowedCalls = req.boolOr("windowed", true);

    const auto cacheLevel =
        [this](const char *key) -> std::optional<mem::LevelConfig> {
        const JsonValue *spec = req.find(key);
        if (!spec)
            return std::nullopt;
        return mem::parseLevelSpec(spec->asString(),
                                   cat("create: '", key, "'"));
    };
    // Hierarchy levels apply to whichever backend the session runs
    // (same convention as job files, sim/jobfile.cc).
    if (const auto l1i = cacheLevel("l1i"))
        risc.caches.l1i = vax.caches.l1i = *l1i;
    if (const auto l1d = cacheLevel("l1d"))
        risc.caches.l1d = vax.caches.l1d = *l1d;
    if (const auto l2 = cacheLevel("l2"))
        risc.caches.l2 = vax.caches.l2 = *l2;

    const std::string workloadId = req.stringOr("workload", "");
    const std::string source = req.stringOr("source", "");
    if (workloadId.empty() == source.empty())
        fatal("create needs exactly one of 'workload' or 'source'");
    const std::string &text =
        workloadId.empty()
            ? source
            : target::workloadSource(cfg.backend,
                                     findWorkload(workloadId));

    // Build and load the machine before registering the session so a
    // failed create leaves no session behind.
    auto target = target::makeTarget(cfg.backend, cfg.options);
    target->load(text);

    const auto created = svc.sessions_.create(std::move(cfg));
    std::uint64_t codeBytes = 0;
    {
        std::lock_guard lock(created->mutex);
        created->target = std::move(target);
        codeBytes = created->target->codeBytes();
        touch(*created);
    }
    JsonWriter w;
    okHeader(*created, w);
    w.field("memBytes", mem).field("codeBytes", codeBytes).endObject();
    return w.str();
}

std::string
Service::Call::destroy()
{
    svc.sessions_.destroy(*session);
    JsonWriter w;
    w.beginObject().field("ok", true).field("session", session->id)
        .endObject();
    return w.str();
}

std::string
Service::Call::step()
{
    const std::uint64_t count = req.u64Or("count", 1);
    if (count < 1 || count > svc.config_.maxStepCount)
        fatal(cat("step: count must be 1..", svc.config_.maxStepCount,
                  ", got ", count));

    svc.sessions_.ensureResident(*session);
    const auto t0 = Clock::now();
    std::uint64_t done = 0;
    while (done < count && !session->target->halted()) {
        session->target->step();
        ++done;
    }
    session->metrics.execMs += double(nsSince(t0)) / 1e6;
    session->metrics.steps += done;
    touch(*session);

    JsonWriter w;
    okHeader(*session, w);
    w.field("steps", done)
        .field("halted", session->target->halted())
        .field("pc", session->target->pc())
        .endObject();
    return w.str();
}

std::string
Service::Call::run()
{
    const std::uint64_t maxSteps = req.u64Or("maxSteps", kDefaultRunSteps);
    if (maxSteps < 1 || maxSteps > svc.config_.maxRunSteps)
        fatal(cat("run: maxSteps must be 1..", svc.config_.maxRunSteps,
                  ", got ", maxSteps));
    {
        std::lock_guard sched(svc.schedMutex_);
        if (svc.stopping_.load(std::memory_order_relaxed))
            fatal("server shutting down");
        if (svc.config_.maxPendingRuns != 0 &&
            svc.pendingRuns_ >= svc.config_.maxPendingRuns)
            fatal(cat("server overloaded: ", svc.pendingRuns_,
                      " runs pending (limit ", svc.config_.maxPendingRuns,
                      "); retry after a run completes"));
        ++svc.pendingRuns_;
        // Its turns wait on the session mutex, held until the run
        // state below is set.
        svc.ready_.push_back(session);
    }
    touch(*session);
    session->runActive = true;
    session->run.remaining = maxSteps;
    session->run.executed = 0;
    session->run.reply = std::move(deferred);
    session->run.enqueuedAt = Clock::now();
    return {};
}

std::string
Service::Call::peek()
{
    const JsonValue *addrValue = req.find("addr");
    if (!addrValue)
        fatal("peek: request missing 'addr'");
    const std::uint64_t addr = addrValue->asU64();
    const std::uint64_t count = req.u64Or("count", 1);
    if (count < 1 || count > kMaxPeekWords)
        fatal(cat("peek: count must be 1..", kMaxPeekWords, ", got ",
                  count));
    if (addr > 0xffffffffu || addr + count * 4 - 1 > 0xffffffffu)
        fatal(cat("peek: address range out of 32-bit space"));

    svc.sessions_.ensureResident(*session);
    touch(*session);

    JsonWriter w;
    okHeader(*session, w);
    w.field("addr", addr).key("words").beginArray();
    for (std::uint64_t i = 0; i < count; ++i)
        w.value(session->target->peekWord(
            static_cast<std::uint32_t>(addr + i * 4)));
    w.endArray().endObject();
    return w.str();
}

std::string
Service::Call::regs()
{
    svc.sessions_.ensureResident(*session);
    touch(*session);

    JsonWriter w;
    okHeader(*session, w);
    w.field("pc", session->target->pc())
        .field("halted", session->target->halted());
    w.key("regs").beginArray();
    const unsigned n = session->target->numRegs();
    for (unsigned r = 0; r < n; ++r)
        w.value(session->target->readReg(r));
    w.endArray().endObject();
    return w.str();
}

std::string
Service::Call::stats()
{
    svc.sessions_.ensureResident(*session);
    touch(*session);

    const auto stats = session->target->stats();
    JsonWriter w;
    okHeader(*session, w);
    w.field("halted", session->target->halted())
        .field("checksum", session->target->checksum());
    w.key("result").beginObject();
    stats->writeJson(w);
    w.endObject();
    // This session's own copy-on-write footprint: the pages only it
    // holds vs the pages it still shares with snapshots/forks.
    const MemoryUsage usage = session->target->memUsage();
    w.key("memory")
        .beginObject()
        .field("residentBytes", usage.residentBytes)
        .field("sharedBytes", usage.sharedBytes)
        .endObject();
    w.key("metrics");
    session->metrics.writeJson(w);
    w.endObject();
    return w.str();
}

std::string
Service::Call::snapshot()
{
    svc.sessions_.ensureResident(*session);
    touch(*session);
    const std::string id = svc.sessions_.storeSnapshot(
        StoredSnapshot{session->target->snapshot(), session->cfg});
    JsonWriter w;
    okHeader(*session, w);
    w.field("snapshot", id).endObject();
    return w.str();
}

std::string
Service::Call::fork()
{
    const std::string snapId = req.stringOr("snapshot", "");
    const std::string srcId = req.stringOr("session", "");
    if (snapId.empty() == srcId.empty())
        fatal("fork needs exactly one of 'session' or 'snapshot'");

    std::unique_ptr<target::Target> target;
    SessionConfig cfg;
    if (!snapId.empty()) {
        const auto stored = svc.sessions_.findSnapshot(snapId);
        if (!stored)
            fatal(cat("unknown snapshot '", snapId, "'"));
        cfg = stored->cfg;
        // Restoring adopts the stored snapshot's page handles; every
        // session forked off one snapshot shares its pages until it
        // writes them (copy-on-write).
        target = target::makeTarget(cfg.backend, cfg.options);
        target->restore(*stored->snap);
    } else {
        // fork's row needs no session: a session is one of two sources.
        const auto src = needSession(svc.sessions_, req);
        std::lock_guard lock(src->mutex);
        require(*src, Need::idle);
        svc.sessions_.ensureResident(*src);
        touch(*src);
        // Clone the live machine directly — O(pages touched) handle
        // adoption, no content copied (Target::fork).
        target = src->target->fork();
        cfg = src->cfg;
    }

    const auto forked = svc.sessions_.create(std::move(cfg));
    {
        std::lock_guard lock(forked->mutex);
        forked->target = std::move(target);
        touch(*forked);
    }
    JsonWriter w;
    okHeader(*forked, w);
    w.endObject();
    return w.str();
}

std::string
Service::Call::evict()
{
    ++session->metrics.commands; // deliberately no lastActive touch
    svc.sessions_.evict(*session);
    JsonWriter w;
    okHeader(*session, w);
    w.field("resident", false).endObject();
    return w.str();
}

std::string
Service::Call::drop()
{
    const std::string id = req.stringOr("snapshot", "");
    if (id.empty())
        fatal("drop: request missing 'snapshot'");
    if (!svc.sessions_.dropSnapshot(id))
        fatal(cat("unknown snapshot '", id, "'"));
    JsonWriter w;
    w.beginObject().field("ok", true).field("snapshot", id).endObject();
    return w.str();
}

void
Service::pump()
{
    std::lock_guard sched(schedMutex_);
    while (!stopping_.load(std::memory_order_relaxed) && !ready_.empty()) {
        std::shared_ptr<Session> session = ready_.front();
        if (!engine_.trySubmit(
                [this, session] { runTurn(session); }))
            break; // engine full; retried as in-flight turns retire
        ready_.pop_front();
        ++inFlight_;
    }
}

void
Service::runTurn(const std::shared_ptr<Session> &session)
{
    RunReplyFn reply;
    std::string payload;
    bool failed = true;
    bool requeue = false;
    {
        std::lock_guard lock(session->mutex);
        if (session->runActive) { // else stop() already drained this run
            try {
                if (stopping_.load(std::memory_order_acquire))
                    fatal("server shutting down");
                schedQueueWaitNs_->record(
                    nsSince(session->run.enqueuedAt));
                sessions_.ensureResident(*session);
                const std::uint64_t quota =
                    std::min(config_.quota, session->run.remaining);
                const auto t0 = Clock::now();
                const RunOutcome out =
                    session->target->run(quota, session->cfg.fast);
                const std::uint64_t turnNs = nsSince(t0);
                session->metrics.execMs += double(turnNs) / 1e6;
                schedTurnNs_->record(turnNs);
                schedTurns_->add(1);
                ++session->metrics.turns;
                session->metrics.steps += out.steps;
                session->run.executed += out.steps;
                session->run.remaining -=
                    std::min(out.steps, session->run.remaining);
                session->lastActive = Clock::now();
                if (out.halted || session->run.remaining == 0) {
                    JsonWriter w;
                    okHeader(*session, w);
                    w.field("steps", session->run.executed)
                        .field("halted", out.halted)
                        .field("status",
                               out.halted ? "halted" : "stepLimit")
                        .field("pc", session->target->pc())
                        .field("checksum", session->target->checksum())
                        .endObject();
                    payload = w.str();
                    failed = false;
                } else {
                    session->run.enqueuedAt = Clock::now();
                    requeue = true;
                }
            } catch (const std::exception &e) {
                payload = errorPayload(e.what());
            }
            if (!requeue) {
                reply = std::move(session->run.reply);
                session->runActive = false;
            }
        }
    }

    if (requeue) {
        bool drained = false;
        {
            std::lock_guard sched(schedMutex_);
            // stop() may already have swept the ready queue.
            drained = stopping_.load(std::memory_order_relaxed);
            if (!drained)
                ready_.push_back(session);
        }
        if (drained)
            failRun(session, "server shutting down");
    }

    if (reply)
        reply(std::move(payload), failed);

    {
        std::lock_guard sched(schedMutex_);
        --inFlight_;
        if (reply && pendingRuns_ > 0)
            --pendingRuns_;
    }
    pump();
}

void
Service::failRun(const std::shared_ptr<Session> &session,
                 std::string_view message)
{
    RunReplyFn reply;
    {
        std::lock_guard lock(session->mutex);
        if (!session->runActive)
            return;
        reply = std::move(session->run.reply);
        session->runActive = false;
    }
    if (reply)
        reply(errorPayload(message), true);
    std::lock_guard sched(schedMutex_);
    if (pendingRuns_ > 0)
        --pendingRuns_;
}

void
Service::stop()
{
    std::deque<std::shared_ptr<Session>> drain;
    bool first = false; // a later stop() only repeats the joins
    {
        std::lock_guard sched(schedMutex_);
        first = !stopping_.exchange(true, std::memory_order_acq_rel);
        drain.swap(ready_);
    }
    if (first && eventLog_.enabled(obs::EventLevel::Info))
        eventLog_.emit(obs::EventLevel::Info, "server.stop",
                       obs::EventFields{}
                           .field("uptimeMs", uptimeMs())
                           .field("requests", requests_->value())
                           .field("errors", errors_->value()));

    // Runs still queued outside the engine never got a turn: fail them
    // here.  Runs already inside the engine are failed by their own
    // turn, which observes stopping_ (the engine runs every queued
    // task to completion before stop() returns).
    for (const auto &session : drain)
        failRun(session, "server shutting down");

    engine_.stop();

    {
        std::lock_guard lk(sweepMutex_);
        sweepStop_ = true;
    }
    sweepCv_.notify_all();
    if (sweeper_.joinable())
        sweeper_.join();
}

void
Service::sweepNow()
{
    if (config_.ttlMs < 0)
        return;
    sweepOnce();
}

void
Service::sweepLoop()
{
    using namespace std::chrono_literals;
    const auto interval = [this]() -> std::chrono::milliseconds {
        if (config_.ttlMs <= 0)
            return 25ms;
        return std::clamp(std::chrono::milliseconds(config_.ttlMs / 4),
                          std::chrono::milliseconds(25),
                          std::chrono::milliseconds(2000));
    }();

    std::unique_lock lk(sweepMutex_);
    while (!sweepStop_) {
        if (config_.ttlMs < 0) {
            sweepCv_.wait(lk, [this] { return sweepStop_; });
            break;
        }
        sweepCv_.wait_for(lk, interval, [this] { return sweepStop_; });
        if (sweepStop_)
            break;
        lk.unlock();
        sweepOnce();
        lk.lock();
    }
}

void
Service::sweepOnce()
{
    const auto ttl = std::chrono::milliseconds(config_.ttlMs);
    const auto now = Clock::now();
    for (const auto &session : sessions_.all()) {
        std::unique_lock lock(session->mutex, std::try_to_lock);
        if (!lock.owns_lock())
            continue; // busy right now; the next sweep catches it
        if (session->destroyed || session->runActive || !session->target)
            continue;
        if (now - session->lastActive < ttl)
            continue;
        try {
            sessions_.evict(*session);
        } catch (const std::exception &e) {
            warn(cat("eviction sweep: session ", session->id, ": ",
                     e.what()));
        }
    }
}

} // namespace risc1::server

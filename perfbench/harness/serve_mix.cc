/**
 * @file
 * serve_mix: an open-loop, fixed-schedule command mix against a real
 * riscserved daemon over its Unix socket, from one client thread
 * multiplexing at most nproc connections.
 *
 * Sessions are split between RISC and VAX; each runs a program that
 * never halts, so every `run` does its full quota-sliced work.  The
 * mix: light commands (step/regs/peek/stats), `run` at a fixed
 * maxSteps, and state commands (snapshot, fork, evict, and the first
 * command after an evict, which restores the session from the spool).
 * A session never has two commands in flight — the client queues a
 * due command behind its session's outstanding one, and its latency
 * still counts from the time it was due.
 *
 * Every reply must be ok; a `run` that reports `halted`, a `step` that
 * ran short, or a `stats` whose retired-instruction count differs from
 * the steps the script requested is a failed op.
 */

#include "workloads.hh"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/json.hh"
#include "common/json_value.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "lang/compile.hh"
#include "lang/parser.hh"
#include "obs/registry.hh"
#include "server/frame.hh"

namespace perfbench {

using risc1::JsonValue;

namespace {

/// Sessions per connection, half RISC and half VAX: riscload's
/// default --sessions.
constexpr unsigned kSessionsPerConnection = 64;
/// Fixed-rate phase, req/s: about half the saturated closed-loop rate
/// this mix reaches with one engine worker (NOTES.md).
constexpr double kMainRate = 2000.0;
constexpr double kLimitMs = 50.0;            ///< req_p99_ms limit
constexpr double kBaseRate = 500.0;          ///< ladder rung 0, req/s
constexpr double kRungRatio = 1.05;          ///< ladder rungs 5% apart
constexpr double kWarmupS = 0.3;

const char *const kProgram = R"(// serve_mix session program: never halts.
int acc = 1;
int ring[64];
int mix(int x, int y) {
  int t = (x << 3) ^ (y >> 2);
  if ((t & 1) == 0) {
    t = t + y;
  } else {
    t = t - x;
  }
  return t;
}
int main() {
  int i = 0;
  while (1) {
    ring[i] = mix(ring[i + 1], i) + acc;
    acc = acc ^ ring[i];
    i = i + 1;
  }
  return 0;
}
)";

enum class Op : std::uint8_t
{
    Step, Regs, Peek, Stats,          // light
    Run,                              // run
    Snapshot, Fork, Evict,            // state
    Drop, ChildStats, Destroy,        // state follow-ups
};

/** Span name of a request, by command (indexed by Op). */
constexpr const char *kSpanNames[] = {
    "serve.step",     "serve.regs",       "serve.peek",    "serve.stats",
    "serve.run",      "serve.snapshot",   "serve.fork",    "serve.evict",
    "serve.drop",     "serve.childStats", "serve.destroy"};

enum Class : unsigned { kLight = 0, kRunClass = 1, kState = 2 };
constexpr const char *kClassNames[] = {"light", "run", "state"};

/** Class by command name alone (how the daemon's histograms group). */
Class
commandClass(Op op)
{
    switch (op) {
      case Op::Step:
      case Op::Regs:
      case Op::Peek:
      case Op::Stats:
      case Op::ChildStats:
        return kLight;
      case Op::Run:
        return kRunClass;
      default:
        return kState;
    }
}

/** One command waiting for, or in, its session's turn. */
struct Pending
{
    Op op;
    std::int64_t dueNs;
    std::uint64_t arg = 0;
    bool dispatchedLate = false;  ///< queued behind its session
};

struct Session
{
    std::string id;
    bool risc = true;
    unsigned conn = 0;
    bool busy = false;
    bool evicted = false;
    std::uint64_t expected = 0;  ///< instructions the script requested
    std::deque<Pending> queue;
};

/** A request on the wire. */
struct InFlight
{
    Op op;
    int session = -1;       ///< -1 for follow-ups on children/snapshots
    Class cls;              ///< latency class (restores count as state)
    std::int64_t dueNs = 0;
    std::int64_t sendNs = 0;
    std::int64_t renderNs = 0;  ///< before building the request JSON
    std::uint64_t arg = 0;
    std::string target;     ///< child session / snapshot id
    unsigned conn = 0;      ///< connection it was sent on
    bool queued = false;
};

struct Connection
{
    int fd = -1;
    risc1::server::FrameReader reader;
    std::string out;
    std::size_t outPos = 0;
};

/** What one scheduled phase measured. */
struct PhaseResult
{
    std::vector<double> all;        ///< ms from due time
    std::vector<double> byClass[3];
    std::vector<double> sendByCommandClass[3];  ///< ms from send time
    std::vector<double> lateMs;     ///< generator lateness
    std::vector<std::int64_t> doneNs;  ///< completion times
    std::uint64_t sent = 0;
    std::uint64_t outstandingAtEnd = 0;
    double meanMs() const
    {
        double s = 0;
        for (double v : all)
            s += v;
        return all.empty() ? 0.0 : s / double(all.size());
    }
};

std::int64_t
nowNs()
{
    return monoNs(Clock::now());
}

/** Draw one command of the mix, due at @p dueNs. */
Pending
drawOp(risc1::Rng &rng, std::int64_t dueNs)
{
    // riscload's pickOp weights (bench/riscload.cc); its 5% snapshot
    // and fork share is split three ways to make room for evict.
    const std::uint64_t roll = rng.below(100);
    if (roll < 35)
        return {Op::Run, dueNs, kServeRunSteps};
    if (roll < 55)
        return {Op::Step, dueNs, 1 + rng.below(64)};
    if (roll < 70)
        return {Op::Regs, dueNs};
    if (roll < 85)
        return {Op::Peek, dueNs, 0x1000 + 4 * rng.below(256)};
    if (roll < 95)
        return {Op::Stats, dueNs};
    if (roll < 97)
        return {Op::Snapshot, dueNs};
    if (roll < 99)
        return {Op::Fork, dueNs};
    return {Op::Evict, dueNs};
}

/**
 * The daemon process, the client connections and sessions, and the
 * event loop that drives scheduled phases through them.
 */
class Rig
{
  public:
    Rig(const RunConfig &cfg, Report &report) : cfg_(cfg), report_(report)
    {
    }
    ~Rig() { stop(); }
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    /** Start the daemon, connect, create the sessions. */
    void start();

    /**
     * Run one open-loop phase: @p rate requests/s for @p seconds, then
     * wait for every reply.  Samples go to @p out when non-null.
     */
    void phase(double rate, double seconds, std::uint64_t phaseSeed,
               PhaseResult *out);

    /**
     * Closed loop: every session always has one command in flight,
     * the next sent as soon as the last is answered, for @p seconds.
     * @return completions per second, the median of 1 s windows.
     */
    double saturate(double seconds, std::uint64_t phaseSeed);

    /** Every session's stats must show exactly the requested steps. */
    void checkSessions();

    /** Scrape the daemon's telemetry registry. */
    JsonValue telemetry();

    /** SIGTERM the daemon and collect its peak RSS. */
    void stop();

    /** Record spans of the following phases into @p spans (nullptr:
     *  stop tracing). */
    void traceInto(Spans *spans) { spans_ = spans; }

    double daemonPeakRssMib() const { return daemonPeakMib_; }
    std::uint64_t runsSent() const { return runsSent_; }
    std::uint64_t refused() const { return refused_; }

  private:
    void spawnDaemon();
    void connectAll();
    JsonValue callSync(unsigned conn, const std::string &json,
                       std::string *raw = nullptr);
    void dispatch(unsigned s, Pending p);
    void send(int session, unsigned conn, InFlight req);
    void flush(Connection &c);
    void pollOnce();
    void onReply(std::uint32_t id, const std::string &payload,
                 std::int64_t arrivedNs);
    void fail(const std::string &what);
    std::string requestJson(const InFlight &req) const;

    const RunConfig &cfg_;
    Report &report_;
    Spans *spans_ = nullptr;
    pid_t daemon_ = -1;
    int daemonOut_ = -1;
    double daemonPeakMib_ = 0.0;
    std::vector<Connection> conns_;
    std::vector<Session> sessions_;
    std::unordered_map<std::uint32_t, InFlight> inflight_;
    std::uint32_t nextId_ = 1;
    PhaseResult *sink_ = nullptr;
    std::uint64_t runsSent_ = 0;
    std::uint64_t refused_ = 0;
    risc1::Rng *closedRng_ = nullptr;  ///< set while saturate() runs
    std::int64_t closedUntilNs_ = 0;
    /** The harness's CPUs before start(); the client then runs on the
     *  last of them and the daemon on the rest. */
    cpu_set_t allCpus_{};
    cpu_set_t daemonCpus_{};
    bool pinned_ = false;
};

void
Rig::fail(const std::string &what)
{
    ++report_.failed;
    if (report_.errors.size() < 8)
        report_.errors.push_back(what);
}

void
Rig::spawnDaemon()
{
    std::filesystem::remove("d.sock");
    std::filesystem::create_directories("spool");
    int pipeFds[2];
    if (::pipe(pipeFds) != 0)
        risc1::fatal("serve_mix: pipe failed");

    const std::string workers = std::to_string(kEngineWorkers);
    const std::string quota = std::to_string(kServeQuota);
    std::vector<std::string> args = {
        cfg_.daemonPath, "--unix", "d.sock", "--workers", workers,
        "--quota", quota, "--ttl-ms", "-1", "--spool", "spool"};
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    // The busy-polling client gets a CPU of its own, so the guest
    // scheduler never parks a daemon thread behind it.
    sched_getaffinity(0, sizeof(allCpus_), &allCpus_);
    daemonCpus_ = allCpus_;
    int clientCpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allCpus_))
            clientCpu = c;
    pinned_ = CPU_COUNT(&allCpus_) >= 2;
    if (pinned_)
        CPU_CLR(clientCpu, &daemonCpus_);

    const pid_t parent = ::getpid();
    daemon_ = ::fork();
    if (daemon_ < 0)
        risc1::fatal("serve_mix: fork failed");
    if (daemon_ == 0) {
        // The daemon must not outlive the harness, however it ends.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (::getppid() != parent)
            ::_exit(1);
        sched_setaffinity(0, sizeof(daemonCpus_), &daemonCpus_);
        ::dup2(pipeFds[1], 1);
        ::close(pipeFds[0]);
        ::close(pipeFds[1]);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(pipeFds[1]);
    daemonOut_ = pipeFds[0];
    if (pinned_) {
        cpu_set_t client;
        CPU_ZERO(&client);
        CPU_SET(clientCpu, &client);
        sched_setaffinity(0, sizeof(client), &client);
    }

    // Wait for the daemon's ready line.  Set-up busy-polls like the
    // phases do, so its time does not include the client's wake-ups.
    std::string text;
    const std::int64_t deadline = nowNs() + 10'000'000'000;
    while (text.find("riscserved: ready") == std::string::npos) {
        pollfd p{daemonOut_, POLLIN, 0};
        if (nowNs() > deadline)
            risc1::fatal("serve_mix: daemon did not become ready");
        if (::poll(&p, 1, 0) <= 0)
            continue;
        char buf[256];
        const ssize_t n = ::read(daemonOut_, buf, sizeof(buf));
        if (n <= 0)
            risc1::fatal("serve_mix: daemon exited during start-up");
        text.append(buf, std::size_t(n));
    }
}

void
Rig::connectAll()
{
    const unsigned n = std::max(1u, cfg_.nproc / 2);
    conns_.resize(n);
    for (Connection &c : conns_) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, "d.sock", sizeof(addr.sun_path) - 1);
        c.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (c.fd < 0 ||
            ::connect(c.fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            risc1::fatal(risc1::cat("serve_mix: connect: ",
                                    std::strerror(errno)));
        ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
}

void
Rig::flush(Connection &c)
{
    while (c.outPos < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.outPos,
                                 c.out.size() - c.outPos, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            risc1::fatal(risc1::cat("serve_mix: send: ",
                                    std::strerror(errno)));
        }
        c.outPos += std::size_t(n);
    }
    c.out.clear();
    c.outPos = 0;
}

/** Handle whatever socket events are ready, without waiting: the
 *  client busy-polls, since a sleeping generator would add its own
 *  wake-up latency to every reply and send late. */
void
Rig::pollOnce()
{
    std::vector<pollfd> fds(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
        fds[i].fd = conns_[i].fd;
        fds[i].events =
            POLLIN | (conns_[i].outPos < conns_[i].out.size() ? POLLOUT
                                                              : 0);
    }
    if (::poll(fds.data(), fds.size(), 0) <= 0)
        return;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
        Connection &c = conns_[i];
        if (fds[i].revents & POLLOUT)
            flush(c);
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
            continue;
        char buf[65536];
        for (;;) {
            const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
            if (got < 0 && errno == EINTR)
                continue;
            if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            if (got <= 0)
                risc1::fatal("serve_mix: daemon closed a connection");
            const std::int64_t arrived = nowNs();
            c.reader.feed(reinterpret_cast<const std::uint8_t *>(buf),
                          std::size_t(got));
            if (c.reader.error() != risc1::server::FrameError::None)
                risc1::fatal("serve_mix: framing error from daemon");
            while (auto frame = c.reader.next())
                onReply(frame->id, frame->payload, arrived);
            if (std::size_t(got) < sizeof(buf))
                break;
        }
    }
}

JsonValue
Rig::callSync(unsigned conn, const std::string &json, std::string *raw)
{
    Connection &c = conns_[conn];
    const std::uint32_t id = nextId_++;
    const auto frame = risc1::server::encodeFrame(
        risc1::server::FrameType::Request, id, json);
    c.out.append(reinterpret_cast<const char *>(frame.data()), frame.size());
    flush(c);
    const std::int64_t deadline = nowNs() + 10'000'000'000;
    while (nowNs() < deadline) {
        pollfd p{c.fd, short(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
        if (::poll(&p, 1, 0) <= 0)
            continue;
        if (p.revents & POLLOUT)
            flush(c);
        char buf[65536];
        const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
        if (got == 0)
            risc1::fatal("serve_mix: daemon closed a connection");
        if (got < 0)
            continue;
        c.reader.feed(reinterpret_cast<const std::uint8_t *>(buf),
                      std::size_t(got));
        while (auto frame = c.reader.next()) {
            if (frame->id != id)
                risc1::fatal("serve_mix: unexpected reply during set-up");
            if (raw)
                *raw = frame->payload;
            return risc1::parseJson(frame->payload);
        }
    }
    risc1::fatal("serve_mix: no reply from daemon");
}

void
Rig::start()
{
    spawnDaemon();
    connectAll();
    risc1::lang::Program program = risc1::lang::parseProgram(kProgram);
    const std::string sources[2] = {
        risc1::lang::compileRisc(program).source,
        risc1::lang::compileVax(program).source};
    sessions_.resize(kSessionsPerConnection * conns_.size());
    for (unsigned s = 0; s < sessions_.size(); ++s) {
        Session &session = sessions_[s];
        session.risc = s % 2 == 0;
        session.conn = s % conns_.size();
        risc1::JsonWriter w;
        w.beginObject()
            .field("cmd", "create")
            .field("backend", session.risc ? "risc" : "vax")
            .field("source", std::string_view(sources[s % 2]))
            .endObject();
        const JsonValue reply = callSync(session.conn, w.str());
        if (!reply.boolOr("ok", false))
            risc1::fatal(risc1::cat("serve_mix: create failed: ",
                                    reply.stringOr("error", "?")));
        session.id = reply.stringOr("session", "");
    }
    report_.facts["daemon_workers"] = std::to_string(kEngineWorkers);
    report_.facts["connections"] = std::to_string(conns_.size());
    report_.facts["sessions"] = std::to_string(sessions_.size());
}

std::string
Rig::requestJson(const InFlight &req) const
{
    const std::string &sid =
        req.session >= 0 ? sessions_[std::size_t(req.session)].id
                         : req.target;
    switch (req.op) {
      case Op::Step:
        return risc1::cat(R"({"cmd":"step","session":")", sid,
                          R"(","count":)", req.arg, "}");
      case Op::Regs:
        return risc1::cat(R"({"cmd":"regs","session":")", sid, R"("})");
      case Op::Peek:
        return risc1::cat(R"({"cmd":"peek","session":")", sid,
                          R"(","addr":)", req.arg, R"(,"count":8})");
      case Op::Stats:
      case Op::ChildStats:
        return risc1::cat(R"({"cmd":"stats","session":")", sid, R"("})");
      case Op::Run:
        return risc1::cat(R"({"cmd":"run","session":")", sid,
                          R"(","maxSteps":)", kServeRunSteps, "}");
      case Op::Snapshot:
        return risc1::cat(R"({"cmd":"snapshot","session":")", sid,
                          R"("})");
      case Op::Fork:
        return risc1::cat(R"({"cmd":"fork","session":")", sid, R"("})");
      case Op::Evict:
        return risc1::cat(R"({"cmd":"evict","session":")", sid, R"("})");
      case Op::Drop:
        return risc1::cat(R"({"cmd":"drop","snapshot":")", sid, R"("})");
      case Op::Destroy:
        return risc1::cat(R"({"cmd":"destroy","session":")", sid,
                          R"("})");
    }
    return "";
}

void
Rig::send(int session, unsigned conn, InFlight req)
{
    req.session = session;
    req.conn = conn;
    req.renderNs = nowNs();
    const std::string json = requestJson(req);
    const std::uint32_t id = nextId_++;
    const auto frame = risc1::server::encodeFrame(
        risc1::server::FrameType::Request, id, json);
    Connection &c = conns_[conn];
    c.out.append(reinterpret_cast<const char *>(frame.data()), frame.size());
    req.sendNs = nowNs();
    if (req.op == Op::Run)
        ++runsSent_;
    if (sink_)
        ++sink_->sent;
    inflight_.emplace(id, std::move(req));
    flush(c);
}

void
Rig::dispatch(unsigned s, Pending p)
{
    Session &session = sessions_[s];
    if (session.busy) {
        p.dispatchedLate = true;
        session.queue.push_back(p);
        return;
    }
    session.busy = true;
    InFlight req;
    req.op = p.op;
    req.dueNs = p.dueNs;
    req.arg = p.arg;
    req.queued = p.dispatchedLate;
    req.cls = session.evicted ? kState : commandClass(p.op);
    session.evicted = false;
    send(int(s), session.conn, std::move(req));
}

void
Rig::onReply(std::uint32_t id, const std::string &payload,
             std::int64_t arrivedNs)
{
    const auto it = inflight_.find(id);
    if (it == inflight_.end())
        risc1::fatal(risc1::cat("serve_mix: reply to unknown request ", id));
    InFlight req = std::move(it->second);
    inflight_.erase(it);

    const std::int64_t parseStart = nowNs();
    JsonValue reply;
    bool ok = false;
    try {
        reply = risc1::parseJson(payload);
        ok = reply.boolOr("ok", false);
    } catch (const std::exception &) {
    }
    const std::int64_t doneNs = nowNs();

    Session *session =
        req.session >= 0 ? &sessions_[std::size_t(req.session)] : nullptr;
    const auto what = [&] {
        return risc1::cat(session ? session->id : req.target, " ",
                          payload.substr(0, 160));
    };
    if (!ok) {
        const std::string error = reply.isObject()
                                      ? reply.stringOr("error", "")
                                      : std::string("unparseable reply");
        // The daemon's three refusals: engine queue full, a mutating
        // command during a run, the session cap.
        if (error.find("server overloaded") != std::string::npos ||
            error.find("run in progress") != std::string::npos ||
            error.find("session limit reached") != std::string::npos)
            ++refused_;
        fail("serve_mix: error reply: " + what());
    } else {
        switch (req.op) {
          case Op::Step:
            if (reply.u64Or("steps", 0) != req.arg ||
                reply.boolOr("halted", true))
                fail("serve_mix: step ran short: " + what());
            session->expected += req.arg;
            break;
          case Op::Run:
            if (reply.u64Or("steps", 0) != kServeRunSteps ||
                reply.boolOr("halted", true))
                fail("serve_mix: run halted or ran short: " + what());
            session->expected += kServeRunSteps;
            break;
          case Op::Stats:
          case Op::ChildStats: {
            const JsonValue *result = reply.find("result");
            const JsonValue *stats =
                result ? result->find("stats") : nullptr;
            const std::uint64_t want =
                session ? session->expected : req.arg;
            if (!stats || stats->u64Or("instructions", ~0ull) != want)
                fail(risc1::cat("serve_mix: stats shows a retired count "
                                "other than the ",
                                want, " steps requested: ", what()));
            break;
          }
          case Op::Snapshot: {
            InFlight drop;
            drop.op = Op::Drop;
            drop.cls = kState;
            drop.dueNs = arrivedNs;
            drop.target = reply.stringOr("snapshot", "");
            send(-1, req.conn, std::move(drop));
            break;
          }
          case Op::Fork: {
            // The child inherits the parent's retired count exactly.
            InFlight check;
            check.op = Op::ChildStats;
            check.cls = kLight;
            check.dueNs = arrivedNs;
            check.arg = session->expected;
            check.target = reply.stringOr("session", "");
            send(-1, req.conn, std::move(check));
            break;
          }
          case Op::Evict:
            session->evicted = true;
            break;
          default:
            break;
        }
        if (req.op == Op::ChildStats) {
            InFlight destroy;
            destroy.op = Op::Destroy;
            destroy.cls = kState;
            destroy.dueNs = arrivedNs;
            destroy.target = req.target;
            send(-1, req.conn, std::move(destroy));
        }
    }

    if (sink_) {
        const double fromDue = double(doneNs - req.dueNs) / 1e6;
        sink_->all.push_back(fromDue);
        sink_->doneNs.push_back(doneNs);
        sink_->byClass[req.cls].push_back(fromDue);
        sink_->sendByCommandClass[commandClass(req.op)].push_back(
            double(doneNs - req.sendNs) / 1e6);
        if (!req.queued)
            sink_->lateMs.push_back(double(req.renderNs - req.dueNs) / 1e6);
        if (spans_) {
            const auto at = [](std::int64_t ns) {
                return Clock::time_point(std::chrono::nanoseconds(ns));
            };
            const std::uint64_t root =
                spans_->add(kSpanNames[unsigned(req.op)], "harness", 0,
                            id, 0, at(req.dueNs), at(doneNs));
            spans_->add("common.render+frame", "common", root, id, 0,
                       at(req.renderNs), at(req.sendNs));
            spans_->add("server.roundtrip", "server", root, id, 0,
                       at(req.sendNs), at(arrivedNs));
            spans_->add("common.parse", "common", root, id, 0,
                       at(parseStart), at(doneNs));
        }
    }

    if (session) {
        session->busy = false;
        if (!session->queue.empty()) {
            Pending next = session->queue.front();
            session->queue.pop_front();
            dispatch(unsigned(req.session), next);
        } else if (closedRng_ && doneNs < closedUntilNs_) {
            dispatch(unsigned(req.session), drawOp(*closedRng_, doneNs));
        }
    }
}

void
Rig::phase(double rate, double seconds, std::uint64_t phaseSeed,
           PhaseResult *out)
{
    sink_ = out;
    risc1::Rng rng(cfg_.seed * 0x100000001b3ull + phaseSeed);
    const auto total = std::uint64_t(std::llround(rate * seconds));
    const double gapNs = 1e9 / rate;
    const std::int64_t start = nowNs() + 1'000'000;
    std::uint64_t slot = 0;

    const std::int64_t endNs = start + std::int64_t(double(total) * gapNs);
    const std::int64_t hardDeadline = endNs + 30'000'000'000;
    bool backlogTaken = false;
    while (slot < total || !inflight_.empty()) {
        const std::int64_t now = nowNs();
        if (now > hardDeadline)
            risc1::fatal("serve_mix: replies did not arrive within 30 s");
        while (slot < total &&
               start + std::int64_t(double(slot) * gapNs) <= now) {
            const std::int64_t due =
                start + std::int64_t(double(slot) * gapNs);
            const unsigned s = unsigned(rng.below(sessions_.size()));
            dispatch(s, drawOp(rng, due));
            ++slot;
        }
        if (slot == total && out && !backlogTaken && now >= endNs) {
            // Backlog when the schedule ends: commands sent or due but
            // not yet answered.
            backlogTaken = true;
            out->outstandingAtEnd = inflight_.size();
            for (const Session &s : sessions_)
                out->outstandingAtEnd += s.queue.size();
        }
        pollOnce();
    }
    sink_ = nullptr;
}

double
Rig::saturate(double seconds, std::uint64_t phaseSeed)
{
    risc1::Rng rng(cfg_.seed * 0x100000001b3ull + phaseSeed);
    PhaseResult r;
    sink_ = &r;
    closedRng_ = &rng;
    const std::int64_t start = nowNs();
    closedUntilNs_ = start + std::int64_t(seconds * 1e9);
    for (unsigned s = 0; s < sessions_.size(); ++s)
        dispatch(s, drawOp(rng, start));
    while (!inflight_.empty()) {
        if (nowNs() > closedUntilNs_ + 30'000'000'000)
            risc1::fatal("serve_mix: replies did not arrive within 30 s");
        pollOnce();
    }
    closedRng_ = nullptr;
    sink_ = nullptr;
    report_.attempted += r.sent;

    std::vector<double> perSecond;
    std::size_t i = 0;
    for (std::int64_t w = start; w + 1'000'000'000 <= closedUntilNs_;
         w += 1'000'000'000) {
        std::size_t n = 0;
        for (; i < r.doneNs.size() && r.doneNs[i] < w + 1'000'000'000; ++i)
            n += r.doneNs[i] >= w;
        perSecond.push_back(double(n));
    }
    return median(perSecond);
}

void
Rig::checkSessions()
{
    for (Session &s : sessions_) {
        const JsonValue reply = callSync(
            s.conn, risc1::cat(R"({"cmd":"stats","session":")", s.id,
                               R"("})"));
        ++report_.attempted;
        const JsonValue *result = reply.find("result");
        const JsonValue *stats = result ? result->find("stats") : nullptr;
        if (!reply.boolOr("ok", false) || !stats ||
            stats->u64Or("instructions", ~0ull) != s.expected)
            fail(risc1::cat("serve_mix: session ", s.id,
                            " retired a count other than the ", s.expected,
                            " steps requested"));
    }
}

JsonValue
Rig::telemetry()
{
    std::string raw;
    const JsonValue reply = callSync(0, R"({"cmd":"telemetry"})", &raw);
    // Kept beside the run's other outputs for inspection.
    std::ofstream("serve_mix.telemetry.json") << raw << "\n";
    const JsonValue *registry = reply.find("telemetry");
    if (!reply.boolOr("ok", false) || !registry)
        risc1::fatal("serve_mix: telemetry scrape failed");
    return *registry;
}

void
Rig::stop()
{
    for (Connection &c : conns_)
        if (c.fd >= 0)
            ::close(c.fd);
    conns_.clear();
    if (daemon_ > 0) {
        ::kill(daemon_, SIGTERM);
        int status = 0;
        rusage usage{};
        while (::wait4(daemon_, &status, 0, &usage) < 0 && errno == EINTR) {
        }
        daemonPeakMib_ = double(usage.ru_maxrss) / 1024.0;
        daemon_ = -1;
    }
    if (daemonOut_ >= 0) {
        ::close(daemonOut_);
        daemonOut_ = -1;
    }
    if (pinned_) {
        sched_setaffinity(0, sizeof(allCpus_), &allCpus_);
        pinned_ = false;
    }
}

/** The scraped JSON form of one obs histogram, back as a snapshot. */
risc1::obs::HistogramSnapshot
histogramFromJson(const JsonValue &h)
{
    using risc1::obs::Histogram;
    const auto u64 = [&h](const char *key) {
        return std::uint64_t(h.find(key)->asDouble());
    };
    risc1::obs::HistogramSnapshot snap;
    snap.buckets.resize(Histogram::kBuckets);
    snap.count = u64("count");
    snap.sum = u64("sum");
    snap.min = u64("min");
    snap.max = u64("max");
    for (const JsonValue &b : h.find("buckets")->items())
        snap.buckets[Histogram::bucketIndex(
            std::uint64_t(b.find("lo")->asDouble()))] +=
            std::uint64_t(b.find("count")->asDouble());
    return snap;
}

/** Per-class p99 of the daemon's own command histograms, merged
 *  (command-name classes, as commandClass groups them). */
std::optional<double>
serverClassP99Ms(const JsonValue &telemetry, Class cls,
                 std::size_t &samples)
{
    static const std::map<std::string, Class> kCommands = {
        {"step", kLight}, {"regs", kLight},      {"peek", kLight},
        {"stats", kLight}, {"run", kRunClass},   {"snapshot", kState},
        {"fork", kState}, {"evict", kState},     {"drop", kState},
        {"destroy", kState}};
    const JsonValue *histograms = telemetry.find("histograms");
    if (!histograms)
        return std::nullopt;
    risc1::obs::HistogramSnapshot merged;
    for (const auto &[name, c] : kCommands) {
        const JsonValue *h = histograms->find("cmd." + name + ".ns");
        if (c == cls && h)
            merged.merge(histogramFromJson(*h));
    }
    samples = std::size_t(merged.count);
    if (merged.count == 0)
        return std::nullopt;
    return merged.quantile(0.99) / 1e6;
}

/** sched.* figures from the daemon's telemetry. */
void
schedMetrics(const JsonValue &telemetry, Report &report)
{
    const JsonValue *histograms = telemetry.find("histograms");
    for (const auto &[metric, name] :
         {std::pair<const char *, const char *>{"server.sched_wait_p99_ms",
                                                "sched.queueWait.ns"},
          {"server.sched_turn_p99_ms", "sched.turn.ns"}}) {
        const JsonValue *h = histograms ? histograms->find(name) : nullptr;
        Percentile p;
        if (h) {
            p.value = h->find("p99")->asDouble() / 1e6;
            p.samples = std::size_t(h->find("count")->asDouble());
            p.decided = 0.01 * double(p.samples) >= 10.0;
        }
        report.setPercentile(metric, p, "ms");
    }
}

/** Every server/serve per-layer figure from one traced phase. */
void
serveLayerMetrics(Rig &rig, PhaseResult &traced, const JsonValue &telemetry,
                  Report &report)
{
    for (unsigned c = 0; c < 3; ++c) {
        report.setPercentile(risc1::cat("serve.", kClassNames[c],
                                        "_p99_ms"),
                             percentile(traced.byClass[c], 0.99), "ms");
        // Transport = what the client saw from its send, minus what
        // the daemon timed inside Service::execute, per class.
        std::size_t serverSamples = 0;
        const auto server = serverClassP99Ms(
            telemetry, Class(c), serverSamples);
        Percentile client =
            percentile(traced.sendByCommandClass[c], 0.99);
        client.value -= server.value_or(0.0);
        client.decided = client.decided && server &&
                         0.01 * double(serverSamples) >= 10.0;
        report.setPercentile(risc1::cat("server.transport_p99_ms.",
                                        kClassNames[c]),
                             client, "ms");
    }
    report.setPercentile("serve.late_p99_ms",
                         percentile(traced.lateMs, 0.99), "ms");
    schedMetrics(telemetry, report);
    report.set("server.refused", double(rig.refused()), "count");
}

/**
 * The open-loop rate ladder: the highest rung (rungs 5% apart) whose
 * p99 meets kLimitMs with no growing backlog, bisected between half
 * and all of the closed-loop throughput @p saturated.  Reported as
 * max_rate_rps beside the run's metrics; a ladder that does not
 * resolve within @p budgetMs reports its last passing rung as a lower
 * bound.
 */
void
rateLadder(Rig &rig, double saturated, double budgetMs, Report &report)
{
    const auto rateOf = [](int k) {
        return kBaseRate * std::pow(kRungRatio, double(k));
    };
    const auto rungAtOrBelow = [](double rate) {
        return int(std::floor(std::log(rate / kBaseRate) /
                              std::log(kRungRatio)));
    };
    const auto start = Clock::now();
    std::uint64_t probeSeed = 100;
    std::string ladder;  // "rate:p99" per probe, in probe order
    const auto probe = [&](int k) {
        const double rate = rateOf(k);
        PhaseResult r;
        rig.phase(rate, std::max(0.5, 5000.0 / rate), ++probeSeed, &r);
        report.attempted += r.sent;
        const Percentile p = windowedPercentile(r.all, 0.99);
        // A growing backlog shows as a median that climbs from the
        // probe's first quarter to its last, or as more than a limit's
        // worth of requests still waiting when the schedule ends; a
        // host stall only lifts the tail.
        const std::size_t q = r.all.size() / 4;
        const double firstMs = median({r.all.begin(), r.all.begin() + q});
        const double lastMs = median({r.all.end() - q, r.all.end()});
        const bool backlog =
            lastMs > firstMs + 1.0 ||
            double(r.outstandingAtEnd) > rate * kLimitMs / 1000.0;
        ladder += risc1::cat(ladder.empty() ? "" : " ", std::lround(rate),
                             ":", std::lround(p.value * 100) / 100.0,
                             backlog ? "+backlog" : "");
        return p.decided && p.value <= kLimitMs && !backlog;
    };
    // A rung fails only when a second probe confirms it, so one host
    // stall cannot end the search early.
    const auto passes = [&](int k) { return probe(k) || probe(k); };

    int lo = std::max(0, rungAtOrBelow(saturated / 2));
    int hi = rungAtOrBelow(saturated) + 1;
    bool resolved = passes(lo);
    while (resolved && hi > lo + 1) {
        if (msSince(start) > budgetMs) {
            resolved = false;
            break;
        }
        const int mid = (lo + hi) / 2;
        (passes(mid) ? lo : hi) = mid;
    }
    report.set("max_rate_rps", resolved || lo > 0 ? rateOf(lo) : 0.0,
               "req/s");
    report.facts["ladder"] = ladder;
    report.facts["ladder_resolved"] = resolved ? "yes" : "no";
    report.facts["limit_ms"] = std::to_string(kLimitMs);
}

} // namespace

const std::string &
serveProgramRl()
{
    static const std::string text = kProgram;
    return text;
}

int
runServeMix(const RunConfig &cfg, Report &report, SetupClock &setup)
{
    Rig rig(cfg, report);
    rig.start();
    setup.done();
    if (cfg.setupOnly)
        return 0;

    rig.phase(kMainRate, kWarmupS, 1, nullptr);

    // Fixed-rate phase: the latency metrics.
    PhaseResult main;
    rig.phase(kMainRate, cfg.seconds * (cfg.trace ? 0.4 : 0.45), 2, &main);
    report.attempted += main.sent;
    report.setOpLatencies(main.all);
    for (unsigned c = 0; c < 3; ++c)
        report.setPercentile(risc1::cat("serve.", kClassNames[c],
                                        "_p99_ms"),
                             percentile(main.byClass[c], 0.99), "ms");

    if (cfg.trace) {
        // The same phase again with spans on: the per-layer figures
        // and, against the untraced phase, the tracing overhead.
        Spans traced(true);
        PhaseResult t;
        rig.traceInto(&traced);
        rig.phase(kMainRate, cfg.seconds * 0.4, 3, &t);
        rig.traceInto(nullptr);
        report.attempted += t.sent;
        rig.checkSessions();
        serveLayerMetrics(rig, t, rig.telemetry(), report);
        rig.stop();
        finishTrace(cfg, traced, main.meanMs(), t.meanMs(), report);
        return 0;
    }

    // Closed loop: the saturated completion rate, the throughput
    // metric.  Then the open-loop rate ladder below it.
    const double saturated = rig.saturate(cfg.seconds * 0.3, 4);
    report.set("ops_per_s", saturated, "1/s");
    rateLadder(rig, saturated, cfg.seconds * 1000.0 * 0.25, report);

    rig.checkSessions();
    const JsonValue tel = rig.telemetry();
    const JsonValue *hist = tel.find("histograms");
    const JsonValue *turn = hist ? hist->find("sched.turn.ns") : nullptr;
    const double turnNs = turn ? turn->find("sum")->asDouble() : 0.0;
    report.set("sim_minstr_per_s",
               turnNs > 0 ? double(rig.runsSent() * kServeRunSteps) /
                                (turnNs / 1e9) / 1e6
                          : 0.0,
               "Minstr/s");
    rig.stop();
    report.set("peak_rss_mib", rig.daemonPeakRssMib(), "MiB");
    return 0;
}

void
probeServe(const RunConfig &cfg, Report &report)
{
    Spans traced(true);
    Rig rig(cfg, report);
    rig.start();
    rig.phase(kMainRate, kWarmupS, 1, nullptr);
    PhaseResult t;
    rig.traceInto(&traced);
    rig.phase(kMainRate, 7.0, 2, &t);
    rig.traceInto(nullptr);
    report.attempted += t.sent;
    rig.checkSessions();
    serveLayerMetrics(rig, t, rig.telemetry(), report);
    rig.stop();
}

} // namespace perfbench

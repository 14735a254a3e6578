/**
 * Service-level protocol tests (server/protocol.hh): session
 * lifecycle, quota-sliced runs, TTL eviction with bit-identical
 * restore, fork/snapshot semantics, backpressure, and shutdown
 * draining — all without sockets (the Service is transport-free by
 * design; server/server.cc only moves bytes).
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "common/json_value.hh"
#include "server/protocol.hh"
#include "target/machine_target.hh"
#include "target/registry.hh"
#include "workloads/workloads.hh"

using namespace risc1;
using namespace risc1::server;

namespace {

/** Synchronous driver: execute a command and wait for its reply. */
class Driver
{
  public:
    explicit Driver(Service &service) : service_(service) {}

    JsonValue
    call(const std::string &request)
    {
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        std::string payload;
        service_.execute(request, [&](std::string p) {
            std::lock_guard lock(m);
            payload = std::move(p);
            done = true;
            cv.notify_one();
        });
        std::unique_lock lock(m);
        cv.wait(lock, [&] { return done; });
        return parseJson(payload);
    }

    /** call(), demanding success. */
    JsonValue
    ok(const std::string &request)
    {
        JsonValue v = call(request);
        EXPECT_TRUE(v.boolOr("ok", false))
            << request << " -> " << v.stringOr("error", "?");
        return v;
    }

    /** call(), demanding failure; returns the error message. */
    std::string
    err(const std::string &request)
    {
        JsonValue v = call(request);
        EXPECT_FALSE(v.boolOr("ok", true)) << request;
        return v.stringOr("error", "");
    }

  private:
    Service &service_;
};

ServiceConfig
testConfig(const std::string &tag)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.engineQueue = 8;
    cfg.quota = 1000;
    cfg.spoolDir = "server_test_spool_" + tag;
    cfg.maxSessions = 64;
    return cfg;
}

std::string
createReq(const char *backend)
{
    return std::string("{\"cmd\":\"create\",\"backend\":\"") + backend +
           "\",\"workload\":\"fib_rec\"}";
}

void
cleanupSpool(const ServiceConfig &cfg)
{
    std::error_code ec;
    std::filesystem::remove_all(cfg.spoolDir, ec);
}

} // namespace

TEST(ServerSession, CreateRunDestroy)
{
    const auto cfg = testConfig("crd");
    {
        Service service(cfg);
        Driver d(service);

        const JsonValue created = d.ok(createReq("risc"));
        const std::string id = created.stringOr("session", "");
        ASSERT_FALSE(id.empty());
        EXPECT_GT(created.u64Or("codeBytes", 0), 0u);

        const JsonValue run = d.ok("{\"cmd\":\"run\",\"session\":\"" +
                                   id + "\",\"maxSteps\":100000000}");
        EXPECT_TRUE(run.boolOr("halted", false));
        EXPECT_EQ(run.stringOr("status", ""), "halted");
        EXPECT_GT(run.u64Or("steps", 0), cfg.quota)
            << "fib_rec should need several quota turns";

        d.ok("{\"cmd\":\"destroy\",\"session\":\"" + id + "\"}");
        const std::string msg =
            d.err("{\"cmd\":\"regs\",\"session\":\"" + id + "\"}");
        EXPECT_NE(msg.find("unknown session"), std::string::npos);
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, RunMatchesSingleShotExecution)
{
    // Quota slicing must not change the program's result: the sliced
    // daemon run and a plain Target run retire the same step count
    // and checksum on both backends.
    const auto cfg = testConfig("match");
    {
        Service service(cfg);
        Driver d(service);
        for (const char *backend : {"risc", "vax"}) {
            const std::string id =
                d.ok(createReq(backend)).stringOr("session", "");
            const JsonValue run =
                d.ok("{\"cmd\":\"run\",\"session\":\"" + id +
                     "\",\"maxSteps\":100000000}");

            auto ref = target::makeTarget(backend,
                                          target::TargetOptions{});
            ref->load(target::workloadSource(
                backend, findWorkload("fib_rec")));
            const RunOutcome out = ref->run(100'000'000, true);

            EXPECT_EQ(run.u64Or("steps", 0), out.steps) << backend;
            EXPECT_EQ(run.u64Or("checksum", 0), ref->checksum())
                << backend;
        }
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, OverflowingDivideInClientSourceRunsCleanly)
{
    // INT32_MIN / -1 in client-supplied source is an architectural
    // overflow (V set, quotient 0x80000000).  Were it a host divide it
    // would trap (SIGFPE) and take the whole daemon down.
    const auto cfg = testConfig("divl");
    {
        Service service(cfg);
        Driver d(service);
        const std::string id =
            d.ok("{\"cmd\":\"create\",\"backend\":\"vax\","
                 "\"source\":\"start: movl #0x80000000, r1\\n"
                 "movl #0xffffffff, r2\\ndivl3 r2, r1, r0\\n"
                 "halt\\n\"}")
                .stringOr("session", "");
        ASSERT_FALSE(id.empty());
        const JsonValue run = d.ok("{\"cmd\":\"run\",\"session\":\"" +
                                   id + "\",\"maxSteps\":100}");
        EXPECT_TRUE(run.boolOr("halted", false));
        EXPECT_EQ(run.u64Or("checksum", 0), 0x80000000u);
        d.ok("{\"cmd\":\"ping\"}");
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, NegativeSpaceInClientSourceIsRefused)
{
    // `.space 0 - 4` once became a 4 GiB allocation inside `create`.
    const auto cfg = testConfig("space");
    {
        Service service(cfg);
        Driver d(service);
        d.err("{\"cmd\":\"create\",\"backend\":\"vax\","
              "\"source\":\"start: halt\\n.space 0 - 4\\n\"}");
        EXPECT_EQ(service.sessions().counts().sessions, 0u);
        d.ok("{\"cmd\":\"ping\"}");
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, ImagePastMemoryIsRefusedBeforeAllocating)
{
    // `.space 0xfffffff0` after `.org 0` ends inside the 32-bit address
    // space, so the assembler once allocated all 4 GiB of it before the
    // loader refused the image.  Pass 1 now checks each statement's end
    // against the session's memory (256 KiB by default) and names the
    // line.
    const auto cfg = testConfig("bigspace");
    {
        Service service(cfg);
        Driver d(service);
        for (const char *backend : {"risc", "vax"}) {
            SCOPED_TRACE(backend);
            const std::string create =
                std::string("{\"cmd\":\"create\",\"backend\":\"") +
                backend + "\",\"source\":\"";
            const std::pair<const char *, const char *> cases[] = {
                {".org 0\\nstart: halt\\n.space 0xfffffff0\\n",
                 "line 3: statement ends past 0x3ffff"},
                {"start: halt\\n.space 0xfffffff0\\n",
                 "line 2: statement ends past 0x3ffff"},
                {"start: halt\\n.space 0x1000000\\n",
                 "line 2: statement ends past 0x3ffff"},
            };
            for (const auto &[source, want] : cases) {
                const std::string error = d.err(create + source + "\"}");
                EXPECT_NE(error.find(want), std::string::npos) << error;
            }
            // A smaller session's bound is its own memory size.
            const std::string error = d.err(
                create + "start: halt\\n.space 0x10000\\n\",\"mem\":65536}");
            EXPECT_NE(error.find("line 2: statement ends past 0xffff"),
                      std::string::npos)
                << error;
            EXPECT_EQ(service.sessions().counts().sessions, 0u);
            d.ok("{\"cmd\":\"ping\"}");
        }
        // An image that ends exactly at the last byte still loads.
        d.ok("{\"cmd\":\"create\",\"backend\":\"risc\",\"mem\":65536,"
             "\"source\":\".org 0xfffc\\nstart: halt\\n\"}");
        d.ok("{\"cmd\":\"create\",\"backend\":\"vax\",\"mem\":65536,"
             "\"source\":\".org 0xffff\\nstart: halt\\n\"}");
        EXPECT_EQ(service.sessions().counts().sessions, 2u);
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, StepPeekRegsStats)
{
    const auto cfg = testConfig("sprs");
    {
        Service service(cfg);
        Driver d(service);
        const std::string id =
            d.ok(createReq("risc")).stringOr("session", "");

        const JsonValue step = d.ok("{\"cmd\":\"step\",\"session\":\"" +
                                    id + "\",\"count\":25}");
        EXPECT_EQ(step.u64Or("steps", 0), 25u);

        const JsonValue regs =
            d.ok("{\"cmd\":\"regs\",\"session\":\"" + id + "\"}");
        EXPECT_EQ(regs.find("regs")->items().size(), 32u);

        const JsonValue peek = d.ok("{\"cmd\":\"peek\",\"session\":\"" +
                                    id + "\",\"addr\":0,\"count\":4}");
        EXPECT_EQ(peek.find("words")->items().size(), 4u);

        const JsonValue stats =
            d.ok("{\"cmd\":\"stats\",\"session\":\"" + id + "\"}");
        EXPECT_EQ(
            stats.find("result")->find("stats")->u64Or("instructions", 0),
            25u);
        EXPECT_GE(stats.find("metrics")->u64Or("commands", 0), 2u);
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, EvictedSessionIsBitIdenticalToTwin)
{
    // The acceptance test for transparent eviction: run a session and
    // an identical twin partway, force-evict one (snapshot → spool →
    // drop the Target), then compare *every* field of the two machine
    // states after the transparent restore — and their final results.
    for (const char *backend : {"risc", "vax"}) {
        const auto cfg = testConfig(std::string("evict_") + backend);
        {
            Service service(cfg);
            Driver d(service);
            const std::string a =
                d.ok(createReq(backend)).stringOr("session", "");
            const std::string b =
                d.ok(createReq(backend)).stringOr("session", "");

            for (const auto &id : {a, b})
                d.ok("{\"cmd\":\"step\",\"session\":\"" + id +
                     "\",\"count\":1234}");

            // Force-evict a; leave b resident.
            d.ok("{\"cmd\":\"evict\",\"session\":\"" + a + "\"}");
            EXPECT_EQ(service.sessions().counts().evicted, 1u);
            EXPECT_TRUE(std::filesystem::exists(
                std::filesystem::path(cfg.spoolDir) / (a + ".snap")));

            // Any command transparently restores; use regs, then
            // compare the full snapshots underneath.
            d.ok("{\"cmd\":\"regs\",\"session\":\"" + a + "\"}");
            EXPECT_EQ(service.sessions().counts().evicted, 0u);
            EXPECT_EQ(service.sessions().counts().restores, 1u);

            const auto sa = service.sessions().find(a);
            const auto sb = service.sessions().find(b);
            ASSERT_TRUE(sa && sb);
            const auto snapA = sa->target->snapshot();
            const auto snapB = sb->target->snapshot();
            if (std::string(backend) == "risc") {
                const auto &ra =
                    dynamic_cast<const target::RiscTargetSnapshot &>(
                        *snapA);
                const auto &rb =
                    dynamic_cast<const target::RiscTargetSnapshot &>(
                        *snapB);
                EXPECT_TRUE(ra.machineSnapshot() == rb.machineSnapshot())
                    << "restored state diverged from unevicted twin";
            } else {
                const auto &va =
                    dynamic_cast<const target::VaxTargetSnapshot &>(
                        *snapA);
                const auto &vb =
                    dynamic_cast<const target::VaxTargetSnapshot &>(
                        *snapB);
                EXPECT_TRUE(va.machineSnapshot() == vb.machineSnapshot())
                    << "restored state diverged from unevicted twin";
            }

            // And both finish with identical results.
            const JsonValue ra = d.ok("{\"cmd\":\"run\",\"session\":\"" +
                                      a + "\",\"maxSteps\":100000000}");
            const JsonValue rb = d.ok("{\"cmd\":\"run\",\"session\":\"" +
                                      b + "\",\"maxSteps\":100000000}");
            EXPECT_EQ(ra.u64Or("steps", 1), rb.u64Or("steps", 2));
            EXPECT_EQ(ra.u64Or("checksum", 1), rb.u64Or("checksum", 2));
        }
        cleanupSpool(cfg);
    }
}

TEST(ServerSession, TtlZeroEvictsOnSweep)
{
    auto cfg = testConfig("ttl");
    cfg.ttlMs = 0; // evict as soon as a sweep sees an idle session
    {
        Service service(cfg);
        Driver d(service);
        const std::string id =
            d.ok(createReq("risc")).stringOr("session", "");
        d.ok("{\"cmd\":\"step\",\"session\":\"" + id +
             "\",\"count\":100}");

        service.sweepNow();
        EXPECT_EQ(service.sessions().counts().evicted, 1u);
        EXPECT_EQ(service.sessions().counts().resident, 0u);

        // The next command transparently restores and still works.
        const JsonValue run = d.ok("{\"cmd\":\"run\",\"session\":\"" +
                                   id + "\",\"maxSteps\":100000000}");
        EXPECT_TRUE(run.boolOr("halted", false));
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, SnapshotForkAndDrop)
{
    const auto cfg = testConfig("fork");
    {
        Service service(cfg);
        Driver d(service);
        const std::string id =
            d.ok(createReq("risc")).stringOr("session", "");
        d.ok("{\"cmd\":\"step\",\"session\":\"" + id +
             "\",\"count\":500}");

        const std::string snap =
            d.ok("{\"cmd\":\"snapshot\",\"session\":\"" + id + "\"}")
                .stringOr("snapshot", "");
        ASSERT_FALSE(snap.empty());

        // Fork from the stored snapshot and from the live session;
        // all three must finish identically.
        const std::string f1 =
            d.ok("{\"cmd\":\"fork\",\"snapshot\":\"" + snap + "\"}")
                .stringOr("session", "");
        const std::string f2 =
            d.ok("{\"cmd\":\"fork\",\"session\":\"" + id + "\"}")
                .stringOr("session", "");

        std::uint64_t checksum = 0;
        bool first = true;
        for (const auto &s : {id, f1, f2}) {
            const JsonValue run = d.ok("{\"cmd\":\"run\",\"session\":\"" +
                                       s + "\",\"maxSteps\":100000000}");
            if (first) {
                checksum = run.u64Or("checksum", 0);
                first = false;
            } else {
                EXPECT_EQ(run.u64Or("checksum", 1), checksum);
            }
        }

        d.ok("{\"cmd\":\"drop\",\"snapshot\":\"" + snap + "\"}");
        EXPECT_NE(d.err("{\"cmd\":\"fork\",\"snapshot\":\"" + snap +
                        "\"}")
                      .find("unknown snapshot"),
                  std::string::npos);
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, ConcurrentRunsAreFairAndIsolated)
{
    // Many sessions, two workers: every run completes with the right
    // checksum even though turns interleave round-robin.
    const auto cfg = testConfig("fair");
    {
        Service service(cfg);
        Driver d(service);
        constexpr int kSessions = 12;

        std::vector<std::string> ids;
        for (int i = 0; i < kSessions; ++i)
            ids.push_back(d.ok(createReq(i % 2 == 0 ? "risc" : "vax"))
                              .stringOr("session", ""));

        // Fire all runs without waiting, then collect.
        std::mutex m;
        std::condition_variable cv;
        int done = 0;
        std::vector<JsonValue> results(ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i)
            service.execute("{\"cmd\":\"run\",\"session\":\"" + ids[i] +
                                "\",\"maxSteps\":100000000}",
                            [&, i](std::string payload) {
                                std::lock_guard lock(m);
                                results[i] = parseJson(payload);
                                ++done;
                                cv.notify_one();
                            });
        {
            std::unique_lock lock(m);
            cv.wait(lock, [&] { return done == int(ids.size()); });
        }
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_TRUE(results[i].boolOr("ok", false)) << i;
            EXPECT_TRUE(results[i].boolOr("halted", false)) << i;
        }
        // Checksums agree per backend.
        EXPECT_EQ(results[0].u64Or("checksum", 1),
                  results[2].u64Or("checksum", 2));
        EXPECT_EQ(results[1].u64Or("checksum", 1),
                  results[3].u64Or("checksum", 2));
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, MutationsRefusedDuringRun)
{
    auto cfg = testConfig("busy");
    cfg.workers = 1;
    {
        Service service(cfg);
        Driver d(service);
        const std::string id =
            d.ok(createReq("risc")).stringOr("session", "");

        // Park the single worker on a latch so the run stays pending —
        // runActive is set synchronously when the run is accepted, so
        // the refusals below are deterministic, not a race against the
        // run finishing first.
        std::mutex latchM;
        std::condition_variable latchCv;
        bool release = false;
        service.engine().submit([&] {
            std::unique_lock lock(latchM);
            latchCv.wait(lock, [&] { return release; });
        });

        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        service.execute("{\"cmd\":\"run\",\"session\":\"" + id +
                            "\",\"maxSteps\":100000000}",
                        [&](std::string) {
                            std::lock_guard lock(m);
                            done = true;
                            cv.notify_one();
                        });

        // While the run is active, a second run and mutating commands
        // are refused; destroy too.
        const std::string msg = d.err("{\"cmd\":\"run\",\"session\":\"" +
                                      id + "\"}");
        EXPECT_NE(msg.find("run in progress"), std::string::npos);
        d.err("{\"cmd\":\"step\",\"session\":\"" + id +
              "\",\"count\":1}");
        d.err("{\"cmd\":\"destroy\",\"session\":\"" + id + "\"}");
        d.err("{\"cmd\":\"evict\",\"session\":\"" + id + "\"}");

        {
            std::lock_guard lock(latchM);
            release = true;
        }
        latchCv.notify_all();
        std::unique_lock lock(m);
        cv.wait(lock, [&] { return done; });
        d.ok("{\"cmd\":\"destroy\",\"session\":\"" + id + "\"}");
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, EveryCommandPinnedAgainstSessionState)
{
    // One row per command: the request (without "session"), then the
    // reply with no session, with an unknown session id, and with the
    // id of a session whose run is parked on a latched worker.
    // nullptr = ok; otherwise the error must contain the text.
    struct Pin
    {
        const char *cmd;
        const char *args;
        const char *noSession;
        const char *unknownSession;
        const char *midRun;
    };
    constexpr const char *missing = "request missing 'session'";
    constexpr const char *unknown = "unknown session 's999'";
    constexpr const char *busy = "run in progress";
    const Pin pins[] = {
        {"ping", "", nullptr, nullptr, nullptr},
        {"info", "", nullptr, nullptr, nullptr},
        {"telemetry", "", nullptr, nullptr, nullptr},
        {"create", ",\"workload\":\"fib_rec\"", nullptr, nullptr,
         nullptr},
        {"destroy", "", missing, unknown, busy},
        {"step", ",\"count\":1", missing, unknown, busy},
        {"run", ",\"maxSteps\":100", missing, unknown, busy},
        {"peek", ",\"addr\":0", missing, unknown, nullptr},
        {"regs", "", missing, unknown, nullptr},
        {"stats", "", missing, unknown, nullptr},
        {"snapshot", "", missing, unknown, busy},
        {"fork", "",
         "fork needs exactly one of 'session' or 'snapshot'", unknown,
         busy},
        {"evict", "", missing, unknown, busy},
        {"drop", ",\"snapshot\":\"k999\"", "unknown snapshot 'k999'",
         "unknown snapshot 'k999'", "unknown snapshot 'k999'"},
    };

    auto cfg = testConfig("pins");
    cfg.workers = 1;
    {
        Service service(cfg);
        Driver d(service);
        const std::string id =
            d.ok(createReq("risc")).stringOr("session", "");

        const auto expect = [&d](const std::string &request,
                                 const char *error) {
            if (error == nullptr) {
                d.ok(request);
                return;
            }
            const std::string msg = d.err(request);
            EXPECT_NE(msg.find(error), std::string::npos)
                << request << " -> " << msg;
        };
        const auto request = [](const Pin &pin, const std::string &sid) {
            std::string r = std::string("{\"cmd\":\"") + pin.cmd + "\"";
            if (!sid.empty())
                r += ",\"session\":\"" + sid + "\"";
            return r + pin.args + "}";
        };
        for (const Pin &pin : pins) {
            expect(request(pin, ""), pin.noSession);
            expect(request(pin, "s999"), pin.unknownSession);
        }

        // Park the single worker so the run below stays active while
        // every command is tried against its session.
        std::mutex latchM;
        std::condition_variable latchCv;
        bool release = false;
        service.engine().submit([&] {
            std::unique_lock lock(latchM);
            latchCv.wait(lock, [&] { return release; });
        });
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        std::string runReply;
        service.execute("{\"cmd\":\"run\",\"session\":\"" + id +
                            "\",\"maxSteps\":100000000}",
                        [&](std::string p) {
                            std::lock_guard lock(m);
                            runReply = std::move(p);
                            done = true;
                            cv.notify_one();
                        });
        for (const Pin &pin : pins)
            expect(request(pin, id), pin.midRun);

        {
            std::lock_guard lock(latchM);
            release = true;
        }
        latchCv.notify_all();
        {
            std::unique_lock lock(m);
            cv.wait(lock, [&] { return done; });
        }
        EXPECT_TRUE(parseJson(runReply).boolOr("ok", false)) << runReply;

        // One latency histogram per command, plus cmd.other.ns.
        const JsonValue t = d.ok("{\"cmd\":\"telemetry\"}");
        const JsonValue *hists = t.find("telemetry")->find("histograms");
        ASSERT_NE(hists, nullptr);
        std::size_t cmdHists = 0;
        for (const auto &[name, h] : hists->members())
            if (name.rfind("cmd.", 0) == 0 && name.size() > 7 &&
                name.compare(name.size() - 3, 3, ".ns") == 0)
                ++cmdHists;
        EXPECT_EQ(cmdHists, 15u);
        for (const Pin &pin : pins)
            EXPECT_NE(hists->find(std::string("cmd.") + pin.cmd + ".ns"),
                      nullptr)
                << pin.cmd;
        EXPECT_NE(hists->find("cmd.other.ns"), nullptr);
        d.ok("{\"cmd\":\"destroy\",\"session\":\"" + id + "\"}");
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, BackpressureRefusesExcessRuns)
{
    auto cfg = testConfig("bp");
    cfg.maxPendingRuns = 2;
    cfg.quota = 100;
    cfg.workers = 1;
    {
        Service service(cfg);
        Driver d(service);
        std::vector<std::string> ids;
        for (int i = 0; i < 3; ++i)
            ids.push_back(
                d.ok(createReq("risc")).stringOr("session", ""));

        // Park the worker so both accepted runs stay pending and the
        // third refusal is deterministic (see MutationsRefusedDuringRun).
        std::mutex latchM;
        std::condition_variable latchCv;
        bool release = false;
        service.engine().submit([&] {
            std::unique_lock lock(latchM);
            latchCv.wait(lock, [&] { return release; });
        });

        std::mutex m;
        std::condition_variable cv;
        int done = 0;
        for (int i = 0; i < 2; ++i)
            service.execute("{\"cmd\":\"run\",\"session\":\"" + ids[i] +
                                "\",\"maxSteps\":100000000}",
                            [&](std::string) {
                                std::lock_guard lock(m);
                                ++done;
                                cv.notify_one();
                            });
        const std::string msg = d.err("{\"cmd\":\"run\",\"session\":\"" +
                                      ids[2] + "\"}");
        EXPECT_NE(msg.find("overloaded"), std::string::npos);

        {
            std::lock_guard lock(latchM);
            release = true;
        }
        latchCv.notify_all();
        std::unique_lock lock(m);
        cv.wait(lock, [&] { return done == 2; });
        // Capacity freed: the refused session can run now.
        lock.unlock();
        d.ok("{\"cmd\":\"run\",\"session\":\"" + ids[2] +
             "\",\"maxSteps\":100000000}");
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, BadRequestsAreErrorsNotCrashes)
{
    const auto cfg = testConfig("bad");
    {
        Service service(cfg);
        Driver d(service);
        EXPECT_NE(d.err("not json at all").find("byte"),
                  std::string::npos);
        d.err("[1,2,3]");
        d.err("{}");
        EXPECT_NE(d.err("{\"cmd\":\"frobnicate\"}")
                      .find("unknown command"),
                  std::string::npos);
        d.err("{\"cmd\":\"step\"}");
        d.err("{\"cmd\":\"step\",\"session\":\"s999\"}");
        d.err("{\"cmd\":\"create\",\"backend\":\"pdp11\","
              "\"workload\":\"fib_rec\"}");
        d.err("{\"cmd\":\"create\",\"workload\":\"no_such\"}");
        d.err("{\"cmd\":\"create\"}"); // neither workload nor source
        d.err("{\"cmd\":\"create\",\"workload\":\"fib_rec\","
              "\"mem\":12345}"); // unaligned
        d.err("{\"cmd\":\"create\",\"workload\":\"fib_rec\","
              "\"source\":\"halt\"}"); // both

        // Inline source works, and bad asm is a clean error.
        const JsonValue v = d.ok(
            "{\"cmd\":\"create\",\"source\":\"start: add r0, r0, r1\\n"
            "halt\\n\"}");
        EXPECT_FALSE(v.stringOr("session", "").empty());
        d.err("{\"cmd\":\"create\",\"source\":\"bogus instr\\n\"}");

        // peek bounds.
        const std::string id = v.stringOr("session", "");
        d.err("{\"cmd\":\"peek\",\"session\":\"" + id + "\"}");
        d.err("{\"cmd\":\"peek\",\"session\":\"" + id +
              "\",\"addr\":3}"); // misaligned
        d.err("{\"cmd\":\"peek\",\"session\":\"" + id +
              "\",\"addr\":0,\"count\":100000}");
        d.err("{\"cmd\":\"peek\",\"session\":\"" + id +
              "\",\"addr\":4294967292,\"count\":2}");
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, OutOfRangeWindowCountIsRefused)
{
    const auto cfg = testConfig("windows");
    {
        Service service(cfg);
        Driver d(service);
        // 2^28 windows once wrapped the register file to 10 registers
        // (regs read out of bounds, run crashed the daemon); 2^32 + 8
        // was narrowed to 8.
        EXPECT_NE(d.err("{\"cmd\":\"create\",\"workload\":\"fib_rec\","
                        "\"windows\":268435456}")
                      .find("windows"),
                  std::string::npos);
        EXPECT_NE(d.err("{\"cmd\":\"create\",\"workload\":\"fib_rec\","
                        "\"windows\":4294967304}")
                      .find("32 bits"),
                  std::string::npos);
        EXPECT_EQ(d.ok("{\"cmd\":\"info\"}").find("sessions")->u64Or(
                      "alive", 1),
                  0u);

        // The daemon still serves, and an in-range count works.
        const std::string id =
            d.ok("{\"cmd\":\"create\",\"workload\":\"fib_rec\","
                 "\"windows\":4}")
                .stringOr("session", "");
        EXPECT_TRUE(d.ok("{\"cmd\":\"run\",\"session\":\"" + id +
                         "\",\"maxSteps\":100000000}")
                        .boolOr("halted", false));
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, InfoReportsCounts)
{
    const auto cfg = testConfig("info");
    {
        Service service(cfg);
        Driver d(service);
        d.ok(createReq("risc"));
        d.ok(createReq("vax"));
        const JsonValue info = d.ok("{\"cmd\":\"info\"}");
        EXPECT_EQ(info.find("sessions")->u64Or("alive", 0), 2u);
        EXPECT_EQ(info.find("sessions")->u64Or("resident", 0), 2u);
        EXPECT_EQ(info.u64Or("workers", 0), 2u);
        EXPECT_EQ(info.u64Or("protocolVersion", 0), 1u);

        // Observability additions: uptime, command totals, and build
        // identity (docs/OBSERVABILITY.md).
        ASSERT_NE(info.find("uptimeMs"), nullptr);
        const JsonValue *commands = info.find("commands");
        ASSERT_NE(commands, nullptr);
        // create + create + this info = 3 requests so far.
        EXPECT_EQ(commands->u64Or("total", 0), 3u);
        EXPECT_EQ(commands->u64Or("errors", 1), 0u);
        EXPECT_GT(commands->u64Or("bytesIn", 0), 0u);
        EXPECT_GT(commands->u64Or("bytesOut", 0), 0u);
        const JsonValue *build = info.find("build");
        ASSERT_NE(build, nullptr);
        EXPECT_EQ(build->stringOr("name", ""), kServerName);
        EXPECT_EQ(build->stringOr("version", ""), kServerVersion);
        EXPECT_FALSE(build->stringOr("compiler", "").empty());

        // Errors are counted too: one bad command, then re-check.
        d.err("{\"cmd\":\"frobnicate\"}");
        const JsonValue again = d.ok("{\"cmd\":\"info\"}");
        EXPECT_EQ(again.find("commands")->u64Or("total", 0), 5u);
        EXPECT_EQ(again.find("commands")->u64Or("errors", 0), 1u);
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, SessionMetricsPinnedAcrossLifecycle)
{
    // Pin the per-session lifetime counters through every lifecycle
    // transition: the exact command count, step total, and — the part
    // eviction must not break — that a spool round-trip preserves all
    // of them.
    const auto cfg = testConfig("metrics");
    {
        Service service(cfg);
        Driver d(service);
        const std::string id =
            d.ok(createReq("risc")).stringOr("session", ""); // cmd 1
        d.ok("{\"cmd\":\"step\",\"session\":\"" + id +
             "\",\"count\":100}");                           // cmd 2
        d.ok("{\"cmd\":\"evict\",\"session\":\"" + id + "\"}"); // cmd 3
        d.ok("{\"cmd\":\"regs\",\"session\":\"" + id + "\"}");  // cmd 4
        const JsonValue stats =
            d.ok("{\"cmd\":\"stats\",\"session\":\"" + id + "\"}");
        const JsonValue *m = stats.find("metrics");
        ASSERT_NE(m, nullptr);
        // stats touches before rendering, so it counts itself: 5.
        EXPECT_EQ(m->u64Or("commands", 0), 5u);
        EXPECT_EQ(m->u64Or("steps", 0), 100u);
        EXPECT_EQ(m->u64Or("evictions", 0), 1u);
        EXPECT_EQ(m->u64Or("restores", 0), 1u)
            << "regs after evict must transparently restore";
        EXPECT_EQ(m->u64Or("turns", 1), 0u);

        d.ok("{\"cmd\":\"run\",\"session\":\"" + id +
             "\",\"maxSteps\":100000000}"); // cmd 6
        const JsonValue after =
            d.ok("{\"cmd\":\"stats\",\"session\":\"" + id + "\"}");
        m = after.find("metrics");
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->u64Or("commands", 0), 7u);
        EXPECT_GE(m->u64Or("turns", 0), 1u);
        EXPECT_GT(m->u64Or("steps", 0), 100u);
        // Lifetime counters survived the evict/restore round-trip.
        EXPECT_EQ(m->u64Or("evictions", 0), 1u);
        EXPECT_EQ(m->u64Or("restores", 0), 1u);
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, TelemetryExportsRegistry)
{
    const auto cfg = testConfig("telemetry");
    {
        Service service(cfg);
        Driver d(service);
        const std::string id =
            d.ok(createReq("risc")).stringOr("session", "");
        d.ok("{\"cmd\":\"step\",\"session\":\"" + id +
             "\",\"count\":10}");
        d.ok("{\"cmd\":\"run\",\"session\":\"" + id +
             "\",\"maxSteps\":100000000}");

        const JsonValue t = d.ok("{\"cmd\":\"telemetry\"}");
        ASSERT_NE(t.find("uptimeMs"), nullptr);
        const JsonValue *reg = t.find("telemetry");
        ASSERT_NE(reg, nullptr);

        const JsonValue *counters = reg->find("counters");
        ASSERT_NE(counters, nullptr);
        // create + step + run + this telemetry = 4 requests.
        EXPECT_EQ(counters->u64Or("server.requests", 0), 4u);
        EXPECT_EQ(counters->u64Or("server.errors", 1), 0u);
        EXPECT_GT(counters->u64Or("server.bytesIn", 0), 0u);
        EXPECT_GE(counters->u64Or("sched.turns", 0), 1u);

        const JsonValue *gauges = reg->find("gauges");
        ASSERT_NE(gauges, nullptr);
        EXPECT_EQ(gauges->find("sessions.alive")->asDouble(), 1.0);
        EXPECT_GT(gauges->find("fleet.residentBytes")->asDouble(), 0.0);

        const JsonValue *hists = reg->find("histograms");
        ASSERT_NE(hists, nullptr);
        const JsonValue *stepHist = hists->find("cmd.step.ns");
        ASSERT_NE(stepHist, nullptr);
        EXPECT_EQ(stepHist->u64Or("count", 0), 1u);
        EXPECT_GT(stepHist->find("p99")->asDouble(), 0.0);
        const JsonValue *runHist = hists->find("cmd.run.ns");
        ASSERT_NE(runHist, nullptr);
        EXPECT_EQ(runHist->u64Or("count", 0), 1u);
        EXPECT_GE(hists->find("sched.turn.ns")->u64Or("count", 0), 1u);
        EXPECT_GE(hists->find("sched.queueWait.ns")->u64Or("count", 0),
                  1u);

        // Prometheus exposition over the same command.
        const JsonValue p =
            d.ok("{\"cmd\":\"telemetry\",\"format\":\"prometheus\"}");
        const std::string text = p.stringOr("exposition", "");
        EXPECT_NE(text.find("# TYPE riscserved_server_requests_total "
                            "counter"),
                  std::string::npos);
        EXPECT_NE(text.find("riscserved_cmd_step_ns_count 1"),
                  std::string::npos);

        d.err("{\"cmd\":\"telemetry\",\"format\":\"xml\"}");
    }
    cleanupSpool(cfg);
}

TEST(ServerSession, EventLogRecordsLifecycleAndSlowCommands)
{
    auto cfg = testConfig("events");
    cfg.eventLogPath = cfg.spoolDir + "_events.jsonl";
    cfg.slowMs = 0.000001; // everything is "slow": every command logs
    {
        Service service(cfg);
        Driver d(service);
        const std::string id =
            d.ok(createReq("risc")).stringOr("session", "");
        d.ok("{\"cmd\":\"evict\",\"session\":\"" + id + "\"}");
        d.ok("{\"cmd\":\"regs\",\"session\":\"" + id + "\"}");
        d.ok("{\"cmd\":\"destroy\",\"session\":\"" + id + "\"}");
        service.stop();
    }

    // Every line is standalone JSON with ts/level/event; the expected
    // lifecycle events all appear, in order for the session ones.
    std::ifstream in(cfg.eventLogPath);
    ASSERT_TRUE(in.is_open());
    std::vector<std::string> events;
    std::string line;
    std::size_t slow = 0;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        const JsonValue v = parseJson(line);
        EXPECT_GT(v.find("ts")->asDouble(), 0.0);
        EXPECT_FALSE(v.stringOr("level", "").empty());
        const std::string event = v.stringOr("event", "");
        ASSERT_FALSE(event.empty());
        if (event == "slow.command") {
            ++slow;
            EXPECT_EQ(v.stringOr("level", ""), "warn");
            EXPECT_FALSE(v.stringOr("cmd", "").empty());
            EXPECT_FALSE(v.stringOr("request", "").empty());
            EXPECT_GE(v.find("ms")->asDouble(), 0.0);
        } else {
            events.push_back(event);
        }
    }
    EXPECT_GE(slow, 4u) << "with slowMs ~ 0 every command is slow";
    const auto at = [&](const char *name) {
        return std::find(events.begin(), events.end(), name);
    };
    ASSERT_NE(at("server.start"), events.end());
    ASSERT_NE(at("session.create"), events.end());
    ASSERT_NE(at("session.evict"), events.end());
    ASSERT_NE(at("session.restore"), events.end());
    ASSERT_NE(at("session.destroy"), events.end());
    ASSERT_NE(at("server.stop"), events.end());
    EXPECT_LT(at("session.create"), at("session.evict"));
    EXPECT_LT(at("session.evict"), at("session.restore"));
    EXPECT_LT(at("session.restore"), at("session.destroy"));
    EXPECT_LT(at("session.destroy"), at("server.stop"));

    std::error_code ec;
    std::filesystem::remove(cfg.eventLogPath, ec);
    cleanupSpool(cfg);
}

TEST(ServerSession, StopDrainsPendingRuns)
{
    auto cfg = testConfig("stop");
    cfg.workers = 1;
    cfg.quota = 50; // lots of turns → reliably in flight at stop()
    {
        Service service(cfg);
        Driver d(service);
        std::vector<std::string> ids;
        for (int i = 0; i < 4; ++i)
            ids.push_back(
                d.ok(createReq("risc")).stringOr("session", ""));

        std::mutex m;
        std::condition_variable cv;
        int replies = 0;
        for (const auto &id : ids)
            service.execute("{\"cmd\":\"run\",\"session\":\"" + id +
                                "\",\"maxSteps\":100000000}",
                            [&](std::string) {
                                std::lock_guard lock(m);
                                ++replies;
                                cv.notify_one();
                            });
        service.stop();
        // Every accepted run must have received exactly one reply
        // (success or "server shutting down") by the time stop()
        // returns.
        std::lock_guard lock(m);
        EXPECT_EQ(replies, 4);
    }
    cleanupSpool(cfg);
}

/**
 * @file
 * Shared pieces of the benchmark harness: the clock, fail-closed
 * percentiles, the simulated-statistics digest, the in-memory span
 * recorder, and the result sink every workload reports through.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two clock readings. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

/** steady_clock reading in ns — CLOCK_MONOTONIC, so comparable with
 *  Python's time.monotonic_ns() in run.py. */
inline std::int64_t
monoNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

/** @p v as eight hex digits. */
std::string hex32(std::uint32_t v);

/** FNV-1a fold of one 32-bit word (the riscdiff digest's flavour). */
inline std::uint32_t
fold(std::uint32_t h, std::uint32_t v)
{
    for (int b = 0; b < 4; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 16777619u;
    }
    return h;
}

inline std::uint32_t
fold64(std::uint32_t h, std::uint64_t v)
{
    return fold(fold(h, std::uint32_t(v)), std::uint32_t(v >> 32));
}

inline constexpr std::uint32_t kFnvBasis = 2166136261u;

/**
 * A percentile that refuses to pass vacuously: it is decided only
 * when at least ten samples lie beyond it.
 */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0;
    bool decided = false;
};

/** Percentile @p p (0..1) of @p samples (sorted in place). */
Percentile percentile(std::vector<double> &samples, double p);

/**
 * Percentile @p p of time-ordered @p samples, robust to a stalled
 * stretch: the median of the percentiles of up to ten consecutive windows,
 * each holding at least ten samples beyond @p p.  Undecided when not
 * even one such window fits.  Only the serve_mix rate ladder uses it,
 * to decide a rung; every reported percentile is pooled.
 */
Percentile windowedPercentile(const std::vector<double> &samples, double p);

/** Median of @p values (sorted in place); 0 when empty. */
double median(std::vector<double> values);

/** CPU time the calling thread has consumed, ms. */
double threadCpuMs();

/** Peak resident set of this process (VmHWM), MiB. */
double peakRssMib();

/** Current resident set of this process (VmRSS), bytes. */
std::uint64_t rssBytes();

/**
 * In-memory span recorder.  Spans carry their name, layer (the
 * module the call enters), start, end, parent span and request id;
 * nothing is written until the run ends.  Disabled recorders cost one
 * branch per call site.
 */
class Spans
{
  public:
    explicit Spans(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when disabled). */
    std::uint64_t open(const char *name, const char *layer,
                       std::uint64_t parent, std::uint64_t request,
                       unsigned lane = 0);

    /** Close span @p id (no-op for id 0). */
    void close(std::uint64_t id);

    /** Add an already-timed span (e.g. from engine job metrics). */
    std::uint64_t add(const char *name, const char *layer,
                      std::uint64_t parent, std::uint64_t request,
                      unsigned lane, Clock::time_point start,
                      Clock::time_point end);

    /** Self time per layer, ms: a span's duration minus the part its
     *  children cover. */
    std::map<std::string, double> selfMsByLayer() const;

    std::size_t size() const;

    /** Write every span as a Chrome trace through obs::chromeTraceJson. */
    void writeChromeTrace(const std::string &path,
                          const std::string &process) const;

  private:
    struct Record
    {
        const char *name;
        const char *layer;
        std::uint64_t parent;
        std::uint64_t request;
        unsigned lane;
        Clock::time_point start, end;
    };

    bool enabled_;
    Clock::time_point zero_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Record> records_;  // span id = index + 1
};

/** RAII span scope. */
class Scope
{
  public:
    Scope(Spans &spans, const char *name, const char *layer,
          std::uint64_t parent = 0, std::uint64_t request = 0,
          unsigned lane = 0)
        : spans_(spans),
          id_(spans.enabled()
                  ? spans.open(name, layer, parent, request, lane)
                  : 0)
    {
    }
    ~Scope() { spans_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Spans &spans_;
    std::uint64_t id_;
};

/**
 * What one harness invocation reports: named metrics with units, the
 * attempted/failed op counts, and correctness checks.  main() writes
 * it as a JSON file run.py reads.
 */
struct Report
{
    struct Metric
    {
        double value = 0.0;
        std::string unit;
        std::size_t samples = 0;  ///< percentiles: the sample count
    };
    std::map<std::string, Metric> metrics;
    std::map<std::string, std::string> facts;  ///< digests, counts
    std::vector<std::string> errors;           ///< failed checks
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = {value, unit, 0};
    }

    /** Record a percentile; an undecided one is a failed check. */
    void setPercentile(const std::string &name, const Percentile &p,
                       const std::string &unit);

    /** op_p50_ms, op_p90_ms and op_p99_ms of the op latencies,
     *  pooled over the whole run. */
    void setOpLatencies(std::vector<double> ms);

    void check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
    }

    std::string json() const;
};

/** Parameters common to every workload. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    unsigned nproc = 1;
    std::string daemonPath;  ///< riscserved binary
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH

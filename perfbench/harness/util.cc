#include "util.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "obs/registry.hh"
#include "obs/timeline.hh"

namespace perfbench {

Percentile
percentile(std::vector<double> &samples, double p)
{
    std::sort(samples.begin(), samples.end());
    Percentile out;
    out.samples = samples.size();
    out.value = risc1::obs::percentileSorted(samples, p);
    // Samples strictly beyond the percentile's rank.
    const double beyond = (1.0 - p) * double(samples.size());
    out.decided = beyond >= 10.0;
    return out;
}

Percentile
windowedPercentile(const std::vector<double> &samples, double p)
{
    const auto perWindow = std::size_t(std::ceil(10.0 / (1.0 - p)));
    const std::size_t windows =
        std::min<std::size_t>(10, samples.size() / perWindow);
    if (windows == 0) {
        std::vector<double> all = samples;
        return percentile(all, p);
    }
    std::vector<double> values;
    const std::size_t size = samples.size() / windows;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto first = samples.begin() + std::ptrdiff_t(w * size);
        std::vector<double> window(
            first, w + 1 == windows ? samples.end()
                                    : first + std::ptrdiff_t(size));
        values.push_back(percentile(window, p).value);
    }
    Percentile out;
    out.value = median(values);
    out.samples = samples.size();
    out.decided = true;
    return out;
}

std::string
hex32(std::uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return risc1::obs::percentileSorted(values, 0.5);
}

namespace {

double
statusKib(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string prefix = std::string(key) + ":";
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) == 0) {
            std::istringstream fields(line.substr(prefix.size()));
            double kib = 0;
            fields >> kib;
            return kib;
        }
    }
    return 0.0;
}

} // namespace

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) / 1e6;
}

double
peakRssMib()
{
    return statusKib("VmHWM") / 1024.0;
}

std::uint64_t
rssBytes()
{
    return std::uint64_t(statusKib("VmRSS") * 1024.0);
}

std::uint64_t
Spans::open(const char *name, const char *layer, std::uint64_t parent,
            std::uint64_t request, unsigned lane)
{
    if (!enabled_)
        return 0;
    const auto now = Clock::now();
    std::lock_guard lock(mutex_);
    records_.push_back({name, layer, parent, request, lane, now, now});
    return records_.size();
}

void
Spans::close(std::uint64_t id)
{
    if (id == 0)
        return;
    const auto now = Clock::now();
    std::lock_guard lock(mutex_);
    records_[id - 1].end = now;
}

std::uint64_t
Spans::add(const char *name, const char *layer, std::uint64_t parent,
           std::uint64_t request, unsigned lane, Clock::time_point start,
           Clock::time_point end)
{
    if (!enabled_)
        return 0;
    std::lock_guard lock(mutex_);
    records_.push_back({name, layer, parent, request, lane, start, end});
    return records_.size();
}

std::size_t
Spans::size() const
{
    std::lock_guard lock(mutex_);
    return records_.size();
}

std::map<std::string, double>
Spans::selfMsByLayer() const
{
    std::lock_guard lock(mutex_);
    std::vector<std::vector<std::size_t>> children(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const std::uint64_t parent = records_[i].parent;
        if (parent != 0 && parent <= records_.size())
            children[parent - 1].push_back(i);
    }

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
        for (std::size_t c : children[i]) {
            const auto s = std::max(records_[c].start, r.start);
            const auto e = std::min(records_[c].end, r.end);
            if (s < e)
                cover.emplace_back(s, e);
        }
        std::sort(cover.begin(), cover.end());
        double coveredMs = 0.0;
        Clock::time_point runStart{}, runEnd{};
        bool open = false;
        for (const auto &[s, e] : cover) {
            if (open && s <= runEnd) {
                runEnd = std::max(runEnd, e);
                continue;
            }
            if (open)
                coveredMs += msBetween(runStart, runEnd);
            runStart = s;
            runEnd = e;
            open = true;
        }
        if (open)
            coveredMs += msBetween(runStart, runEnd);
        self[r.layer] += msBetween(r.start, r.end) - coveredMs;
    }
    return self;
}

void
Spans::writeChromeTrace(const std::string &path,
                        const std::string &process) const
{
    std::vector<risc1::obs::TimelineSpan> spans;
    unsigned lanes = 1;
    {
        std::lock_guard lock(mutex_);
        spans.reserve(records_.size());
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            risc1::obs::TimelineSpan s;
            s.name = r.name;
            s.category = r.layer;
            s.lane = r.lane;
            s.startMs = msBetween(zero_, r.start);
            s.durMs = msBetween(r.start, r.end);
            s.args = {{"id", std::to_string(i + 1)},
                      {"parent", std::to_string(r.parent)},
                      {"request", std::to_string(r.request)}};
            spans.push_back(std::move(s));
            lanes = std::max(lanes, r.lane + 1);
        }
    }
    std::vector<std::string> laneNames;
    for (unsigned l = 0; l < lanes; ++l)
        laneNames.push_back("lane " + std::to_string(l));
    risc1::obs::writeChromeTrace(path, process, laneNames, spans);
}

void
Report::setPercentile(const std::string &name, const Percentile &p,
                      const std::string &unit)
{
    metrics[name] = {p.value, unit, p.samples};
    if (!p.decided)
        errors.push_back(name + " undecided: " +
                         std::to_string(p.samples) +
                         " samples leave fewer than ten beyond it");
}

void
Report::setOpLatencies(std::vector<double> ms)
{
    setPercentile("op_p50_ms", percentile(ms, 0.50), "ms");
    setPercentile("op_p90_ms", percentile(ms, 0.90), "ms");
    setPercentile("op_p99_ms", percentile(ms, 0.99), "ms");
}

std::string
Report::json() const
{
    risc1::JsonWriter w;
    w.beginObject();
    w.field("attempted", attempted).field("failed", failed);
    w.key("metrics").beginObject();
    for (const auto &[name, m] : metrics) {
        // A non-finite value would be invalid JSON; main() has
        // already turned it into a failed check.
        w.key(name).beginObject()
            .field("value", std::isfinite(m.value) ? m.value : 0.0)
            .field("unit", std::string_view(m.unit));
        if (m.samples != 0)
            w.field("samples", std::uint64_t(m.samples));
        w.endObject();
    }
    w.endObject();
    w.key("facts").beginObject();
    for (const auto &[k, v] : facts)
        w.field(k, std::string_view(v));
    w.endObject();
    w.key("errors").beginArray();
    for (const auto &e : errors)
        w.value(std::string_view(e));
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace perfbench

#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace tmbench {

const std::vector<std::pair<std::string, std::string>>&
perLayerSchema()
{
    static const std::vector<std::pair<std::string, std::string>> schema = {
        {"workloads.kernel_build_us", "us"},
        {"core.machine_build_us", "us"},
        {"workloads.init_us", "us"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.events", "count"},
        {"sim.ticks", "cycles"},
        {"core.instructions", "count"},
        {"mem.l1_misses", "count"},
        {"mem.l2_misses", "count"},
        {"mem.bus_transfers", "count"},
        {"htm.broadcast_lines", "count"},
        {"htm.index_hits", "count"},
        {"htm.sig_filtered", "count"},
        {"htm.commits", "count"},
        {"htm.rollbacks", "count"},
        {"htm.commit_rate", "ratio"},
        {"htm.wasted_cycles", "cycles"},
        {"htm.neworder_p99_cycles", "cycles"},
        {"core.sim_run_us", "us"},
        {"check.record_us", "us"},
        {"check.oracle_us", "us"},
        {"sim.stats_merge_us", "us"},
        {"check.seeds_failing", "count"},
        {"check.hangs", "count"},
        {"htm.cm.escalations", "count"},
        {"stm.runtime_build_us", "us"},
        {"stm.transfer_p50_us", "us"},
        {"stm.transfer_p99_us", "us"},
        {"stm.audit_p50_us", "us"},
        {"stm.audit_p99_us", "us"},
        {"stm.retries", "count"},
        {"stm.lock_failures", "count"},
        {"stm.snapshot_extensions", "count"},
        {"stm.commit_ratio", "ratio"},
        {"stm.merge_stats_us", "us"},
        {"trace.overhead_pct", "%"},
    };
    return schema;
}

void
Episodes::add(double setup_s, double work, double busy_s,
              const LatencyHist& lat)
{
    setupS.push_back(setup_s);
    workPerS.push_back(busy_s > 0 ? work / busy_s : 0.0);
    p50Us.push_back(quantileUs(lat, 0.50));
    p99Us.push_back(quantileUs(lat, 0.99));
    busyS += busy_s;
    numRequests += lat.count();
}

bool
Episodes::more(const RunOptions& opt) const
{
    return count() < static_cast<std::size_t>(minEpisodes) ||
           busyS < opt.seconds;
}

void
addEndToEnd(WorkloadResult& r, const Episodes& eps)
{
    const std::uint64_t n = eps.count();
    r.endToEnd.push_back({"work_per_s", median(eps.workPerS), "1/s", n});
    r.endToEnd.push_back(
        {"latency_p50_us", median(eps.p50Us), "us", eps.requests()});
    r.endToEnd.push_back(
        {"latency_p99_us", median(eps.p99Us), "us", eps.requests()});
    r.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MiB", 0});
    r.endToEnd.push_back({"setup_s", median(eps.setupS), "s", n});
    char line[160];
    std::snprintf(line, sizeof line,
                  "%llu episodes, %llu requests; work_per_s and setup_s "
                  "samples are episodes, latency samples are requests",
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(eps.requests()));
    r.notes.push_back(line);
    const auto [lo, hi] =
        std::minmax_element(eps.workPerS.begin(), eps.workPerS.end());
    if (lo != eps.workPerS.end()) {
        std::snprintf(line, sizeof line,
                      "work_per_s over the episodes: min %.6g median %.6g "
                      "max %.6g",
                      *lo, median(eps.workPerS), *hi);
        r.notes.push_back(line);
    }
}

std::string
resultJson(const WorkloadResult& r, bool per_layer)
{
    std::string out = std::string("{\"correct\": ") +
                      (r.correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(r.attempted) +
                      ", \"failed\": " + std::to_string(r.failed) +
                      ", \"metrics\": {";
    const std::vector<Metric>& ms = per_layer ? r.perLayer : r.endToEnd;
    char buf[64];
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(ms[i].value) ? ms[i].value : 0.0);
        out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return out + "}}";
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

SpanLog::SpanLog(std::size_t capacity) : cap(capacity)
{
    log.reserve(cap);
}

int
SpanLog::open(const char* name, int parent, std::int64_t req)
{
    if (log.size() >= cap) {
        ++numDropped;
        return -1;
    }
    log.push_back(Span{name, nowNs(), 0, parent, req});
    return static_cast<int>(log.size() - 1);
}

void
SpanLog::close(int idx)
{
    if (idx >= 0)
        log[static_cast<std::size_t>(idx)].endNs = nowNs();
}

namespace {

std::string
layerOf(const char* name)
{
    const std::string s(name);
    const std::size_t dot = s.find('.');
    // The request root's own time is the benchmark's loop overhead.
    return dot == std::string::npos ? "bench" : s.substr(0, dot);
}

/** Self time (span time not covered by child spans) per layer, over
 *  the spans that belong to a request. */
struct LayerTimes
{
    std::map<std::string, double> selfUs;
    double requestUs = 0.0;
    std::uint64_t requests = 0;
};

LayerTimes
layerSelfTimes(const std::vector<const SpanLog*>& logs)
{
    LayerTimes out;
    for (const SpanLog* lg : logs) {
        const std::vector<Span>& sp = lg->spans();
        std::vector<std::int64_t> dur(sp.size(), 0), childNs(sp.size(), 0);
        // A parent is always opened (recorded) before its children.
        std::vector<bool> inRequest(sp.size(), false);
        for (std::size_t i = 0; i < sp.size(); ++i) {
            // A span left open by a failed request counts as empty.
            dur[i] = std::max<std::int64_t>(0, sp[i].endNs - sp[i].startNs);
            const int p = sp[i].parent;
            if (p >= 0) {
                childNs[static_cast<std::size_t>(p)] += dur[i];
                inRequest[i] = inRequest[static_cast<std::size_t>(p)];
            } else {
                inRequest[i] = std::string(sp[i].name) == "request";
            }
        }
        for (std::size_t i = 0; i < sp.size(); ++i) {
            if (!inRequest[i])
                continue; // set-up and teardown spans
            out.selfUs[layerOf(sp[i].name)] +=
                static_cast<double>(dur[i] - childNs[i]) / 1000.0;
            if (sp[i].parent < 0) {
                out.requestUs += static_cast<double>(dur[i]) / 1000.0;
                ++out.requests;
            }
        }
    }
    return out;
}

} // namespace

void
summarizeLayers(WorkloadResult& r, const std::vector<const SpanLog*>& logs)
{
    const LayerTimes lt = layerSelfTimes(logs);
    std::uint64_t dropped = 0;
    for (const SpanLog* lg : logs)
        dropped += lg->dropped();
    char line[256];
    std::snprintf(line, sizeof line,
                  "layer self time over %llu traced requests (%.1f us; "
                  "%llu spans dropped):",
                  static_cast<unsigned long long>(lt.requests), lt.requestUs,
                  static_cast<unsigned long long>(dropped));
    r.notes.push_back(line);
    for (const auto& [layer, us] : lt.selfUs) {
        std::snprintf(line, sizeof line,
                      "  %-10s self %14.1f us  share of requests %6.2f%%",
                      layer.c_str(), us,
                      lt.requestUs > 0 ? 100.0 * us / lt.requestUs : 0.0);
        r.notes.push_back(line);
    }
}

bool
writeSpans(const std::string& path, const std::vector<const SpanLog*>& logs)
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::int64_t t0 = 0;
    bool first = true;
    for (const SpanLog* lg : logs) {
        for (const Span& s : lg->spans()) {
            if (first || s.startNs < t0)
                t0 = s.startNs;
            first = false;
        }
    }
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool sep = false;
    char buf[320];
    for (std::size_t t = 0; t < logs.size(); ++t) {
        const std::vector<Span>& sp = logs[t]->spans();
        for (std::size_t i = 0; i < sp.size(); ++i) {
            std::snprintf(
                buf, sizeof buf,
                "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                "\"parent\":%d,\"req\":%lld}}",
                sep ? "," : "", sp[i].name, t,
                static_cast<double>(sp[i].startNs - t0) / 1000.0,
                static_cast<double>(sp[i].endNs - sp[i].startNs) / 1000.0,
                i, sp[i].parent, static_cast<long long>(sp[i].req));
            os << buf;
            sep = true;
        }
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

void
setLayer(WorkloadResult& r, const std::string& name, double value,
         std::uint64_t samples)
{
    for (Metric& m : r.perLayer) {
        if (m.name == name) {
            m.value = value;
            m.samples = samples;
            return;
        }
    }
    for (const auto& [n, unit] : perLayerSchema()) {
        if (n == name) {
            r.perLayer.push_back({name, value, unit, samples});
            return;
        }
    }
    r.correct = false;
    r.notes.push_back("internal error: unknown per-layer metric " + name);
}

void
completeLayers(WorkloadResult& r)
{
    std::vector<Metric> out;
    for (const auto& [name, unit] : perLayerSchema()) {
        Metric m{name, 0.0, unit, 0};
        for (const Metric& set : r.perLayer) {
            if (set.name == name)
                m = set;
        }
        out.push_back(m);
    }
    r.perLayer = std::move(out);
}

} // namespace tmbench

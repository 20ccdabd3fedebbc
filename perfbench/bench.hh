/**
 * @file
 * Shared pieces of the repository benchmark: run options, the metric
 * record every workload returns, fixed-size latency histograms, and
 * the in-memory span log of the traced run.
 *
 * Spans are recorded only from the benchmark's own files, around the
 * calls it makes into each layer's public functions; the simulator and
 * the STM are not instrumented.
 */

#ifndef TMSIM_PERFBENCH_BENCH_HH
#define TMSIM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz_program.hh"
#include "sim/stats.hh"

namespace tmbench {

/** Host nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct RunOptions
{
    std::uint64_t seed = 1;
    /** Request time to measure: episodes repeat until this much has
     *  been spent inside requests (see Episodes). */
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (empty = nowhere). */
    std::string spanFile;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (0 when it is a single measurement). */
    std::uint64_t samples = 0;
};

struct WorkloadResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    /** Filled by traced runs only. */
    std::vector<Metric> perLayer;
    /** Human-readable lines printed before the result (failures,
     *  per-layer summary). */
    std::vector<std::string> notes;
};

/** Every per-layer metric name with its unit, in output order. A
 *  workload that does not enter a layer reports 0 for its metrics. */
const std::vector<std::pair<std::string, std::string>>& perLayerSchema();

/** Sub-bucket bits of every latency histogram: below 1% quantile
 *  error. */
constexpr int histBits = 7;

/** A fixed-size HDR latency histogram in host nanoseconds. */
using LatencyHist = tmsim::StatsRegistry::Distribution;

inline LatencyHist
makeHist()
{
    return LatencyHist(histBits);
}

/** Quantile of @p h in microseconds. */
inline double
quantileUs(const LatencyHist& h, double q)
{
    return static_cast<double>(h.quantile(q)) / 1000.0;
}

/** Every run measures at least this many episodes, so each median
 *  below rests on three or more values. */
constexpr int minEpisodes = 3;

/**
 * The measurements of one run. A run repeats one episode — set-up, a
 * fixed batch of requests drawn from the seed, then the correctness
 * checks — until minEpisodes have run and opt.seconds of request time
 * have been spent. Each end-to-end metric is the median over the
 * episodes, so a burst of host noise that slows a minority of them
 * does not move it.
 */
class Episodes
{
  public:
    /** Record one episode: its set-up time, the work its requests did
     *  (the numerator of work_per_s), the time they took and their
     *  latencies. */
    void add(double setup_s, double work, double busy_s,
             const LatencyHist& lat);

    /** Whether the run should measure another episode. */
    bool more(const RunOptions& opt) const;

    std::size_t count() const { return setupS.size(); }
    std::uint64_t requests() const { return numRequests; }

    std::vector<double> setupS, workPerS, p50Us, p99Us;

  private:
    double busyS = 0.0;
    std::uint64_t numRequests = 0;
};

/** The end-to-end metrics every workload prints, in this order. */
void addEndToEnd(WorkloadResult& r, const Episodes& eps);

/** The result line: one JSON object with the keys correct, attempted,
 *  failed and metrics (per-layer metrics when @p per_layer, else the
 *  end-to-end ones), every value printed with all its digits. */
std::string resultJson(const WorkloadResult& r, bool per_layer);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** Median of @p v (copied; v may be unsorted). */
double median(std::vector<double> v);

/**
 * One recorded span. Parent is an index into the same log (-1 for a
 * root); req identifies the request the span belongs to (slice index,
 * fuzz seed or sampled STM op index; -1 for set-up).
 */
struct Span
{
    const char* name;
    std::int64_t startNs;
    std::int64_t endNs;
    std::int32_t parent;
    std::int64_t req;
};

/**
 * Spans of one host thread, kept in memory and written out at exit.
 * Capacity is reserved up front so recording never allocates; spans
 * past it are counted as dropped.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t capacity = std::size_t{1} << 20);

    /** Open a span now; returns its index (or -1 once full). */
    int open(const char* name, int parent, std::int64_t req);
    void close(int idx);

    const std::vector<Span>& spans() const { return log; }
    std::uint64_t dropped() const { return numDropped; }

  private:
    std::vector<Span> log;
    std::size_t cap;
    std::uint64_t numDropped = 0;
};

/** RAII span; a null log records nothing. */
class Scoped
{
  public:
    Scoped(SpanLog* log, const char* name, int parent, std::int64_t req)
        : lg(log), idx(log ? log->open(name, parent, req) : -1)
    {
    }
    ~Scoped()
    {
        if (lg)
            lg->close(idx);
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

    int index() const { return idx; }

  private:
    SpanLog* lg;
    int idx;
};

/** Append to @p r.notes each layer's self time (span time not covered
 *  by child spans; the layer is the span name up to its first '.') and
 *  its share of the time spent in requests. */
void summarizeLayers(WorkloadResult& r,
                     const std::vector<const SpanLog*>& logs);

/** Write @p logs as Chrome trace events (one tid per log). */
bool writeSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

/** Set per-layer metric @p name (must be in perLayerSchema()). */
void setLayer(WorkloadResult& r, const std::string& name, double value,
              std::uint64_t samples = 0);

/** Fill every per-layer metric not set by the workload with 0. */
void completeLayers(WorkloadResult& r);

// --- workloads -------------------------------------------------------

/** Shape of one jbb_sim episode (specjbb-open under paperLazy). */
struct JbbShape
{
    int cpus = 64;
    int warehouses = 16;
    double zipfS = 0.99;
    int customers = 20'000;
    int stockItems = 4'000;
    int remotePct = 10;
    /** specjbb operations per episode. */
    int ops = 0;
    /** Simulated cycles one request (Machine::run call) advances. */
    std::uint64_t sliceCycles = 0;
};

/** Exact simulated counts of one jbb_sim episode (every episode of a
 *  run simulates the same thing, so they are the run's). */
struct JbbCounts
{
    std::uint64_t ticks = 0;
    std::uint64_t instructions = 0;
    std::uint64_t commits = 0;
    std::uint64_t events = 0;
    bool verified = false;

    bool operator==(const JbbCounts&) const = default;
};

WorkloadResult runJbb(const JbbShape& shape, const RunOptions& opt,
                      JbbCounts* counts = nullptr);

/** Verdict of one fuzz seed. */
struct SeedVerdict
{
    bool failed = false;
    bool hang = false;
    std::string config;
    std::string message;

    bool operator==(const SeedVerdict&) const = default;
};

/** The fuzz_campaign program for @p seed: generateProgram's, except
 *  that a draw of the Polite or Hybrid contention policy is replaced by
 *  Requester, Timestamp or Karma. Polite livelocks on a few seeds in a
 *  thousand (ROADMAP item 1) and Hybrid on about one in 6000 (seed
 *  42000621 under eager-undolog); a tick-limit hang would be a failed
 *  request. */
tmsim::FuzzProgram benchProgram(std::uint64_t seed);

/** Run episodes of seeds [first, first + n) through the campaign;
 *  untraced runs use runProgramAllConfigs, traced runs drive each
 *  Machine here. @p verdicts / @p merged receive the first episode's
 *  per-seed verdicts and merged machine stats. */
WorkloadResult runFuzzSeeds(std::uint64_t first, std::uint64_t n,
                            const RunOptions& opt,
                            std::vector<SeedVerdict>* verdicts = nullptr,
                            tmsim::StatsRegistry* merged = nullptr);

WorkloadResult runJbbSim(const RunOptions& opt);
WorkloadResult runFuzzCampaign(const RunOptions& opt);
WorkloadResult runStmBank(const RunOptions& opt);

} // namespace tmbench

#endif // TMSIM_PERFBENCH_BENCH_HH

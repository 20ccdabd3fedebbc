/**
 * @file
 * Campaign engine: the determinism contract (parallel merge order and
 * output identical to sequential), cancellation on worker failure and
 * merge early-stop, and the per-thread log-context machinery the pool
 * is built on (scoped quiet/sink routing, trapped fatal(), strict CLI
 * parsing).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/campaign.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/stats.hh"

using namespace tmsim;

namespace {

/** Run a square-the-index campaign and record the merge order. */
std::vector<std::size_t>
mergeOrder(std::size_t n, int jobs, std::vector<int>* values = nullptr)
{
    std::vector<std::size_t> order;
    CampaignOptions opt;
    opt.jobs = jobs;
    const CampaignResult res = runCampaign<int>(
        n, opt,
        [](std::size_t i) { return static_cast<int>(i * i); },
        [&](std::size_t i, int&& v) {
            order.push_back(i);
            if (values)
                values->push_back(v);
            return true;
        });
    EXPECT_FALSE(res.failed);
    EXPECT_FALSE(res.stopped);
    EXPECT_EQ(res.merged, n);
    return order;
}

} // namespace

TEST(Campaign, SequentialAndParallelMergeIdentically)
{
    std::vector<int> seqVals, parVals;
    const auto seq = mergeOrder(32, 1, &seqVals);
    const auto par = mergeOrder(32, 8, &parVals);
    EXPECT_EQ(seq, par);
    EXPECT_EQ(seqVals, parVals);
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(seq[i], i);
}

TEST(Campaign, MergeOrderHoldsUnderAdversarialJobDelays)
{
    // Early jobs sleep longest, so completion order is roughly the
    // reverse of index order — the merge must still be 0,1,2,...
    const std::size_t n = 16;
    std::vector<std::size_t> order;
    CampaignOptions opt;
    opt.jobs = 8;
    const CampaignResult res = runCampaign<std::size_t>(
        n, opt,
        [&](std::size_t i) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2 * (n - i)));
            return i;
        },
        [&](std::size_t i, std::size_t&& v) {
            EXPECT_EQ(i, v);
            order.push_back(i);
            return true;
        });
    EXPECT_FALSE(res.failed);
    ASSERT_EQ(order.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Campaign, WorkerFatalCancelsPoolAndSurfacesMessage)
{
    for (int jobs : {1, 4}) {
        std::atomic<int> started{0};
        std::size_t mergedBeforeFailure = 0;
        CampaignOptions opt;
        opt.jobs = jobs;
        const CampaignResult res = runCampaign<int>(
            64, opt,
            [&](std::size_t i) {
                started.fetch_add(1);
                if (i == 5)
                    fatal("boom at job 5");
                // Real work per job: trivial jobs let four workers
                // claim all 64 before job 5's fatal() cancels the pool.
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                return static_cast<int>(i);
            },
            [&](std::size_t i, int&&) {
                EXPECT_LT(i, 5u);
                ++mergedBeforeFailure;
                return true;
            });
        EXPECT_TRUE(res.failed) << "jobs=" << jobs;
        EXPECT_TRUE(static_cast<bool>(res));
        EXPECT_EQ(res.failedJob, 5u);
        EXPECT_NE(res.message.find("boom at job 5"), std::string::npos);
        EXPECT_EQ(mergedBeforeFailure, 5u);
        EXPECT_EQ(res.merged, 5u);
        // Cancellation: nowhere near all 64 jobs may have started.
        EXPECT_LT(started.load(), 64) << "jobs=" << jobs;
    }
}

TEST(Campaign, NonFatalExceptionAlsoSurfaces)
{
    CampaignOptions opt;
    opt.jobs = 4;
    const CampaignResult res = runCampaign<int>(
        8, opt,
        [](std::size_t i) {
            if (i == 2)
                throw std::runtime_error("job exploded");
            return 0;
        },
        [](std::size_t, int&&) { return true; });
    EXPECT_TRUE(res.failed);
    EXPECT_EQ(res.failedJob, 2u);
    EXPECT_NE(res.message.find("job exploded"), std::string::npos);
}

TEST(Campaign, MergeReturningFalseStopsEarly)
{
    for (int jobs : {1, 4}) {
        std::size_t merged = 0;
        CampaignOptions opt;
        opt.jobs = jobs;
        const CampaignResult res = runCampaign<int>(
            1000, opt, [](std::size_t i) { return static_cast<int>(i); },
            [&](std::size_t, int&&) { return ++merged < 10; });
        EXPECT_FALSE(res.failed) << "jobs=" << jobs;
        EXPECT_TRUE(res.stopped);
        EXPECT_EQ(res.merged, 10u);
        EXPECT_EQ(merged, 10u);
    }
}

TEST(Campaign, ZeroJobsIsANoOp)
{
    CampaignOptions opt;
    opt.jobs = 8;
    bool touched = false;
    const CampaignResult res = runCampaign<int>(
        0, opt, [&](std::size_t) { touched = true; return 0; },
        [&](std::size_t, int&&) { touched = true; return true; });
    EXPECT_FALSE(res.failed);
    EXPECT_EQ(res.merged, 0u);
    EXPECT_FALSE(touched);
}

TEST(Campaign, PerJobStatsMergeIsJobsInvariant)
{
    // The pattern every campaign tool uses: each job fills a private
    // registry, the merge folds it. The aggregate must not depend on
    // the worker count.
    auto run = [](int jobs) {
        StatsRegistry merged;
        CampaignOptions opt;
        opt.jobs = jobs;
        runCampaign<StatsRegistry>(
            20, opt,
            [](std::size_t i) {
                StatsRegistry r;
                r.counter("job.runs") += 1;
                r.counter("job.total") += i;
                r.distribution("job.size").sample(i + 1);
                return r;
            },
            [&](std::size_t, StatsRegistry&& r) {
                merged.mergeFrom(r);
                return true;
            });
        std::ostringstream os;
        merged.dumpJson(os);
        return os.str();
    };
    const std::string seq = run(1);
    EXPECT_EQ(seq, run(4));
    EXPECT_EQ(seq, run(13));
    EXPECT_NE(seq.find("\"job.runs\": 20"), std::string::npos);
}

TEST(Campaign, TelemetryDistributionsCoverEveryMergedJob)
{
    // Telemetry goes to the caller-owned registry and never perturbs
    // the merge: one wall-time and one merge-time sample per merged
    // job, whatever the worker count.
    for (int jobs : {1, 4}) {
        StatsRegistry tel;
        CampaignOptions opt;
        opt.jobs = jobs;
        opt.telemetry = &tel;
        std::vector<std::size_t> order;
        const CampaignResult res = runCampaign<int>(
            16, opt, [](std::size_t i) { return static_cast<int>(i); },
            [&](std::size_t i, int&& v) {
                EXPECT_EQ(static_cast<std::size_t>(v), i);
                order.push_back(i);
                return true;
            });
        EXPECT_FALSE(res.failed);
        EXPECT_EQ(res.merged, 16u);
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order[i], i);
        const auto* wall = tel.findDistribution("campaign.job_wall_us");
        const auto* merge = tel.findDistribution("campaign.merge_us");
        ASSERT_NE(wall, nullptr);
        ASSERT_NE(merge, nullptr);
        EXPECT_EQ(wall->count(), 16u) << "jobs=" << jobs;
        EXPECT_EQ(merge->count(), 16u) << "jobs=" << jobs;
    }
}

TEST(Campaign, HeartbeatFileIsSchemaVersionedNdjson)
{
    const std::string path =
        testing::TempDir() + "tmsim_campaign_heartbeat_test.ndjson";
    std::remove(path.c_str());
    {
        CampaignOptions opt;
        opt.jobs = 4;
        opt.heartbeatFile = path;
        opt.telemetryIntervalMs = 0; // a record per merge + the final one
        opt.failures = []() -> std::uint64_t { return 3; };
        const CampaignResult res = runCampaign<int>(
            10, opt, [](std::size_t i) { return static_cast<int>(i); },
            [](std::size_t, int&&) { return true; });
        EXPECT_FALSE(res.failed);
        EXPECT_EQ(res.merged, 10u);
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::string line, last;
    std::size_t records = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        EXPECT_EQ(
            line.rfind(
                "{\"schema\": \"tmsim-campaign-heartbeat\", "
                "\"schema_version\": 1, ",
                0),
            0u)
            << line;
        EXPECT_EQ(line.back(), '}') << line;
        EXPECT_NE(line.find("\"failures\": 3"), std::string::npos);
        last = line;
        ++records;
    }
    // interval 0 emits at every merge, plus the final record.
    EXPECT_GE(records, 11u);
    EXPECT_NE(last.find("\"final\": true"), std::string::npos);
    EXPECT_NE(last.find("\"jobs_merged\": 10"), std::string::npos);
    EXPECT_NE(last.find("\"jobs_total\": 10"), std::string::npos);
    EXPECT_NE(last.find("\"job_wall_us\": {\"samples\": 10,"),
              std::string::npos);
    EXPECT_NE(last.find("\"merge_us\": {\"samples\": 10,"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Campaign, TelemetryIntervalSuppressesIntermediateRecords)
{
    const std::string path =
        testing::TempDir() + "tmsim_campaign_heartbeat_quiet.ndjson";
    std::remove(path.c_str());
    {
        CampaignOptions opt;
        opt.jobs = 1;
        opt.heartbeatFile = path;
        opt.telemetryIntervalMs = 60 * 1000; // beyond any test runtime
        const CampaignResult res = runCampaign<int>(
            8, opt, [](std::size_t i) { return static_cast<int>(i); },
            [](std::size_t, int&&) { return true; });
        EXPECT_FALSE(res.failed);
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::string line;
    std::size_t records = 0;
    bool sawFinal = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++records;
        if (line.find("\"final\": true") != std::string::npos)
            sawFinal = true;
    }
    // The first merge emits (lastEmit starts at 0), then the interval
    // gags everything until the guaranteed final record.
    EXPECT_LE(records, 2u);
    EXPECT_TRUE(sawFinal);
    std::remove(path.c_str());
}

TEST(LogContext, ScopesNestAndRestore)
{
    EXPECT_FALSE(currentLogContext().quiet);
    LogContext outer;
    outer.quiet = true;
    {
        LogScope a(outer);
        EXPECT_TRUE(currentLogContext().quiet);
        LogContext inner;
        {
            LogScope b(inner);
            EXPECT_FALSE(currentLogContext().quiet);
        }
        EXPECT_TRUE(currentLogContext().quiet);
    }
    EXPECT_FALSE(currentLogContext().quiet);
}

TEST(LogContext, SinkCapturesWarningsPerThread)
{
    std::vector<std::string> mine;
    LogContext ctx;
    ctx.sink = [&](const char* level, const std::string& msg) {
        mine.push_back(std::string(level) + ":" + msg);
    };
    LogScope scope(ctx);

    warn("captured %d", 1);
    inform("captured %d", 2);

    // Another thread without a scope must not reach our sink.
    std::thread other([] {
        LogContext q;
        q.quiet = true;   // don't spam test output
        LogScope s(q);
        warn("other thread");
    });
    other.join();

    ASSERT_EQ(mine.size(), 2u);
    EXPECT_EQ(mine[0], "warn:captured 1");
    EXPECT_EQ(mine[1], "info:captured 2");
}

TEST(LogContext, QuietSuppressesSink)
{
    int calls = 0;
    LogContext ctx;
    ctx.quiet = true;
    ctx.sink = [&](const char*, const std::string&) { ++calls; };
    LogScope scope(ctx);
    warn("dropped");
    inform("dropped");
    EXPECT_EQ(calls, 0);
}

TEST(LogContext, InheritCopiesCurrentSettings)
{
    LogContext ctx;
    ctx.quiet = true;
    ctx.throwOnFatal = true;
    LogScope scope(ctx);
    const LogContext child = LogContext::inherit();
    EXPECT_TRUE(child.quiet);
    EXPECT_TRUE(child.throwOnFatal);
}

TEST(Fatal, ThrowsUnderTrappingContext)
{
    LogContext ctx;
    ctx.throwOnFatal = true;
    LogScope scope(ctx);
    try {
        fatal("bad value %d", 42);
        FAIL() << "fatal() returned";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("bad value 42"),
                  std::string::npos);
    }
}

namespace {

/** Run the parse helpers under a fatal-trapping scope. */
template <typename Fn>
void
expectParseFatal(Fn&& fn)
{
    LogContext ctx;
    ctx.throwOnFatal = true;
    LogScope scope(ctx);
    EXPECT_THROW(fn(), FatalError);
}

} // namespace

TEST(Parse, AcceptsPlainHexAndOctal)
{
    EXPECT_EQ(parseU64("123", "--x"), 123u);
    EXPECT_EQ(parseU64("0x10", "--x"), 16u);
    EXPECT_EQ(parseInt("-5", "--x"), -5);
    EXPECT_EQ(parseInt("42", "--x", 1, 64), 42);
}

TEST(Parse, RejectsGarbageTrailingAndRange)
{
    expectParseFatal([] { parseU64("abc", "--seeds"); });
    expectParseFatal([] { parseU64("12x", "--seeds"); });
    expectParseFatal([] { parseU64("", "--seeds"); });
    expectParseFatal([] { parseU64("-3", "--seeds"); });
    expectParseFatal([] { parseU64("99999999999999999999999", "--seeds"); });
    expectParseFatal([] { parseInt("notanint", "--jobs"); });
    expectParseFatal([] { parseInt("0", "--jobs", 1, 1024); });
    expectParseFatal([] { parseInt("1025", "--jobs", 1, 1024); });
}

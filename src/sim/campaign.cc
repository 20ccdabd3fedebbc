#include "sim/campaign.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include <unistd.h>

namespace tmsim {

namespace {

/** warn()/inform() lines a job emitted, buffered per job so the caller
 *  can replay them in merge (job-index) order: campaign stderr is as
 *  deterministic as campaign stdout, whatever the worker count. */
struct JobLog
{
    std::vector<std::pair<std::string, std::string>> lines;
};

using Clock = std::chrono::steady_clock;

std::uint64_t
usSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - t0)
            .count());
}

/**
 * Caller-thread telemetry: per-job wall-time and merge-time HDR
 * distributions, a rate-limited stderr progress line, and the NDJSON
 * heartbeat stream. Only ever touched from the merging thread, so it
 * needs no locking; worker threads contribute nothing but the raw
 * wall-time slot they own.
 */
class TelemetryEmitter
{
  public:
    TelemetryEmitter(const CampaignOptions& opt_, std::size_t total_)
        : opt(opt_), total(total_),
          reg(opt_.telemetry ? *opt_.telemetry : localReg),
          wallDist(reg.distribution("campaign.job_wall_us")),
          mergeDist(reg.distribution("campaign.merge_us")),
          start(Clock::now())
    {
        if (!opt.heartbeatFile.empty()) {
            hb = std::fopen(opt.heartbeatFile.c_str(), "w");
            if (!hb) {
                warn("campaign: cannot open heartbeat file %s",
                     opt.heartbeatFile.c_str());
            }
        }
        stderrIsTty = isatty(fileno(stderr)) != 0;
    }

    ~TelemetryEmitter()
    {
        emit(true);
        if (hb)
            std::fclose(hb);
    }

    /** Record one merged job: its wall time, the merge cost, and the
     *  campaign position (jobs merged / jobs completed by workers). */
    void
    afterMerge(std::uint64_t wall_us, std::uint64_t merge_us,
               std::size_t merged_, std::size_t done_)
    {
        wallDist.sample(wall_us);
        mergeDist.sample(merge_us);
        merged = merged_;
        done = done_;
        const std::uint64_t interval =
            static_cast<std::uint64_t>(
                opt.telemetryIntervalMs < 0 ? 0 : opt.telemetryIntervalMs) *
            1000;
        if (usSince(start) - lastEmitUs >= interval)
            emit(false);
    }

  private:
    void
    emit(bool final)
    {
        lastEmitUs = usSince(start);
        const double secs = static_cast<double>(lastEmitUs) / 1e6;
        const double rate =
            secs > 0.0 ? static_cast<double>(merged) / secs : 0.0;
        const std::uint64_t fails = opt.failures ? opt.failures() : 0;
        if (opt.progress) {
            const double etaS =
                rate > 0.0
                    ? static_cast<double>(total - merged) / rate
                    : 0.0;
            std::fprintf(stderr,
                         "campaign: %zu/%zu merged, %llu failing, "
                         "%.1f jobs/s, ETA %.0fs%s",
                         merged, total,
                         static_cast<unsigned long long>(fails), rate,
                         etaS,
                         // On a TTY rewrite one line; in a log, emit
                         // whole lines (and always finish with one).
                         (stderrIsTty && !final) ? "\r" : "\n");
            std::fflush(stderr);
        }
        if (hb) {
            std::fprintf(
                hb,
                "{\"schema\": \"tmsim-campaign-heartbeat\", "
                "\"schema_version\": 1, \"final\": %s, "
                "\"wall_ms\": %llu, \"jobs_merged\": %zu, "
                "\"jobs_total\": %zu, \"failures\": %llu, "
                "\"jobs_per_sec\": %.3f, \"merge_lag\": %zu",
                final ? "true" : "false",
                static_cast<unsigned long long>(lastEmitUs / 1000),
                merged, total,
                static_cast<unsigned long long>(fails), rate,
                done - merged);
            if (final) {
                std::fprintf(hb, ", \"job_wall_us\": %s, \"merge_us\": %s",
                             distSummaryJson(wallDist).c_str(),
                             distSummaryJson(mergeDist).c_str());
            }
            std::fprintf(hb, "}\n");
            std::fflush(hb);
        }
    }

    const CampaignOptions& opt;
    const std::size_t total;
    StatsRegistry localReg;
    StatsRegistry& reg;
    StatsRegistry::Distribution& wallDist;
    StatsRegistry::Distribution& mergeDist;
    Clock::time_point start;
    std::uint64_t lastEmitUs = 0;
    std::size_t merged = 0;
    std::size_t done = 0;
    std::FILE* hb = nullptr;
    bool stderrIsTty = false;
};

} // namespace

std::string
distSummaryJson(const StatsRegistry::Distribution& d)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "{\"samples\": %llu, \"mean\": %.3f, \"p50\": %llu, "
        "\"p90\": %llu, \"p99\": %llu, \"max\": %llu}",
        static_cast<unsigned long long>(d.count()), d.mean(),
        static_cast<unsigned long long>(d.quantile(0.50)),
        static_cast<unsigned long long>(d.quantile(0.90)),
        static_cast<unsigned long long>(d.quantile(0.99)),
        static_cast<unsigned long long>(d.max()));
    return buf;
}

CampaignResult
CampaignPool::run(std::size_t num_jobs, const CampaignOptions& opt,
                  const JobFn& body, const ReadyFn& on_ready)
{
    CampaignResult res;
    if (num_jobs == 0)
        return res;

    std::vector<JobLog> logs(num_jobs);
    auto makeCtx = [&](LogContext& ctx, std::size_t i) {
        ctx.quiet = opt.quiet;
        ctx.throwOnFatal = true;
        ctx.sink = [&logs, i](const char* level, const std::string& msg) {
            logs[i].lines.emplace_back(level, msg);
        };
    };
    auto replay = [&](std::size_t i) {
        for (const auto& [level, msg] : logs[i].lines)
            std::fprintf(stderr, "%s: %s\n", level.c_str(), msg.c_str());
        logs[i].lines.clear();
    };

    const int workers =
        opt.jobs <= 1
            ? 1
            : static_cast<int>(
                  std::min(static_cast<std::size_t>(opt.jobs), num_jobs));

    // Telemetry rides outside the identity path: workers only stamp
    // the wall-time slot they own; the merging thread samples the
    // distributions and emits progress/heartbeat records in job order.
    const bool track = opt.progress || !opt.heartbeatFile.empty() ||
                       opt.telemetry != nullptr;
    std::unique_ptr<TelemetryEmitter> tel;
    std::vector<std::uint64_t> wallUs;
    if (track) {
        tel = std::make_unique<TelemetryEmitter>(opt, num_jobs);
        wallUs.assign(num_jobs, 0);
    }
    auto timedBody = [&](std::size_t i) {
        if (!track) {
            body(i);
            return;
        }
        const Clock::time_point t0 = Clock::now();
        body(i);
        wallUs[i] = usSince(t0);
    };
    auto timedReady = [&](std::size_t i, std::size_t done_cnt) {
        if (!track)
            return on_ready(i);
        const Clock::time_point t0 = Clock::now();
        const bool keep = on_ready(i);
        tel->afterMerge(wallUs[i], usSince(t0), res.merged, done_cnt);
        return keep;
    };

    if (workers <= 1) {
        // Inline path: the exact operation sequence the parallel merge
        // reproduces (body under a trapping context, replay, merge).
        for (std::size_t i = 0; i < num_jobs; ++i) {
            LogContext ctx;
            makeCtx(ctx, i);
            try {
                LogScope scope(ctx);
                timedBody(i);
            } catch (const std::exception& e) {
                replay(i);
                res.failed = true;
                res.failedJob = i;
                res.message = e.what();
                return res;
            }
            replay(i);
            ++res.merged;
            if (!timedReady(i, res.merged)) {
                res.stopped = true;
                return res;
            }
        }
        return res;
    }

    std::mutex mu;
    std::condition_variable cv;
    std::size_t next = 0;                       // guarded by mu
    std::vector<char> done(num_jobs, 0);        // guarded by mu
    std::size_t doneCnt = 0;                    // guarded by mu
    std::map<std::size_t, std::string> errors;  // guarded by mu
    bool cancel = false;                        // guarded by mu
    int active = workers;                       // guarded by mu

    auto workerLoop = [&]() {
        for (;;) {
            std::size_t i;
            {
                std::lock_guard<std::mutex> lk(mu);
                if (cancel || next >= num_jobs)
                    break;
                i = next++;
            }
            LogContext ctx;
            makeCtx(ctx, i);
            std::string err;
            bool ok = true;
            try {
                LogScope scope(ctx);
                timedBody(i);
            } catch (const std::exception& e) {
                ok = false;
                err = e.what();
            } catch (...) {
                ok = false;
                err = "unknown exception escaped campaign job";
            }
            {
                std::lock_guard<std::mutex> lk(mu);
                done[i] = 1;
                ++doneCnt;
                if (!ok) {
                    errors.emplace(i, std::move(err));
                    cancel = true;
                }
            }
            cv.notify_all();
        }
        {
            std::lock_guard<std::mutex> lk(mu);
            --active;
        }
        cv.notify_all();
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        pool.emplace_back(workerLoop);
    auto joinAll = [&]() {
        for (std::thread& t : pool)
            if (t.joinable())
                t.join();
    };

    try {
        for (std::size_t i = 0; i < num_jobs; ++i) {
            bool ready;
            std::size_t doneNow;
            {
                std::unique_lock<std::mutex> lk(mu);
                // Workers claim indices in ascending order, so once
                // every worker has exited an un-done job can never
                // complete: stop waiting for it.
                cv.wait(lk, [&] { return done[i] || active == 0; });
                ready = done[i] != 0;
                doneNow = doneCnt;
                if (ready) {
                    auto it = errors.find(i);
                    if (it != errors.end()) {
                        res.failed = true;
                        res.failedJob = i;
                        res.message = it->second;
                    }
                }
            }
            if (!ready)
                break;
            replay(i);
            if (res.failed)
                break;
            ++res.merged;
            if (!timedReady(i, doneNow)) {
                res.stopped = true;
                std::lock_guard<std::mutex> lk(mu);
                cancel = true;
                break;
            }
        }
        // A failure can hide beyond the merged prefix when merging
        // stopped first; surface the lowest-index one.
        if (!res.failed && !res.stopped) {
            std::lock_guard<std::mutex> lk(mu);
            if (!errors.empty()) {
                res.failed = true;
                res.failedJob = errors.begin()->first;
                res.message = errors.begin()->second;
            }
        }
    } catch (...) {
        {
            std::lock_guard<std::mutex> lk(mu);
            cancel = true;
        }
        joinAll();
        throw;
    }
    joinAll();
    return res;
}

} // namespace tmsim

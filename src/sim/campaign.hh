/**
 * @file
 * In-process parallel campaign engine: runs N independent jobs — each
 * owning fully isolated simulation state (Machine, StatsRegistry, Rng,
 * fuzz interpreter) — across a pool of host worker threads, and merges
 * their results on the caller's thread in strict job-index order
 * regardless of completion order.
 *
 * Determinism contract (see DESIGN.md section 11): because jobs share
 * no mutable state (the logging refactor made diagnostics per-context,
 * and every other simulator object is instance-owned) and because the
 * merge callback fires exactly in job-index order, a campaign run with
 * any worker count produces bitwise-identical merged output — stdout,
 * aggregated stats, replay files — to a sequential run of the same
 * jobs. jobs <= 1 does not spawn threads at all: the caller thread
 * runs body+merge per job in a plain loop, which is by construction
 * the same sequence of operations the parallel merge performs.
 *
 * Failure contract: each job body runs under a LogContext with
 * throwOnFatal set, so a worker's fatal() (or any escaped exception)
 * cancels the pool — no further jobs start, in-flight jobs drain, and
 * the failure with the smallest job index among those merged is
 * surfaced to the caller instead of exit()ing mid-merge. The merge
 * callback can also stop the campaign early by returning false
 * (e.g. "enough failing seeds reported"); that is a cancellation, not
 * a failure.
 */

#ifndef TMSIM_SIM_CAMPAIGN_HH
#define TMSIM_SIM_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace tmsim {

/** How a campaign ended early (no member set → ran to completion). */
struct CampaignResult
{
    /** A job body threw (trapped fatal() or other exception). */
    bool failed = false;
    /** Index of the failing job surfaced to the caller. */
    std::size_t failedJob = 0;
    /** The failing job's diagnostic (fatal()/exception message). */
    std::string message;
    /** Merge requested an early stop (not a failure). */
    bool stopped = false;
    /** Jobs actually merged, in index order from 0. */
    std::size_t merged = 0;

    explicit operator bool() const { return failed; }
};

/** Campaign-wide knobs shared by every call site. */
struct CampaignOptions
{
    /** Host worker threads; <= 1 runs everything inline. */
    int jobs = 1;
    /** Quiet flag of each job's LogContext (suppresses warn/inform
     *  from inside worker simulations). */
    bool quiet = false;

    // --- live telemetry ---
    //
    // Everything below is strictly OFF the bitwise-identity path: it
    // writes to stderr, the heartbeat file, and the caller-owned
    // telemetry registry only, never to merged stdout or to the
    // registry that aggregates job stats (wall-clock samples are
    // nondeterministic and would break the --jobs 1 vs --jobs N
    // identity that campaign_smoke/sweep_smoke enforce).

    /** Emit a rate-limited progress line (merged/total, failures,
     *  jobs/s, ETA) to stderr while the campaign runs. */
    bool progress = false;

    /** Write schema-versioned NDJSON heartbeat records (one JSON
     *  object per line; see STATS.md "Campaign heartbeat") to this
     *  file. Empty = off. The final record carries HDR summaries of
     *  per-job wall time and merge time. */
    std::string heartbeatFile;

    /** Minimum milliseconds between progress/heartbeat emissions.
     *  0 emits at every merge (tests). A final record/line is always
     *  emitted regardless of the interval. */
    int telemetryIntervalMs = 500;

    /** Optional caller-owned registry receiving the
     *  campaign.job_wall_us and campaign.merge_us HDR distributions.
     *  Keep it separate from the merged job-stats registry. */
    StatsRegistry* telemetry = nullptr;

    /** App-level failure count (e.g. failing fuzz seeds) shown in
     *  progress/heartbeat output; called on the caller thread. */
    std::function<std::uint64_t()> failures;
};

/** One-line JSON summary of an HDR distribution: samples, mean, p50,
 *  p90, p99 and max. The heartbeat's final record and tmsim_sweep's
 *  campaign section print the telemetry distributions with it. */
std::string distSummaryJson(const StatsRegistry::Distribution& d);

/**
 * Type-erased pool core. Most callers want the typed runCampaign()
 * wrapper below; the core exists so the threading machinery compiles
 * once.
 */
class CampaignPool
{
  public:
    /** Runs job @p index; called on a worker (or inline) under a
     *  fatal-trapping LogContext. */
    using JobFn = std::function<void(std::size_t index)>;

    /** Called on the caller's thread once job @p index (and every job
     *  before it) completed; return false to stop the campaign. */
    using ReadyFn = std::function<bool(std::size_t index)>;

    static CampaignResult run(std::size_t num_jobs,
                              const CampaignOptions& opt,
                              const JobFn& body, const ReadyFn& on_ready);
};

/**
 * Run @p num_jobs jobs of @p job (index → Result) and fold each result
 * through @p merge (index, Result&&) → bool on the caller's thread in
 * ascending index order. Results are buffered at most as long as an
 * earlier job is still running.
 */
template <typename Result, typename Job, typename Merge>
CampaignResult
runCampaign(std::size_t num_jobs, const CampaignOptions& opt, Job&& job,
            Merge&& merge)
{
    std::vector<std::optional<Result>> results(num_jobs);
    CampaignPool::JobFn body = [&](std::size_t i) {
        results[i].emplace(job(i));
    };
    CampaignPool::ReadyFn ready = [&](std::size_t i) {
        Result r = std::move(*results[i]);
        results[i].reset();
        return merge(i, std::move(r));
    };
    return CampaignPool::run(num_jobs, opt, body, ready);
}

} // namespace tmsim

#endif // TMSIM_SIM_CAMPAIGN_HH

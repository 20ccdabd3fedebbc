/**
 * @file
 * fuzz_campaign: programs generated from consecutive seeds, each run
 * through the four differential design points and checked by the
 * serializability oracle, fed through runCampaign at one job with the
 * default tick limit, the per-seed contention-policy draw (Polite and
 * Hybrid excepted, see benchProgram) and no shrinking. An episode
 * generates its programs in set-up and checks them all; a request is
 * one seed.
 * Each seed builds four small 2-4 CPU Machines, so host time goes
 * mostly to fixed per-Machine cost; the eager/undo-log paths and
 * contention policies it runs are ones jbb_sim never enters, and it
 * bypasses many-core commit broadcast.
 */

#include <memory>
#include <sstream>

#include "bench.hh"
#include "check/fuzz_driver.hh"
#include "check/oracle.hh"
#include "sim/campaign.hh"
#include "workloads/zipf.hh"

namespace tmbench {

using namespace tmsim;

namespace {

/** Seeds per episode: 2-4 s of requests on a 4-core x86 host (see
 *  README.md), and enough for ten of them beyond the episode's p99. */
constexpr std::uint64_t fuzzEpisodeSeeds = 1000;

/** Consecutive benchmark seeds draw disjoint fuzz-seed ranges. */
constexpr std::uint64_t seedStride = 1'000'000;

bool
isHang(const std::string& message)
{
    return message.rfind("simulation hit the tick limit", 0) == 0;
}

/** Host time of one seed's layer calls, summed over its configs. */
struct SeedTimes
{
    std::int64_t machineBuildNs = 0;
    std::int64_t simRunNs = 0;
    std::int64_t recordNs = 0;
    std::int64_t oracleNs = 0;
    std::int64_t mergeNs = 0;
    std::uint64_t events = 0;
    std::uint64_t instructions = 0;

    void
    add(const SeedTimes& o)
    {
        machineBuildNs += o.machineBuildNs;
        simRunNs += o.simRunNs;
        recordNs += o.recordNs;
        oracleNs += o.oracleNs;
        mergeNs += o.mergeNs;
        events += o.events;
        instructions += o.instructions;
    }
};

struct SeedResult
{
    SeedVerdict verdict;
    StatsRegistry stats;
    std::int64_t startNs = 0;
    /** Traced runs: the open request span, closed after the merge. */
    int requestSpan = -1;
    SeedTimes times;
};

/** Adds the elapsed time of its scope to a counter, and records a
 *  span when traced. */
class Timed
{
  public:
    Timed(std::int64_t& acc, SpanLog* lg, const char* name, int parent,
          std::int64_t req)
        : sum(acc), span(lg, name, parent, req), t0(nowNs())
    {
    }
    ~Timed() { sum += nowNs() - t0; }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

  private:
    std::int64_t& sum;
    Scoped span;
    std::int64_t t0;
};

/**
 * runProgramAllConfigs with each Machine built here, so the calls into
 * core, check and sim can be timed one by one. Follows
 * runProgramAllConfigs and FuzzInterp::run step for step: same
 * configs, same machine shape, first failure wins, and every executed
 * run's stats merge into @p stats_out.
 */
SeedVerdict
tracedAllConfigs(const FuzzProgram& program, StatsRegistry& stats_out,
                 SeedTimes& t, SpanLog* lg, int parent, std::int64_t req)
{
    const Tick maxTicks = FuzzInterp::defaultMaxTicks;
    std::vector<std::pair<Addr, Word>> ref;
    std::string refName;
    bool haveRef = false;

    for (const FuzzConfig& cfg : fuzzConfigs(program)) {
        FuzzInterp interp(program, cfg.htm);
        MachineConfig mc;
        mc.numCpus = program.numThreads();
        mc.htm = cfg.htm;
        mc.memBytes = 4ull * 1024 * 1024;
        std::unique_ptr<Machine> m;
        {
            Timed s(t.machineBuildNs, lg, "core.machine_build", parent, req);
            m = std::make_unique<Machine>(mc);
        }
        {
            Timed s(t.recordNs, lg, "check.record", parent, req);
            interp.attach(*m);
        }
        std::vector<std::unique_ptr<TxThread>> threads;
        {
            Scoped s(lg, "runtime.thread_setup", parent, req);
            for (int i = 0; i < program.numThreads(); ++i)
                threads.push_back(std::make_unique<TxThread>(m->cpu(i)));
            for (int i = 0; i < program.numThreads(); ++i) {
                TxThread* th = threads[static_cast<size_t>(i)].get();
                FuzzInterp* ip = &interp;
                m->spawn(i, [ip, th, i](Cpu&) -> SimTask {
                    co_await ip->threadBody(*th, i);
                });
            }
        }
        std::string escaped;
        {
            Timed s(t.simRunNs, lg, "core.sim_run", parent, req);
            try {
                m->run(maxTicks);
            } catch (const FatalError&) {
                throw; // a campaign-level failure, as in FuzzInterp::run
            } catch (const std::exception& e) {
                escaped = e.what();
            }
        }
        {
            Timed s(t.mergeNs, lg, "sim.stats_merge", parent, req);
            stats_out.mergeFrom(m->stats());
        }
        t.events += m->eventQueue().executed();
        for (int i = 0; i < m->numCpus(); ++i)
            t.instructions += m->cpu(i).instret();
        ObservedRun run;
        {
            Timed s(t.recordNs, lg, "check.record", parent, req);
            run = interp.finish(*m, !m->allDone());
        }
        {
            Scoped s(lg, "core.machine_free", parent, req);
            threads.clear();
            m.reset();
        }
        if (!escaped.empty()) {
            return {true, false, cfg.name,
                    "recorder error: exception escaped simulation: " +
                        escaped};
        }
        OracleVerdict v;
        {
            Timed s(t.oracleNs, lg, "check.oracle", parent, req);
            v = checkRun(program, run);
        }
        if (!v.ok)
            return {true, run.hang && run.error.empty(), cfg.name, v.message};
        if (!haveRef) {
            ref = run.finalInvariant;
            refName = cfg.name;
            haveRef = true;
            continue;
        }
        // Same divergence rule (and messages) as runProgramAllConfigs.
        if (run.finalInvariant.size() != ref.size()) {
            return {true, false, cfg.name,
                    "invariant snapshot shape differs from " + refName};
        }
        for (size_t i = 0; i < ref.size(); ++i) {
            if (run.finalInvariant[i] == ref[i])
                continue;
            std::ostringstream os;
            os << "cross-config divergence at 0x" << std::hex
               << ref[i].first << ": " << refName << " finished with 0x"
               << ref[i].second << " but " << cfg.name
               << " finished with 0x" << run.finalInvariant[i].second;
            return {true, false, cfg.name, os.str()};
        }
    }
    return {};
}

} // namespace

FuzzProgram
benchProgram(std::uint64_t seed)
{
    FuzzProgram p = generateProgram(seed);
    if (p.contention == ContentionPolicy::Polite ||
        p.contention == ContentionPolicy::Hybrid) {
        static constexpr ContentionPolicy live[] = {
            ContentionPolicy::Requester,
            ContentionPolicy::Timestamp,
            ContentionPolicy::Karma,
        };
        p.contention = live[hashMix64(seed) % 3];
    }
    return p;
}

WorkloadResult
runFuzzSeeds(std::uint64_t first, std::uint64_t n, const RunOptions& opt,
             std::vector<SeedVerdict>* verdicts, StatsRegistry* merged_out)
{
    WorkloadResult r;
    std::unique_ptr<SpanLog> log;
    if (opt.trace)
        log = std::make_unique<SpanLog>();
    SpanLog* lg = log.get();

    Episodes eps;
    SeedTimes total;
    std::uint64_t failures = 0, hangs = 0;
    std::string firstCounts;
    StatsRegistry firstMerged;
    do {
        // Set-up: the campaign state and the episode's programs.
        const std::int64_t t0 = nowNs();
        CampaignOptions co;
        co.jobs = 1;
        co.quiet = true;
        StatsRegistry merged;
        std::vector<FuzzProgram> programs;
        {
            Scoped s(lg, "check.generate", -1, -1);
            programs.reserve(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i)
                programs.push_back(benchProgram(first + i));
        }
        const double setupS = static_cast<double>(nowNs() - t0) / 1e9;

        LatencyHist lat = makeHist();
        std::uint64_t epFailures = 0, epHangs = 0;
        const bool firstEpisode = eps.count() == 0;
        const CampaignResult cres = runCampaign<SeedResult>(
            static_cast<std::size_t>(n), co,
            [&](std::size_t i) {
                SeedResult res;
                res.startNs = nowNs();
                const FuzzProgram& p = programs[i];
                if (!lg) {
                    const FuzzFailure f = runProgramAllConfigs(
                        p, FuzzInterp::defaultMaxTicks, &res.stats);
                    res.verdict = {f.failed, f.failed && isHang(f.message),
                                   f.config, f.message};
                    return res;
                }
                const auto req = static_cast<std::int64_t>(p.seed);
                res.requestSpan = lg->open("request", -1, req);
                res.verdict = tracedAllConfigs(p, res.stats, res.times, lg,
                                               res.requestSpan, req);
                return res;
            },
            [&](std::size_t i, SeedResult&& res) {
                {
                    Timed s(res.times.mergeNs, lg, "sim.stats_merge",
                            res.requestSpan,
                            static_cast<std::int64_t>(first + i));
                    merged.mergeFrom(res.stats);
                }
                if (res.verdict.failed) {
                    ++epFailures;
                    if (res.verdict.hang) {
                        ++epHangs;
                    } else if (firstEpisode) {
                        r.correct = false;
                        r.notes.push_back("seed " +
                                          std::to_string(first + i) +
                                          " fails [" + res.verdict.config +
                                          "]: " + res.verdict.message);
                    }
                }
                if (verdicts && firstEpisode)
                    verdicts->push_back(res.verdict);
                total.add(res.times);
                if (lg)
                    lg->close(res.requestSpan);
                lat.sample(static_cast<std::uint64_t>(nowNs() - res.startNs));
                return true;
            });

        if (cres.failed) {
            r.correct = false;
            r.notes.push_back("campaign cancelled: " + cres.message);
        }
        char line[256];
        std::snprintf(line, sizeof line,
                      "exact counts per episode: sim.ticks %llu "
                      "htm.commits %llu htm.rollbacks %llu "
                      "mem.l1_misses %llu failing %llu",
                      static_cast<unsigned long long>(
                          merged.value("sim.ticks")),
                      static_cast<unsigned long long>(
                          merged.sum("cpu*.htm.commits") +
                          merged.sum("cpu*.htm.open_commits")),
                      static_cast<unsigned long long>(
                          merged.sum("cpu*.htm.rollbacks")),
                      static_cast<unsigned long long>(
                          merged.sum("cpu*.l1.misses")),
                      static_cast<unsigned long long>(epFailures));
        if (firstEpisode) {
            firstCounts = line;
            failures = epFailures;
            hangs = epHangs;
            firstMerged.mergeFrom(merged);
        } else if (firstCounts != line) {
            r.correct = false;
            r.notes.push_back("fuzz_campaign: episode " +
                              std::to_string(eps.count()) +
                              " differs from episode 0: " + line);
        }
        r.attempted += lat.count();
        r.failed += epFailures;
        eps.add(setupS, static_cast<double>(lat.count()),
                static_cast<double>(lat.total()) / 1e9, lat);
    } while (eps.more(opt) && r.correct);

    char line[256];
    std::snprintf(line, sizeof line,
                  "seeds %llu..%llu: %llu failing (%llu tick-limit hangs)",
                  static_cast<unsigned long long>(first),
                  static_cast<unsigned long long>(first + n - 1),
                  static_cast<unsigned long long>(failures),
                  static_cast<unsigned long long>(hangs));
    r.notes.push_back(line);
    r.notes.push_back(firstCounts);
    addEndToEnd(r, eps);
    if (merged_out)
        merged_out->mergeFrom(firstMerged);

    if (!lg)
        return r;

    // Layer times are means per seed over every episode; counts are per
    // episode (every episode checks the same seeds, checked above).
    const std::uint64_t seeds = r.attempted;
    const double perSeedUs = seeds ? 1e-3 / static_cast<double>(seeds) : 0;
    const StatsRegistry& st = firstMerged;
    const double E = static_cast<double>(eps.count());
    setLayer(r, "core.machine_build_us",
             static_cast<double>(total.machineBuildNs) * perSeedUs, seeds);
    setLayer(r, "core.sim_run_us",
             static_cast<double>(total.simRunNs) * perSeedUs, seeds);
    setLayer(r, "check.record_us",
             static_cast<double>(total.recordNs) * perSeedUs, seeds);
    setLayer(r, "check.oracle_us",
             static_cast<double>(total.oracleNs) * perSeedUs, seeds);
    setLayer(r, "sim.stats_merge_us",
             static_cast<double>(total.mergeNs) * perSeedUs, seeds);
    setLayer(r, "sim.host_ns_per_event",
             total.events ? static_cast<double>(total.simRunNs) /
                                static_cast<double>(total.events)
                          : 0.0,
             total.events);
    setLayer(r, "sim.events", static_cast<double>(total.events) / E);
    setLayer(r, "sim.ticks", static_cast<double>(st.value("sim.ticks")));
    setLayer(r, "core.instructions",
             static_cast<double>(total.instructions) / E);
    setLayer(r, "mem.l1_misses",
             static_cast<double>(st.sum("cpu*.l1.misses")));
    setLayer(r, "mem.l2_misses",
             static_cast<double>(st.sum("cpu*.l2.misses")));
    setLayer(r, "mem.bus_transfers",
             static_cast<double>(st.value("bus.transfers")));
    setLayer(r, "htm.broadcast_lines",
             static_cast<double>(st.value("htm.broadcast_lines")));
    setLayer(r, "htm.index_hits",
             static_cast<double>(st.value("htm.index_hits")));
    setLayer(r, "htm.sig_filtered",
             static_cast<double>(st.value("htm.sig_filtered")));
    setLayer(r, "htm.commits",
             static_cast<double>(st.sum("cpu*.htm.commits") +
                                 st.sum("cpu*.htm.open_commits")));
    setLayer(r, "htm.rollbacks",
             static_cast<double>(st.sum("cpu*.htm.rollbacks")));
    setLayer(r, "htm.commit_rate", st.formulaValue("htm.commit_rate"));
    setLayer(r, "htm.wasted_cycles",
             static_cast<double>(st.sum("cpu*.htm.wasted_cycles")));
    setLayer(r, "htm.cm.escalations",
             static_cast<double>(st.value("htm.cm.escalations")));
    setLayer(r, "check.seeds_failing", static_cast<double>(failures), n);
    setLayer(r, "check.hangs", static_cast<double>(hangs), n);
    completeLayers(r);
    summarizeLayers(r, {lg});
    if (!opt.spanFile.empty() && !writeSpans(opt.spanFile, {lg}))
        r.notes.push_back("cannot write spans to " + opt.spanFile);
    return r;
}

WorkloadResult
runFuzzCampaign(const RunOptions& opt)
{
    return runFuzzSeeds(1 + opt.seed * seedStride, fuzzEpisodeSeeds, opt);
}

} // namespace tmbench

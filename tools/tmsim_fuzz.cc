/**
 * @file
 * tmsim_fuzz — cross-config differential schedule fuzzer. For each
 * seed it generates a parallel transactional program, runs it under
 * the four contrasted HTM design points, checks every run against the
 * serializability oracle, and compares the mode-invariant final state
 * across configs. Failing seeds are shrunk and written as replay files
 * that this tool (and the ctest suite) can deterministically re-run.
 *
 * Campaigns fan out across host worker threads with --jobs N: each
 * seed is one isolated job (own machines, stats, interpreters) and the
 * results merge in seed order, so verdicts, shrunk replays, merged
 * stats and all output are bitwise-identical to a --jobs 1 run of the
 * same seeds. Failing seeds are shrunk sequentially on the merging
 * thread, keeping shrink determinism trivially independent of the
 * worker count.
 *
 *   tmsim_fuzz --seeds 1000 --jobs 8
 *   tmsim_fuzz --replay tests/replays/foo.replay --expect-fail
 *   tmsim_fuzz --selftest-inject
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "check/fuzz_driver.hh"
#include "check/fuzz_program.hh"
#include "sim/campaign.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/stats.hh"

using namespace tmsim;

namespace {

void
usage()
{
    std::printf(
        "usage: tmsim_fuzz [options]\n"
        "  --seeds N          fuzz N sequential seeds (default 200)\n"
        "  --seed-start S     first seed (default 1)\n"
        "  --jobs N           host worker threads for the campaign "
        "(default 1;\n"
        "                     results are identical for any N)\n"
        "  --json-stats FILE  write the campaign's merged stats "
        "registry as JSON\n"
        "  --replay FILE      re-run one replay file instead of fuzzing\n"
        "  --expect-fail      with --replay: exit 0 iff the replay "
        "still fails\n"
        "  --out-dir DIR      where failing-seed replays are written "
        "(default .)\n"
        "  --max-ticks N      per-run simulated tick limit\n"
        "  --shrink-runs N    differential-run budget for shrinking "
        "(default 400)\n"
        "  --contention P     force one contention policy (requester|"
        "timestamp|karma|polite|hybrid)\n"
        "                     instead of the per-seed draw; also "
        "overrides replays\n"
        "  --rset-cap N       bound every config's per-level read-set "
        "to N lines\n"
        "  --wset-cap N       bound every config's per-level write-set "
        "to N lines\n"
        "  --capacity-mode M  abort|overflow: how over-cap accesses "
        "are handled\n"
        "                     (default abort); like --contention, "
        "caps also\n"
        "                     override replays and survive shrinking\n"
        "  --selftest-inject  verify the pipeline catches an injected "
        "bug\n"
        "  --progress         live progress line on stderr (merged/"
        "total,\n"
        "                     failures, seeds/s, ETA)\n"
        "  --heartbeat FILE   stream NDJSON heartbeat records (see "
        "STATS.md);\n"
        "                     the final record summarises per-seed "
        "wall and\n"
        "                     merge time distributions\n"
        "  --quiet            suppress simulator log output\n");
}

std::string
writeReplay(const std::string& out_dir, const FuzzProgram& p,
            const std::string& tag)
{
    std::ostringstream name;
    name << out_dir << "/fuzz_" << tag << ".replay";
    std::ofstream os(name.str());
    if (!os) {
        std::fprintf(stderr, "cannot write replay file %s\n",
                     name.str().c_str());
        return {};
    }
    os << p.serialize();
    return name.str();
}

void
reportFailure(const FuzzProgram& shrunk, const FuzzFailure& fail,
              const std::string& replay_path)
{
    std::printf("FAIL seed %llu [%s]: %s\n",
                static_cast<unsigned long long>(shrunk.seed),
                fail.config.c_str(), fail.message.c_str());
    if (!replay_path.empty())
        std::printf("     replay written to %s\n", replay_path.c_str());
}

/**
 * End-to-end self-test of the checking pipeline: plant a deliberately
 * unrecorded store into a generated program, assert the oracle flags
 * it, shrink, write + re-parse the replay, and assert the failure
 * reproduces identically. Exercises the same code paths a real
 * simulator bug would take.
 */
int
selftestInject(const std::string& out_dir, int shrink_runs,
               Tick max_ticks)
{
    FuzzProgram p = generateProgram(7);
    p.injectHiddenStoreAfter = 0;

    const FuzzFailure fail = runProgramAllConfigs(p, max_ticks);
    if (!fail.failed) {
        std::printf("selftest: FAIL (injected hidden store was not "
                    "detected)\n");
        return 1;
    }
    std::printf("selftest: injected bug detected [%s]: %s\n",
                fail.config.c_str(), fail.message.c_str());

    const FuzzProgram shrunk = shrinkProgram(p, shrink_runs, max_ticks);
    const FuzzFailure shrunkFail = runProgramAllConfigs(shrunk, max_ticks);
    if (!shrunkFail.failed) {
        std::printf("selftest: FAIL (shrunk program no longer fails)\n");
        return 1;
    }
    std::printf("selftest: shrunk to %d thread(s), %zu tx(s)\n",
                shrunk.numThreads(), shrunk.txs.size());

    const std::string path = writeReplay(out_dir, shrunk, "selftest");
    if (path.empty())
        return 1;
    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    FuzzProgram reparsed;
    std::string err;
    if (!FuzzProgram::parse(buf.str(), reparsed, &err)) {
        std::printf("selftest: FAIL (replay did not re-parse: %s)\n",
                    err.c_str());
        return 1;
    }
    const FuzzFailure replayFail =
        runProgramAllConfigs(reparsed, max_ticks);
    if (!replayFail.failed || replayFail.config != shrunkFail.config) {
        std::printf("selftest: FAIL (replay did not reproduce the "
                    "original failure)\n");
        return 1;
    }
    std::printf("selftest: replay reproduced [%s]: %s\n",
                replayFail.config.c_str(), replayFail.message.c_str());
    std::printf("selftest: PASS\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    std::uint64_t seeds = 200;
    std::uint64_t seedStart = 1;
    std::string replayFile;
    std::string outDir = ".";
    std::string jsonStatsFile;
    Tick maxTicks = FuzzInterp::defaultMaxTicks;
    int shrinkRuns = 400;
    int jobs = 1;
    bool expectFail = false;
    bool selftest = false;
    bool quiet = false;
    bool progress = false;
    std::string heartbeatFile;
    bool forcePolicy = false;
    ContentionPolicy policy = ContentionPolicy::Requester;
    int rsetCap = 0;
    int wsetCap = 0;
    CapacityMode capMode = CapacityMode::Abort;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--seeds") {
            seeds = parseU64(next(), "--seeds");
            if (seeds == 0)
                fatal("--seeds must be >= 1");
        } else if (arg == "--seed-start") {
            seedStart = parseU64(next(), "--seed-start");
        } else if (arg == "--jobs") {
            jobs = parseInt(next(), "--jobs", 1, 1024);
        } else if (arg == "--json-stats") {
            jsonStatsFile = next();
        } else if (arg == "--replay") {
            replayFile = next();
        } else if (arg == "--expect-fail") {
            expectFail = true;
        } else if (arg == "--out-dir") {
            outDir = next();
        } else if (arg == "--max-ticks") {
            maxTicks = parseU64(next(), "--max-ticks");
        } else if (arg == "--shrink-runs") {
            shrinkRuns = parseInt(next(), "--shrink-runs", 0);
        } else if (arg == "--contention") {
            const std::string name = next();
            if (!contentionPolicyFromName(name, policy))
                fatal("unknown contention policy '%s'", name.c_str());
            forcePolicy = true;
        } else if (arg == "--rset-cap") {
            rsetCap = parseInt(next(), "--rset-cap", 0, 100000);
        } else if (arg == "--wset-cap") {
            wsetCap = parseInt(next(), "--wset-cap", 0, 100000);
        } else if (arg == "--capacity-mode") {
            const std::string name = next();
            if (!capacityModeFromName(name, capMode))
                fatal("unknown capacity mode '%s'", name.c_str());
        } else if (arg == "--selftest-inject") {
            selftest = true;
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg == "--heartbeat") {
            heartbeatFile = next();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage();
            return 2;
        }
    }

    defaultLogContext().quiet = quiet;

    // Forced-configuration overrides, applied identically to generated,
    // replayed and re-generated (shrink input) programs.
    auto applyForced = [&](FuzzProgram& p) {
        if (forcePolicy)
            p.contention = policy;
        if (rsetCap > 0 || wsetCap > 0) {
            p.rsetCap = rsetCap;
            p.wsetCap = wsetCap;
            p.capacityMode = capMode;
        }
    };

    if (selftest)
        return selftestInject(outDir, shrinkRuns, maxTicks);

    if (!replayFile.empty()) {
        std::ifstream is(replayFile);
        if (!is)
            fatal("cannot open replay file '%s'", replayFile.c_str());
        std::stringstream buf;
        buf << is.rdbuf();
        FuzzProgram p;
        std::string err;
        if (!FuzzProgram::parse(buf.str(), p, &err))
            fatal("malformed replay file: %s", err.c_str());
        applyForced(p);
        const FuzzFailure fail = runProgramAllConfigs(p, maxTicks);
        if (fail.failed) {
            std::printf("replay FAILS [%s]: %s\n", fail.config.c_str(),
                        fail.message.c_str());
            return expectFail ? 0 : 1;
        }
        std::printf("replay passes across all configs\n");
        if (expectFail) {
            std::printf("error: --expect-fail but the replay no "
                        "longer fails\n");
            return 1;
        }
        return 0;
    }

    // The campaign: one job per seed, each with fully isolated
    // machines/stats/interpreters, merged in seed order so every
    // output below is invariant under --jobs.
    struct SeedResult
    {
        FuzzFailure fail;
        StatsRegistry stats;
    };

    constexpr int maxReported = 5;
    int failures = 0;
    StatsRegistry merged;

    CampaignOptions opt;
    opt.jobs = jobs;
    opt.quiet = quiet;
    // Telemetry goes to stderr / the heartbeat file only; the merged
    // registry stays wall-clock-free so --jobs N output is identical.
    opt.progress = progress;
    opt.heartbeatFile = heartbeatFile;
    opt.failures = [&]() -> std::uint64_t {
        return static_cast<std::uint64_t>(failures);
    };
    const CampaignResult cres = runCampaign<SeedResult>(
        static_cast<std::size_t>(seeds), opt,
        [&](std::size_t i) {
            FuzzProgram p = generateProgram(seedStart + i);
            applyForced(p);
            SeedResult r;
            r.fail = runProgramAllConfigs(p, maxTicks, &r.stats);
            return r;
        },
        [&](std::size_t i, SeedResult&& r) {
            merged.mergeFrom(r.stats);
            if (!r.fail.failed) {
                if ((i + 1) % 100 == 0) {
                    std::printf("... %llu/%llu seeds clean\n",
                                static_cast<unsigned long long>(i + 1),
                                static_cast<unsigned long long>(seeds));
                    std::fflush(stdout);
                }
                return true;
            }
            ++failures;
            const std::uint64_t s = seedStart + i;
            FuzzProgram p = generateProgram(s);
            applyForced(p);
            // Shrink sequentially on the merging thread: deterministic
            // regardless of how many workers ran the campaign.
            const FuzzProgram shrunk =
                shrinkProgram(p, shrinkRuns, maxTicks);
            // Shrinking re-checks every candidate, so the shrunk
            // program still fails (possibly with a different
            // first-failing config).
            const FuzzFailure sf = runProgramAllConfigs(shrunk, maxTicks);
            const std::string path = writeReplay(
                outDir, shrunk, "seed_" + std::to_string(s));
            reportFailure(shrunk, sf.failed ? sf : r.fail, path);
            if (failures >= maxReported) {
                std::printf("stopping after %d failures\n", failures);
                return false;
            }
            return true;
        });

    if (cres.failed) {
        std::fprintf(stderr,
                     "fatal: campaign cancelled at seed %llu: %s\n",
                     static_cast<unsigned long long>(seedStart +
                                                     cres.failedJob),
                     cres.message.c_str());
        return 1;
    }

    if (!jsonStatsFile.empty()) {
        merged.counter("campaign.seeds").set(cres.merged);
        merged.counter("campaign.seeds_failing")
            .set(static_cast<std::uint64_t>(failures));
        merged.counter("campaign.configs_per_seed").set(4);
        std::ofstream os(jsonStatsFile);
        if (!os)
            fatal("cannot open stats file '%s'", jsonStatsFile.c_str());
        merged.dumpJson(os);
    }

    if (failures == 0) {
        std::printf("OK: %llu seed(s) x 4 configs, oracle clean, "
                    "mode-invariant state identical\n",
                    static_cast<unsigned long long>(seeds));
        return 0;
    }
    std::printf("%d failing seed(s)\n", failures);
    return 1;
}

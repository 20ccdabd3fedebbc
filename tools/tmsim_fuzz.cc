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
#include <iterator>
#include <string>

#include "check/fuzz_driver.hh"
#include "check/fuzz_program.hh"
#include "sim/campaign.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/stats.hh"
#include "tool_flags.hh"

using namespace tmsim;

namespace {

void
usage()
{
    std::printf("usage: tmsim_fuzz [options]\n");
    printSeedToolHelp();
    std::printf(
        "  --jobs N           host worker threads for the campaign "
        "(default 1;\n"
        "                     results are identical for any N)\n"
        "  --shrink-runs N    differential-run budget for shrinking "
        "(default 400)\n");
    printContentionHelp();
    printCapacityHelp();
    std::printf(
        "                     --contention replaces the per-seed "
        "policy draw;\n"
        "                     it and the caps override replays and "
        "survive\n"
        "                     shrinking\n"
        "  --progress         live progress line on stderr (merged/"
        "total,\n"
        "                     failures, seeds/s, ETA)\n"
        "  --heartbeat FILE   stream NDJSON heartbeat records (see "
        "STATS.md);\n"
        "                     the final record summarises per-seed "
        "wall and\n"
        "                     merge time distributions\n");
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

    const std::string path = writeReplay(shrunk, out_dir, "fuzz_selftest");
    if (path.empty())
        return 1;
    const FuzzFailure replayFail =
        runProgramAllConfigs(loadReplay(path), max_ticks);
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
    SeedToolOptions o;
    int shrinkRuns = 400;
    int jobs = 1;
    bool progress = false;
    std::string heartbeatFile;
    // Forced configuration: --contention and the capacity flags.
    HtmConfig forced;
    bool forcePolicy = false;

    walkArgs(argc, argv, usage,
             [&](const std::string& arg, const NextArg& next) {
        if (parseSeedToolFlag(arg, next, o) ||
            parseCapacityFlag(arg, next, forced))
            return true;
        if (parseContentionFlag(arg, next, forced.contention)) {
            forcePolicy = true;
        } else if (arg == "--jobs") {
            jobs = parseInt(next(), "--jobs", 1, 1024);
        } else if (arg == "--shrink-runs") {
            shrinkRuns = parseInt(next(), "--shrink-runs", 0);
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg == "--heartbeat") {
            heartbeatFile = next();
        } else {
            return false;
        }
        return true;
    });

    defaultLogContext().quiet = o.quiet;

    // Forced-configuration overrides, applied identically to generated,
    // replayed and re-generated (shrink input) programs.
    auto applyForced = [&](FuzzProgram& p) {
        if (forcePolicy)
            p.contention = forced.contention;
        if (forced.boundedCapacity()) {
            p.rsetCap = forced.rsetCap;
            p.wsetCap = forced.wsetCap;
            p.capacityMode = forced.capacityMode;
        }
    };

    if (o.selftest)
        return selftestInject(o.outDir, shrinkRuns, o.maxTicks);

    if (!o.replayFile.empty()) {
        FuzzProgram p = loadReplay(o.replayFile);
        applyForced(p);
        const FuzzFailure fail = runProgramAllConfigs(p, o.maxTicks);
        return replayVerdict(fail.failed, fail.config, fail.message,
                             "replay passes across all configs",
                             o.expectFail);
    }

    // The campaign: one job per seed, each with fully isolated
    // machines/stats/interpreters, merged in seed order so every
    // output below is invariant under --jobs.
    struct SeedResult
    {
        FuzzFailure fail;
        StatsRegistry stats;
    };

    int failures = 0;
    StatsRegistry merged;

    CampaignOptions opt;
    opt.jobs = jobs;
    opt.quiet = o.quiet;
    // Telemetry goes to stderr / the heartbeat file only; the merged
    // registry stays wall-clock-free so --jobs N output is identical.
    opt.progress = progress;
    opt.heartbeatFile = heartbeatFile;
    opt.failures = [&]() -> std::uint64_t {
        return static_cast<std::uint64_t>(failures);
    };
    const CampaignResult cres = runCampaign<SeedResult>(
        static_cast<std::size_t>(o.seeds), opt,
        [&](std::size_t i) {
            FuzzProgram p = generateProgram(o.seedStart + i);
            applyForced(p);
            SeedResult r;
            r.fail = runProgramAllConfigs(p, o.maxTicks, &r.stats);
            return r;
        },
        [&](std::size_t i, SeedResult&& r) {
            merged.mergeFrom(r.stats);
            if (!r.fail.failed) {
                printSeedProgress(i, o.seeds);
                return true;
            }
            ++failures;
            const std::uint64_t s = o.seedStart + i;
            FuzzProgram p = generateProgram(s);
            applyForced(p);
            // Shrink sequentially on the merging thread: deterministic
            // regardless of how many workers ran the campaign.
            const FuzzProgram shrunk =
                shrinkProgram(p, shrinkRuns, o.maxTicks);
            // Shrinking re-checks every candidate, so the shrunk
            // program still fails (possibly with a different
            // first-failing config).
            const FuzzFailure sf =
                runProgramAllConfigs(shrunk, o.maxTicks);
            const FuzzFailure& shown = sf.failed ? sf : r.fail;
            const std::string path = writeReplay(
                shrunk, o.outDir, "fuzz_seed_" + std::to_string(s));
            return reportSeedFailure(shrunk.seed, shown.config,
                                     shown.message, path, failures);
        });

    if (cres.failed) {
        std::fprintf(stderr,
                     "fatal: campaign cancelled at seed %llu: %s\n",
                     static_cast<unsigned long long>(o.seedStart +
                                                     cres.failedJob),
                     cres.message.c_str());
        return 1;
    }

    if (!o.jsonStatsFile.empty()) {
        merged.counter("campaign.seeds").set(cres.merged);
        merged.counter("campaign.seeds_failing")
            .set(static_cast<std::uint64_t>(failures));
        merged.counter("campaign.configs_per_seed")
            .set(std::size(designPoints));
        std::ofstream os = openOutput(o.jsonStatsFile, "stats");
        merged.dumpJson(os);
    }

    if (failures == 0) {
        std::printf("OK: %llu seed(s) x %zu configs, oracle clean, "
                    "mode-invariant state identical\n",
                    static_cast<unsigned long long>(o.seeds),
                    std::size(designPoints));
        return 0;
    }
    std::printf("%d failing seed(s)\n", failures);
    return 1;
}

/**
 * @file
 * tmsim_diff — cross-ENGINE differential fuzzer. For each seed it
 * generates the same parallel transactional program tmsim_fuzz uses,
 * runs it once on the cycle simulator (lazy write-buffer config) and
 * N times on the native STM backend (src/stm, really parallel host
 * threads), checks every run against the serializability oracle, and
 * compares the mode-invariant final regions across engines.
 *
 * The STM is nondeterministically scheduled, so the contract is NOT
 * bit-identical commit order: each run's *observed* serialization
 * order must replay cleanly through the golden model, and the
 * commutative mode-invariant regions (Shared, Private) must reach the
 * same final values as the simulator. Base addresses differ between
 * engines, so the cross-engine comparison is positional.
 *
 *   tmsim_diff --seeds 500
 *   tmsim_diff --replay tests/replays/foo.replay --expect-fail
 *   tmsim_diff --selftest-inject
 */

#include <cstdio>
#include <sstream>
#include <string>

#include "check/fuzz_driver.hh"
#include "check/fuzz_program.hh"
#include "check/oracle.hh"
#include "check/stm_interp.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/stats.hh"
#include "tool_flags.hh"

using namespace tmsim;

namespace {

void
usage()
{
    std::printf("usage: tmsim_diff [options]\n");
    printSeedToolHelp();
    std::printf(
        "  --repeat N         STM runs per seed (default 2; each run\n"
        "                     is a fresh nondeterministic schedule)\n"
        "  --timeout-ms N     STM watchdog per run (default 10000)\n");
}

struct DiffFailure
{
    bool failed = false;
    std::string engine;  ///< "sim", "stm run K", or "sim-vs-stm"
    std::string message;

    explicit operator bool() const { return failed; }
};

std::string
describeInvariantSlot(const FuzzProgram& p, size_t idx)
{
    const size_t slots = static_cast<size_t>(p.slotsPerRegion);
    std::ostringstream os;
    os << (idx < slots ? "Shared" : "Private") << "[" << idx % slots
       << "]";
    return os.str();
}

/**
 * One seed end-to-end: simulator reference run (oracle-checked), then
 * @p repeat STM runs (each oracle-checked and compared positionally
 * against the simulator's mode-invariant snapshot).
 */
DiffFailure
diffProgram(const FuzzProgram& p, Tick max_ticks, int repeat,
            const StmConfig& scfg, StatsRegistry* stats_out)
{
    // Reference: the lazy write-buffer design point, the closest
    // simulated analogue of a lazy-versioning STM.
    FuzzInterp interp(p, fuzzConfig(p, designPoint("lazy-wb")));
    const ObservedRun simRun = interp.run(max_ticks, stats_out);
    const OracleVerdict simV = checkRun(p, simRun);
    if (!simV.ok)
        return DiffFailure{true, "sim", simV.message};

    for (int k = 0; k < repeat; ++k) {
        StmFuzzInterp stm(p, scfg);
        const ObservedRun stmRun = stm.run(stats_out);
        const OracleVerdict v = checkRun(p, stmRun);
        const std::string tag = "stm run " + std::to_string(k + 1);
        if (!v.ok)
            return DiffFailure{true, tag, v.message};
        if (stmRun.finalInvariant.size() !=
            simRun.finalInvariant.size()) {
            return DiffFailure{true, "sim-vs-stm",
                               "invariant snapshot shape differs"};
        }
        for (size_t i = 0; i < simRun.finalInvariant.size(); ++i) {
            const Word sv = simRun.finalInvariant[i].second;
            const Word tv = stmRun.finalInvariant[i].second;
            if (sv == tv)
                continue;
            std::ostringstream os;
            os << "cross-engine divergence at "
               << describeInvariantSlot(p, i) << ": sim finished with 0x"
               << std::hex << sv << " but " << tag
               << " finished with 0x" << tv;
            return DiffFailure{true, "sim-vs-stm", os.str()};
        }
    }
    return DiffFailure{};
}

/**
 * Self-test: plant a deliberately unrecorded store (executed on the
 * STM as an unlogged naked store) and assert the serializability
 * oracle flags the STM run. Validates that the cross-engine pipeline
 * can actually catch a bug, not just that clean seeds pass.
 */
int
selftestInject(Tick max_ticks, const StmConfig& scfg)
{
    FuzzProgram p = generateProgram(7);
    p.injectHiddenStoreAfter = 0;

    StmFuzzInterp stm(p, scfg);
    const ObservedRun run = stm.run(nullptr);
    const OracleVerdict v = checkRun(p, run);
    if (v.ok) {
        std::printf("selftest: FAIL (injected hidden store was not "
                    "detected on the stm engine)\n");
        return 1;
    }
    std::printf("selftest: injected bug detected [stm]: %s\n",
                v.message.c_str());

    // The full differential path must flag it too.
    const DiffFailure df = diffProgram(p, max_ticks, 1, scfg, nullptr);
    if (!df.failed) {
        std::printf("selftest: FAIL (differential driver missed the "
                    "injected bug)\n");
        return 1;
    }
    std::printf("selftest: differential driver caught it [%s]: %s\n",
                df.engine.c_str(), df.message.c_str());
    std::printf("selftest: PASS\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    SeedToolOptions o;
    int repeat = 2;
    std::uint64_t timeoutMs = 10'000;

    walkArgs(argc, argv, usage,
             [&](const std::string& arg, const NextArg& next) {
        if (parseSeedToolFlag(arg, next, o))
            return true;
        if (arg == "--repeat")
            repeat = parseInt(next(), "--repeat", 1, 1000);
        else if (arg == "--timeout-ms")
            timeoutMs = parseU64(next(), "--timeout-ms");
        else
            return false;
        return true;
    });

    defaultLogContext().quiet = o.quiet;

    StmConfig scfg;
    scfg.opTimeout = std::chrono::milliseconds(timeoutMs);

    if (o.selftest)
        return selftestInject(o.maxTicks, scfg);

    if (!o.replayFile.empty()) {
        const DiffFailure fail = diffProgram(loadReplay(o.replayFile),
                                             o.maxTicks, repeat, scfg,
                                             nullptr);
        return replayVerdict(fail.failed, fail.engine, fail.message,
                             "replay passes on both engines",
                             o.expectFail);
    }

    // Seeds run sequentially: each STM run already fans out across
    // host threads, so a seed-level worker pool would only fight it
    // for cores and add scheduling noise to the diff.
    int failures = 0;
    std::uint64_t diffed = 0;
    StatsRegistry merged;

    for (std::uint64_t i = 0; i < o.seeds; ++i) {
        const std::uint64_t s = o.seedStart + i;
        const FuzzProgram p = generateProgram(s);
        StatsRegistry stats;
        const DiffFailure fail =
            diffProgram(p, o.maxTicks, repeat, scfg, &stats);
        merged.mergeFrom(stats);
        ++diffed;
        if (!fail.failed) {
            printSeedProgress(i, o.seeds);
            continue;
        }
        ++failures;
        const std::string path =
            writeReplay(p, o.outDir, "diff_seed_" + std::to_string(s));
        if (!reportSeedFailure(s, fail.engine, fail.message, path,
                               failures))
            break;
    }

    if (!o.jsonStatsFile.empty()) {
        merged.counter("diff.seeds").set(diffed);
        merged.counter("diff.seeds_failing")
            .set(static_cast<std::uint64_t>(failures));
        merged.counter("diff.stm_runs_per_seed")
            .set(static_cast<std::uint64_t>(repeat));
        std::ofstream os = openOutput(o.jsonStatsFile, "stats");
        merged.dumpJson(os);
    }

    if (failures == 0) {
        std::printf("OK: %llu seed(s), sim + %d stm run(s) each, "
                    "oracle clean, invariant state identical\n",
                    static_cast<unsigned long long>(o.seeds), repeat);
        return 0;
    }
    std::printf("%d failing seed(s)\n", failures);
    return 1;
}

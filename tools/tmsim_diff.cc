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
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "check/fuzz_driver.hh"
#include "check/fuzz_program.hh"
#include "check/oracle.hh"
#include "check/stm_interp.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/stats.hh"

using namespace tmsim;

namespace {

void
usage()
{
    std::printf(
        "usage: tmsim_diff [options]\n"
        "  --seeds N          diff N sequential seeds (default 200)\n"
        "  --seed-start S     first seed (default 1)\n"
        "  --repeat N         STM runs per seed (default 2; each run\n"
        "                     is a fresh nondeterministic schedule)\n"
        "  --json-stats FILE  write merged sim+stm stats as JSON\n"
        "  --replay FILE      re-run one replay file instead of "
        "fuzzing\n"
        "  --expect-fail      with --replay: exit 0 iff the replay "
        "still fails\n"
        "  --out-dir DIR      where failing-seed replays are written "
        "(default .)\n"
        "  --max-ticks N      simulator tick limit per run\n"
        "  --timeout-ms N     STM watchdog per run (default 10000)\n"
        "  --selftest-inject  verify the STM pipeline catches an "
        "injected bug\n"
        "  --quiet            suppress simulator log output\n");
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
    HtmConfig simCfg;
    for (const FuzzConfig& c : fuzzConfigs(p)) {
        if (c.name == "lazy-wb")
            simCfg = c.htm;
    }
    FuzzInterp interp(p, simCfg);
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

std::string
writeReplay(const std::string& out_dir, const FuzzProgram& p,
            const std::string& tag)
{
    std::ostringstream name;
    name << out_dir << "/diff_" << tag << ".replay";
    std::ofstream os(name.str());
    if (!os) {
        std::fprintf(stderr, "cannot write replay file %s\n",
                     name.str().c_str());
        return {};
    }
    os << p.serialize();
    return name.str();
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
    std::uint64_t seeds = 200;
    std::uint64_t seedStart = 1;
    int repeat = 2;
    std::string replayFile;
    std::string outDir = ".";
    std::string jsonStatsFile;
    Tick maxTicks = FuzzInterp::defaultMaxTicks;
    std::uint64_t timeoutMs = 10'000;
    bool expectFail = false;
    bool selftest = false;
    bool quiet = false;

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
        } else if (arg == "--repeat") {
            repeat = parseInt(next(), "--repeat", 1, 1000);
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
        } else if (arg == "--timeout-ms") {
            timeoutMs = parseU64(next(), "--timeout-ms");
        } else if (arg == "--selftest-inject") {
            selftest = true;
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

    StmConfig scfg;
    scfg.opTimeout = std::chrono::milliseconds(timeoutMs);

    if (selftest)
        return selftestInject(maxTicks, scfg);

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
        const DiffFailure fail =
            diffProgram(p, maxTicks, repeat, scfg, nullptr);
        if (fail.failed) {
            std::printf("replay FAILS [%s]: %s\n", fail.engine.c_str(),
                        fail.message.c_str());
            return expectFail ? 0 : 1;
        }
        std::printf("replay passes on both engines\n");
        if (expectFail) {
            std::printf("error: --expect-fail but the replay no "
                        "longer fails\n");
            return 1;
        }
        return 0;
    }

    // Seeds run sequentially: each STM run already fans out across
    // host threads, so a seed-level worker pool would only fight it
    // for cores and add scheduling noise to the diff.
    constexpr int maxReported = 5;
    int failures = 0;
    std::uint64_t diffed = 0;
    StatsRegistry merged;

    for (std::uint64_t i = 0; i < seeds; ++i) {
        const std::uint64_t s = seedStart + i;
        const FuzzProgram p = generateProgram(s);
        StatsRegistry stats;
        const DiffFailure fail =
            diffProgram(p, maxTicks, repeat, scfg, &stats);
        merged.mergeFrom(stats);
        ++diffed;
        if (!fail.failed) {
            if ((i + 1) % 100 == 0) {
                std::printf("... %llu/%llu seeds clean\n",
                            static_cast<unsigned long long>(i + 1),
                            static_cast<unsigned long long>(seeds));
                std::fflush(stdout);
            }
            continue;
        }
        ++failures;
        const std::string path =
            writeReplay(outDir, p, "seed_" + std::to_string(s));
        std::printf("FAIL seed %llu [%s]: %s\n",
                    static_cast<unsigned long long>(s),
                    fail.engine.c_str(), fail.message.c_str());
        if (!path.empty())
            std::printf("     replay written to %s\n", path.c_str());
        if (failures >= maxReported) {
            std::printf("stopping after %d failures\n", failures);
            break;
        }
    }

    if (!jsonStatsFile.empty()) {
        merged.counter("diff.seeds").set(diffed);
        merged.counter("diff.seeds_failing")
            .set(static_cast<std::uint64_t>(failures));
        merged.counter("diff.stm_runs_per_seed")
            .set(static_cast<std::uint64_t>(repeat));
        std::ofstream os(jsonStatsFile);
        if (!os)
            fatal("cannot open stats file '%s'", jsonStatsFile.c_str());
        merged.dumpJson(os);
    }

    if (failures == 0) {
        std::printf("OK: %llu seed(s), sim + %d stm run(s) each, "
                    "oracle clean, invariant state identical\n",
                    static_cast<unsigned long long>(seeds), repeat);
        return 0;
    }
    std::printf("%d failing seed(s)\n", failures);
    return 1;
}

/**
 * @file
 * The flag groups only the command-line tools share, each parsed by one
 * function and documented by one help block: --contention (tmsim_run,
 * tmsim_fuzz), the capacity bounds (tmsim_run, tmsim_fuzz, tmsim_sweep)
 * and the seed-tool flags (tmsim_fuzz, tmsim_diff), plus the output
 * steps those tools repeat. Each parseXxxFlag() is called from a
 * walkArgs() handler (sim/parse.hh) and returns false for a flag
 * outside its group. Help blocks use the tools' usage layout:
 * descriptions are indented 21 columns.
 */

#ifndef TMSIM_TOOLS_TOOL_FLAGS_HH
#define TMSIM_TOOLS_TOOL_FLAGS_HH

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "check/fuzz_interp.hh"
#include "htm/htm_config.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"

namespace tmsim {

/** --contention P into @p out. */
inline bool
parseContentionFlag(const std::string& arg, const NextArg& next,
                    ContentionPolicy& out)
{
    if (arg != "--contention")
        return false;
    out = parseChoice(next(), "--contention", contentionPolicyNames).value;
    return true;
}

inline void
printContentionHelp()
{
    std::printf("  --contention P     contention manager, one of\n"
                "                     %s\n",
                choiceList(contentionPolicyNames).c_str());
}

/** --rset-cap, --wset-cap and --capacity-mode into @p htm. */
inline bool
parseCapacityFlag(const std::string& arg, const NextArg& next,
                  HtmConfig& htm)
{
    if (arg == "--rset-cap")
        htm.rsetCap = parseInt(next(), "--rset-cap", 0, 100000);
    else if (arg == "--wset-cap")
        htm.wsetCap = parseInt(next(), "--wset-cap", 0, 100000);
    else if (arg == "--capacity-mode")
        htm.capacityMode =
            parseChoice(next(), "--capacity-mode", capacityModeNames).value;
    else
        return false;
    return true;
}

inline void
printCapacityHelp()
{
    std::printf(
        "  --rset-cap N       bound per-level read-sets to N lines\n"
        "                     (0 = unbounded, the default)\n"
        "  --wset-cap N       bound per-level write-sets to N lines\n"
        "  --capacity-mode M  over-cap handling: %s (default abort)\n",
        choiceList(capacityModeNames).c_str());
}

/** The flags of the seed tools, tmsim_fuzz and tmsim_diff. */
struct SeedToolOptions
{
    std::uint64_t seeds = 200;
    std::uint64_t seedStart = 1;
    std::string jsonStatsFile;
    std::string replayFile;
    bool expectFail = false;
    std::string outDir = ".";
    Tick maxTicks = FuzzInterp::defaultMaxTicks;
    bool selftest = false;
    bool quiet = false;
};

inline bool
parseSeedToolFlag(const std::string& arg, const NextArg& next,
                  SeedToolOptions& o)
{
    if (arg == "--seeds") {
        o.seeds = parseU64(next(), "--seeds");
        if (o.seeds == 0)
            fatal("--seeds must be >= 1");
    } else if (arg == "--seed-start") {
        o.seedStart = parseU64(next(), "--seed-start");
    } else if (arg == "--json-stats") {
        o.jsonStatsFile = next();
    } else if (arg == "--replay") {
        o.replayFile = next();
    } else if (arg == "--expect-fail") {
        o.expectFail = true;
    } else if (arg == "--out-dir") {
        o.outDir = next();
    } else if (arg == "--max-ticks") {
        o.maxTicks = parseU64(next(), "--max-ticks");
    } else if (arg == "--selftest-inject") {
        o.selftest = true;
    } else if (arg == "--quiet") {
        o.quiet = true;
    } else {
        return false;
    }
    return true;
}

inline void
printSeedToolHelp()
{
    std::printf(
        "  --seeds N          run N sequential seeds (default 200)\n"
        "  --seed-start S     first seed (default 1)\n"
        "  --json-stats FILE  write the merged stats registry as JSON\n"
        "  --replay FILE      re-run one replay file instead of seeds\n"
        "  --expect-fail      with --replay: exit 0 iff the replay "
        "still fails\n"
        "  --out-dir DIR      where failing-seed replays are written "
        "(default .)\n"
        "  --max-ticks N      simulated tick limit per run\n"
        "  --selftest-inject  verify the pipeline catches an injected "
        "bug\n"
        "  --quiet            suppress simulator log output\n");
}

/** Progress line after seed index @p i of @p seeds came out clean. */
inline void
printSeedProgress(std::uint64_t i, std::uint64_t seeds)
{
    if ((i + 1) % 100 != 0)
        return;
    std::printf("... %llu/%llu seeds clean\n",
                static_cast<unsigned long long>(i + 1),
                static_cast<unsigned long long>(seeds));
    std::fflush(stdout);
}

/**
 * Report failing seed @p seed ([@p where]: @p message) and the replay
 * written for it, if any. Returns false, after saying so, once
 * @p failures reaches the report limit and the campaign should stop.
 */
inline bool
reportSeedFailure(std::uint64_t seed, const std::string& where,
                  const std::string& message,
                  const std::string& replay_path, int failures)
{
    constexpr int maxReported = 5;
    std::printf("FAIL seed %llu [%s]: %s\n",
                static_cast<unsigned long long>(seed), where.c_str(),
                message.c_str());
    if (!replay_path.empty())
        std::printf("     replay written to %s\n", replay_path.c_str());
    if (failures < maxReported)
        return true;
    std::printf("stopping after %d failures\n", failures);
    return false;
}

/** Open @p path for writing; fatal "cannot open WHAT file" if not. */
inline std::ofstream
openOutput(const std::string& path, const char* what)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open %s file '%s'", what, path.c_str());
    return os;
}

} // namespace tmsim

#endif // TMSIM_TOOLS_TOOL_FLAGS_HH

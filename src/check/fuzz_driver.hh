/**
 * @file
 * Cross-config differential driver: runs one fuzz program under the
 * four design points the paper contrasts (eager/undo-log, eager/write-
 * buffer, lazy/write-buffer, lazy flattened), oracle-checks each run,
 * and asserts that the mode-invariant regions reach identical final
 * state everywhere. Failing programs are shrunk greedily while the
 * failure reproduces.
 */

#ifndef TMSIM_CHECK_FUZZ_DRIVER_HH
#define TMSIM_CHECK_FUZZ_DRIVER_HH

#include <string>
#include <vector>

#include "check/fuzz_interp.hh"
#include "check/fuzz_program.hh"
#include "htm/htm_config.hh"

namespace tmsim {

struct FuzzConfig
{
    std::string name;
    HtmConfig htm;
};

/** @p point with the program's uniform per-seed toggles applied
 *  (granularity, contention policy, capacity bounds). */
HtmConfig fuzzConfig(const FuzzProgram& program, const DesignPoint& point);

/** fuzzConfig() of every design point, in designPoints order. */
std::vector<FuzzConfig> fuzzConfigs(const FuzzProgram& program);

struct FuzzFailure
{
    bool failed = false;
    std::string config;  ///< config name that misbehaved
    std::string message; ///< oracle/divergence diagnostic

    explicit operator bool() const { return failed; }
};

/** Run @p program under every config; first failure wins. With
 *  @p stats_out, every executed run's machine stats merge into it. */
FuzzFailure
runProgramAllConfigs(const FuzzProgram& program,
                     Tick max_ticks = FuzzInterp::defaultMaxTicks,
                     StatsRegistry* stats_out = nullptr);

/**
 * Greedy shrink: repeatedly drop threads, thread ops and transaction
 * ops (re-running the full differential check each time) while the
 * program still fails, within a budget of @p max_runs differential
 * runs. Unreferenced transactions are pruned from the result.
 */
FuzzProgram
shrinkProgram(const FuzzProgram& program, int max_runs = 400,
              Tick max_ticks = FuzzInterp::defaultMaxTicks);

} // namespace tmsim

#endif // TMSIM_CHECK_FUZZ_DRIVER_HH

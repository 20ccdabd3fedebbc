/**
 * @file
 * StmRuntime: the process-wide shared state of the native STM backend
 * — the word-addressable transactional heap, the orec table, the
 * global version clock, the serialization-sequence counter, and the
 * per-thread stats that merge into a StatsRegistry after the threads
 * join. Host threads act on it through StmThread (stm_thread.hh).
 */

#ifndef TMSIM_STM_STM_RUNTIME_HH
#define TMSIM_STM_STM_RUNTIME_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "stm/orec_table.hh"
#include "stm/stm_config.hh"

namespace tmsim {

/** Host-side event counts of one thread; plain (unshared) fields
 *  merged single-threaded after the run. */
struct StmThreadStats
{
    std::uint64_t starts = 0;
    std::uint64_t commits = 0;
    std::uint64_t roCommits = 0;
    std::uint64_t openCommits = 0;
    std::uint64_t abortsVoluntary = 0;
    std::uint64_t violations = 0;
    std::uint64_t retries = 0;
    std::uint64_t snapshotExtensions = 0;
    std::uint64_t lockFailures = 0;
    std::uint64_t nakedLoads = 0;
    std::uint64_t nakedStores = 0;
    std::uint64_t releases = 0;
    std::uint64_t commitHandlerRuns = 0;
    std::uint64_t violationHandlerRuns = 0;
    std::uint64_t abortHandlerRuns = 0;
    StatsRegistry::Distribution readSetSize;  ///< sampled at commit
    StatsRegistry::Distribution writeSetSize; ///< sampled at commit

    void mergeFrom(const StmThreadStats& o);
};

/**
 * Shared state of one STM instance. Construct, allocate() the heap
 * layout, spawn host threads each owning an StmThread, join, then
 * read memory / merge stats from the (again single-threaded) owner.
 */
class StmRuntime
{
  public:
    explicit StmRuntime(StmConfig cfg = StmConfig{});

    const StmConfig& config() const { return cfg; }

    /** Bump-allocate @p bytes with @p align (mirrors BackingStore's
     *  interface so layout code ports over). Single-threaded. */
    Addr allocate(Addr bytes, Addr align = wordBytes);

    /** Non-transactional word access for setup/teardown code while no
     *  transactions run (plain acquire/release atomics). */
    Word read(Addr a) const;
    void write(Addr a, Word v);

    OrecTable& orecs() { return orecTable; }
    GlobalClock& clock() { return versionClock; }

    /** Tie-break sequence for serialization units that share a clock
     *  key (read-only commits, naked loads). */
    std::uint64_t
    nextSeq()
    {
        return seqCounter.fetch_add(1, std::memory_order_relaxed);
    }

    /** Arm the watchdog: operations that cannot make progress by the
     *  deadline throw StmHangError. Call before spawning threads. */
    void armWatchdog();
    std::chrono::steady_clock::time_point deadline() const { return dl; }

    /** Word cell accessor for StmThread (bounds-checked). */
    std::atomic<Word>& cell(Addr a);
    const std::atomic<Word>& cell(Addr a) const;

    /** Per-thread stats slot (valid tids: 0..63). */
    StmThreadStats& statsFor(int tid);

    /** Fold every thread's counters into @p reg under "stm.*". Call
     *  after all threads joined. */
    void mergeStats(StatsRegistry& reg) const;

  private:
    StmConfig cfg;
    std::vector<std::atomic<Word>> memWords;
    OrecTable orecTable;
    GlobalClock versionClock;
    std::atomic<std::uint64_t> seqCounter{0};
    Addr brk = 0;
    std::chrono::steady_clock::time_point dl;
    std::vector<StmThreadStats> threadStats;
};

} // namespace tmsim

#endif // TMSIM_STM_STM_RUNTIME_HH

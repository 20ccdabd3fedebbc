/**
 * @file
 * The ISA layer: one hardware CPU context exposing every instruction of
 * paper table 2 plus plain loads/stores and ALU execution, with the
 * violation/abort delivery protocol of section 4.
 *
 * Simulated software is written as coroutines calling these methods;
 * each call charges instructions and cycles and may suspend for memory
 * timing. A rollback of a raw-ISA level (the default protocols below)
 * throws TxRollback/TxAbortSignal for raw code's try/catch; the TxThread
 * runtime installs protocols that roll back the levels it owns by a
 * jump to the owning atomic() frame, which a try/catch cannot see.
 */

#ifndef TMSIM_CORE_CPU_HH
#define TMSIM_CORE_CPU_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mem_system.hh"
#include "core/tx_signals.hh"
#include "htm/htm_context.hh"
#include "mem/cache.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace tmsim {

class Cpu
{
  public:
    Cpu(CpuId id, const HtmConfig& htm_cfg, const CacheGeometry& l1_geom,
        const CacheGeometry& l2_geom, MemSystem& mem_sys,
        StatsRegistry& stats);

    Cpu(const Cpu&) = delete;
    Cpu& operator=(const Cpu&) = delete;

    CpuId id() const { return cpuId; }
    HtmContext& htm() { return ctx; }
    const HtmContext& htm() const { return ctx; }
    EventQueue& eventQueue() { return eq; }

    /** The machine-wide lifecycle tracer (never null; defaults to
     *  TxTracer::nil()). Set by the Machine at construction. */
    TxTracer* tracer() { return tr; }
    void setTracer(TxTracer* t);
    MemSystem& memSystem() { return memSys; }
    BackingStore& memory() { return memSys.memory(); }
    Tick now() const { return eq.curTick(); }

    /** Retired instruction count (CPI=1 for non-memory instructions). */
    std::uint64_t instret() const { return instrRetired; }

    /** Violations delivered to this CPU's handler protocol. */
    std::uint64_t violationsTaken() const { return violationsDelivered; }

    // --- plain execution ---

    /** Execute @p n non-memory instructions (n cycles, CPI = 1). */
    SimTask exec(std::uint64_t n);

    /** Timed load; transactional when inside a transaction. */
    WordTask load(Addr addr);

    /** Timed store; transactional when inside a transaction. */
    SimTask store(Addr addr, Word value);

    // --- transaction definition (table 2) ---

    /** Begin a (closed-nested) transaction. */
    SimTask xbegin() { return begin(TxKind::Closed); }

    /** Begin an open-nested transaction. */
    SimTask xbeginOpen() { return begin(TxKind::Open); }

    /**
     * Validate the current transaction's read-set: once this returns,
     * the transaction cannot be rolled back due to a prior access.
     */
    SimTask xvalidate();

    /**
     * Atomically commit the current (validated) transaction. Under lazy
     * detection a validated level's write set stays as xvalidate
     * broadcast and pinned it: a closed-nested child whose merge would
     * add a unit to it is refused (fatal), as is such a store.
     */
    SimTask xcommit();

    // --- state & handler management (table 2) ---

    /** Discard the top level's read/write-set and clear its pending
     *  violation bits (used by manual rollback sequences). A validated
     *  lazy level's lines come unpinned with its write set. */
    SimTask xrwsetclear();

    /** Restore the register checkpoint (cost model only: the actual
     *  restart happens by re-invoking the transaction body). */
    SimTask xregrestore();

    /**
     * Voluntarily abort the current transaction: runs the abort
     * protocol, which rolls back and transfers control to the level's
     * restart point (the default protocol throws TxAbortSignal).
     */
    SimTask xabort(Word code = 0);

    /** Re-enable violation reporting (xenviolrep). */
    void xenviolrep() { ctx.setReporting(true); }

    /**
     * xvret: re-enable reporting, promote pending violations.
     * @return true if another delivery is required.
     */
    bool xvret() { return ctx.returnFromHandler(); }

    // --- optional performance instructions (table 2) ---

    /** imld: load without read-set insertion. */
    WordTask imld(Addr addr);

    /** imst: immediate store (undo kept, no write-set insertion). */
    SimTask imst(Addr addr, Word value);

    /** imstid: idempotent immediate store (no undo information). */
    SimTask imstid(Addr addr, Word value);

    /** release: drop an address from the current read-set. */
    SimTask release(Addr addr);

    // --- handler protocol hooks (xvhcode / xahcode analogues) ---

    /** Runs on violation delivery; rolls back (throwing, or jumping to
     *  a runtime restart point), or returns to continue the
     *  interrupted transaction (xvret semantics). */
    using ViolationProtocol = std::function<SimTask(Cpu&)>;

    /** Runs on xabort; receives the abort code. Rolls back like the
     *  violation protocol; returning resumes the transaction. */
    using AbortProtocol = std::function<SimTask(Cpu&, Word)>;

    void setViolationProtocol(ViolationProtocol p);
    void setAbortProtocol(AbortProtocol p);

    // --- rollback services for protocols ---

    /**
     * Hardware rollback to @p target_level: releases commit locks held
     * by discarded levels, restores/discards speculative state, and
     * re-enables violation reporting (promoting pending conflicts).
     */
    void rawRollback(int target_level);

    /** Charge the handler-free rollback cost (paper: 6 instructions),
     *  rawRollback and throw TxRollback. */
    SimTask rollbackAndThrow(int target_level);

    /** Restart reason of the last rawRollback: true when it was caused
     *  by a capacity abort (bounded read/write-set caps, or a
     *  transactional-line eviction in CapacityMode::Abort). The
     *  runtime's retry loop consults this to skip backoff — waiting
     *  cannot shrink a footprint, and the restarted attempt already
     *  runs virtualised. */
    bool lastRollbackWasCapacity() const { return lastRollbackCapacity; }

    // --- op-class tagging (per-class tail latency) ---

    /**
     * Register (or look up) a named op class and return its dense id
     * for setOpClass(). Registration creates the chip-wide
     * htm.tx_duration_committed.<name> and
     * htm.violation_to_restart.<name> distributions (shared across
     * CPUs through the registry). Host-side only: costs no simulated
     * instructions or cycles.
     */
    int registerOpClass(const std::string& name);

    /**
     * Tag subsequent outermost transactions with op class @p id (-1,
     * the default, leaves them untagged). The class is latched at the
     * outermost xbegin and attributed to that attempt's commit
     * duration and violation-to-restart latency.
     */
    void setOpClass(int id) { curOpClass = id; }

  private:
    SimTask deliverViolations();
    SimTask defaultViolationProtocol();

    /** xbegin / xbeginOpen: push a level of @p kind. */
    SimTask begin(TxKind kind);

    /** A non-transactional access to @p unit waits here while a
     *  validated peer that would conflict with it (@p is_store: with
     *  its read set too) is still committing. */
    SimTask awaitValidatedPeers(Addr unit, bool is_store);

    /** Eager detection's check on a level's first access to @p unit:
     *  the overflow penalty, then the contention manager's verdict,
     *  which may violate this transaction. */
    SimTask eagerFirstAccess(Addr unit, bool is_write);

    /** Fatal if a write to @p addr would add a unit to the write set
     *  of level @p lvl after a lazy xvalidate broadcast and pinned it:
     *  the unit would commit without violating its readers. */
    void checkPinned(int lvl, Addr addr) const;

    /** Release the lines a validated lazy level @p lvl pins: exactly
     *  its write set (eager validation pins nothing). */
    void unpin(int lvl);

    /** Account a pending rollback-to-restart interval at xbegin. */
    void consumeRestart();

    void
    retire(std::uint64_t n)
    {
        instrRetired += n;
    }

    static void checkAlign(Addr addr);
    static int lowestLevel(std::uint32_t mask);

    CpuId cpuId;
    EventQueue& eq;
    MemSystem& memSys;
    StatsRegistry& statsReg;
    Cache l1;
    Cache l2;
    HtmContext ctx;
    ConflictDetector& det;
    TxTracer* tr;

    ViolationProtocol violationProtocol;
    AbortProtocol abortProtocol;

    std::uint64_t instrRetired = 0;
    std::uint64_t violationsDelivered = 0;

    /** Tick of the last rawRollback, pending consumption by the next
     *  xbegin (violation-to-restart latency measurement). */
    Tick restartFromTick = 0;
    bool restartPending = false;

    /** Restart-reason latch (see lastRollbackWasCapacity). */
    bool lastRollbackCapacity = false;

    StatsRegistry::Counter& statLoads;
    StatsRegistry::Counter& statStores;
    StatsRegistry::Counter& statViolationsTaken;
    StatsRegistry::Counter& statRollbacksToOutermost;
    StatsRegistry::Counter& statRollbacksToInner;
    /** Outermost (depth-1) commits: the samples counter of
     *  htm.tx_duration_committed. */
    StatsRegistry::Counter& statOuterCommits;
    /** Begins that re-start a transaction after a rollback: the
     *  samples counter of htm.violation_to_restart. */
    StatsRegistry::Counter& statRestarts;
    /** The subset of restarts whose rollback was a capacity abort. */
    StatsRegistry::Counter& statCapacityRestarts;
    /** Cycles spent in transactions that were later rolled back. */
    StatsRegistry::Counter& statWastedCycles;
    /** This CPU's share of bus.busy_cycles (shared counter with
     *  MemSystem::busFill; per-requester occupancy). */
    StatsRegistry::Counter& statBusBusy;

    /** Chip-wide outcome-split duration/latency histograms. */
    StatsRegistry::Distribution& distTxDurCommitted;
    StatsRegistry::Distribution& distTxDurViolated;
    StatsRegistry::Distribution& distVioRestart;

    /** Per-op-class slices of the commit-duration and restart-latency
     *  histograms (chip-wide, shared by name through the registry). */
    struct OpClassStats
    {
        StatsRegistry::Distribution* durCommitted;
        StatsRegistry::Distribution* vioRestart;
    };
    std::vector<OpClassStats> opClasses;
    std::unordered_map<std::string, int> opClassIds;
    /** Class for the next outermost xbegin (setOpClass). */
    int curOpClass = -1;
    /** Class latched by the current/last outermost attempt. */
    int activeOpClass = -1;
};

} // namespace tmsim

#endif // TMSIM_CORE_CPU_HH

/**
 * @file
 * Chip-wide conflict coordination between HTM contexts.
 *
 * Implements both conflict-detection styles of the paper:
 *  - Lazy (TCC): validate-time write-set broadcast that violates every
 *    active reader, plus a line-lock table that pins a validated
 *    transaction's write-set until xcommit so late accessors stall
 *    instead of reading soon-to-be-overwritten data.
 *  - Eager (UTM/LogTM): access-time checks, resolved by the
 *    contention manager (requester-wins, timestamp order, ...).
 *
 * Also provides strong atomicity for non-transactional stores.
 *
 * Conflict queries are served from an inverted sharer index
 * (track-unit -> per-CPU reader/writer level-masks, fed a bit delta by
 * every context on each per-level set change), so each query costs one
 * hash probe plus O(actual sharers) instead of O(all contexts x
 * nesting depth).
 */

#ifndef TMSIM_HTM_CONFLICT_DETECTOR_HH
#define TMSIM_HTM_CONFLICT_DETECTOR_HH

#include <coroutine>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "htm/contention.hh"
#include "htm/htm_context.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace tmsim {

class ConflictDetector
{
  public:
    ConflictDetector(EventQueue& eq, StatsRegistry& stats);

    /** Register a per-CPU context (called by the Machine at build).
     *  Contexts must share conflict-tracking granularity and line
     *  size; they report every set change to this detector. */
    void addContext(HtmContext* ctx);

    /**
     * @p ctx's reader (or, if @p is_write, writer) level-mask for
     * @p unit changed: clear @p clear_bits, then set @p set_bits. One
     * call covers a set insert, a release, a closed-nested merge-down
     * (child bit cleared, parent bit set) and a dropped level. A slot
     * whose masks both reach zero leaves the index.
     */
    void updateSharer(HtmContext* ctx, Addr unit, bool is_write,
                      std::uint32_t clear_bits, std::uint32_t set_bits);

    /** Point lock-stall span emission at @p t (the Machine's tracer). */
    void setTracer(TxTracer* t) { tracer = t; }

    // --- contention management ---

    /**
     * The chip-wide contention manager. Created from the first
     * registered context's configuration (addContext); before any
     * context exists, a default Requester manager is materialised so
     * raw users never see a null.
     */
    ContentionManager& contention();

    /** Software abandoned @p cpu's attempt sequence (a voluntary abort
     *  that will not retry): drop its fairness record so stale
     *  seniority/karma cannot leak into the next, unrelated
     *  transaction. */
    void noteSequenceAbandoned(CpuId cpu);

    /** Outcome of the lazy commit-arbitration query. */
    struct CommitYield
    {
        bool yield = false;
        CpuId peer = -1;
        Addr line = invalidAddr;
    };

    /**
     * Lazy commit arbitration: should @p committer, already holding the
     * commit token, surrender its slot instead of violating one of the
     * active readers of @p lines (Hybrid's must-win escalation)? Pure
     * query — no violation is raised. The caller keeps its speculative
     * state and pauses: Cpu::xvalidate releases the token, waits 4
     * cycles and retries, yielding at most 8 times per validation.
     */
    CommitYield commitYieldTarget(const HtmContext& committer,
                                  std::span<const Addr> lines);

    // --- lazy protocol ---

    /**
     * Validate-time broadcast of @p committer's top-level write-set:
     * every other context actively reading one of the lines is violated
     * (validated levels are never violated; they are serialised before
     * the committer).
     * @return modelled extra check cost for overflowed contexts.
     */
    Cycles broadcastWriteSet(HtmContext& committer,
                             std::span<const Addr> lines);

    /** Pin @p owner's validated write-set lines until unlock. */
    void lockLines(const HtmContext& owner, std::span<const Addr> lines);

    /** Release pinned lines and wake every stalled accessor. */
    void unlockLines(const HtmContext& owner, std::span<const Addr> lines);

    /** True if @p line is pinned by a context other than @p me. */
    bool lockedByOther(const HtmContext& me, Addr line) const;

    /** True if any of @p lines is pinned by a context other than @p me. */
    bool anyLockedByOther(const HtmContext& me,
                          std::span<const Addr> lines) const;

    /** Park until @p line is no longer pinned by somebody else. */
    SimTask waitUnlocked(const HtmContext& me, Addr line);

    // --- eager protocol ---

    enum class Verdict
    {
        Proceed,
        SelfViolate,
    };

    /**
     * Access-time conflict check for @p requester touching @p line.
     * Violates losing contexts; returns SelfViolate when the requester
     * must abort instead (validated opponent, or the contention
     * manager ruled against it).
     * When @p conflict_peer is non-null it receives the CPU id of the
     * opponent that decided a SelfViolate verdict (untouched
     * otherwise), so the caller can attribute the self-violation.
     */
    Verdict eagerCheck(HtmContext& requester, Addr line, bool is_write,
                       CpuId* conflict_peer = nullptr);

    // --- strong atomicity ---

    /**
     * A non-transactional store on @p cpu to @p line: violate every
     * active transaction speculating on the line.
     */
    void nonTxStore(CpuId cpu, Addr line);

    /**
     * True if a context other than @p cpu has a Validated (committing)
     * level whose write-set — or, for a store, read-set too — contains
     * @p unit. A validated transaction is already serialised; a
     * non-transactional access that would conflict with its sets must
     * stall until it commits, rather than read data the commit is about
     * to replace or clobber a value the committer depends on. Lazy
     * mode's line locks only pin the write-set; this also covers the
     * validated read-set and the eager validate-to-commit window.
     */
    bool validatedPeerBlocks(CpuId cpu, Addr unit, bool is_store) const;

    /**
     * Strong-atomicity value resolution for a non-transactional load:
     * if another context holds an uncommitted in-place (undo-log)
     * write of the word, return the committed value from its undo log
     * instead of @p mem_value.
     */
    Word resolveNonTxLoad(CpuId cpu, Addr word_addr, Word mem_value) const;

    /**
     * After a non-transactional store over a word speculatively
     * written in place by transactions, patch their undo entries so
     * their rollback restores the non-transactional value.
     */
    void patchInPlaceWriters(CpuId cpu, Addr line_addr, Addr word_addr,
                             Word value);

    /**
     * Extra conflict-check latency due to overflowed contexts: one
     * overflowCheckPenalty per context whose overflow structures
     * (evicted lines, or the capacity-spill log) must be consulted.
     * Charged by the CPU on every eager first-access check, before
     * and independent of the sharer-index lookup, and by
     * broadcastWriteSet unconditionally at the end of a lazy commit
     * broadcast. Each consult is counted in `htm.overflow_checks`.
     */
    Cycles overflowPenalty() const;

    // --- sharer-index test hooks ---

    /** Reader/writer level-mask the index records for (@p ctx, @p unit);
     *  must equal the context's per-level scan (levelsReading/Writing). */
    std::uint32_t indexedReaders(const HtmContext& ctx, Addr unit) const;
    std::uint32_t indexedWriters(const HtmContext& ctx, Addr unit) const;

    /** Number of units with at least one sharer (tests/stats). */
    size_t indexedUnitCount() const { return sharerIndex.size(); }

  private:
    /** One context's membership in a unit's sharer list. Entries stay
     *  sorted by CPU id so query iteration order matches the
     *  pre-index full scan exactly. */
    struct SharerSlot
    {
        HtmContext* ctx;
        std::uint32_t readers;
        std::uint32_t writers;
    };

    struct SharerEntry
    {
        std::vector<SharerSlot> sharers;
    };

    /** The sharer list for @p unit, or nullptr when no context shares
     *  it. Counts `htm.index_hits`; every caller filters the slots by
     *  the reader/writer masks it cares about. */
    const SharerEntry* lookupSharers(Addr unit) const;

    struct LockWait
    {
        ConflictDetector& det;
        Addr line;

        bool await_ready() const { return false; }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            det.lockWaiters[line].push_back(h);
        }

        void await_resume() const {}
    };

    /** A pinned line. The count handles the same CPU validating
     *  nested transactions that both wrote the line (e.g. an open
     *  transaction inside a violation handler of a validated parent). */
    struct Lock
    {
        CpuId owner;
        int count;
    };

    EventQueue& eq;
    StatsRegistry& statsRef;
    std::vector<HtmContext*> ctxs;

    /** Chip-wide contention manager (see contention()). */
    std::unique_ptr<ContentionManager> cm;

    /** Lifecycle-event sink (never null; defaults to TxTracer::nil()). */
    TxTracer* tracer;
    std::unordered_map<Addr, Lock> lockOwner;
    std::unordered_map<Addr, std::vector<std::coroutine_handle<>>>
        lockWaiters;

    /** The inverted index: track-unit -> contexts whose sets contain
     *  it, with their per-level reader/writer masks. */
    std::unordered_map<Addr, SharerEntry> sharerIndex;

    StatsRegistry::Counter& statBroadcastLines;
    StatsRegistry::Counter& statLazyViolations;
    StatsRegistry::Counter& statEagerConflicts;
    StatsRegistry::Counter& statSelfViolations;
    StatsRegistry::Counter& statLockStalls;
    StatsRegistry::Counter& statStrongAtomicityViolations;
    StatsRegistry::Counter& statIndexHits;

    /** Overflow-table consults actually charged (one per overflowed
     *  context per overflowPenalty() assessment; counted through the
     *  registry reference even from const query paths). */
    StatsRegistry::Counter& statOverflowChecks;
};

} // namespace tmsim

#endif // TMSIM_HTM_CONFLICT_DETECTOR_HH

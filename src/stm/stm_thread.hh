/**
 * @file
 * StmThread: one host thread's view of the STM — the full paper ISA
 * surface (xbegin/xbegin_open, two-phase xvalidate/xcommit, xabort,
 * imld/imst/imstid, release), the commit/violation/abort handler
 * stacks, and the atomic()/atomicOpen() retry drivers, all with the
 * same software semantics as the simulated runtime (runtime/tx_thread)
 * but implemented over orecs, a redo log and the global version clock.
 *
 * Nesting follows the paper's txstack discipline (SNIPPETS.md §3):
 * a closed-nested commit merges the child's read/write sets into the
 * parent (handlers stay registered); loads see staged writes of every
 * enclosing level (read-your-write across levels); only the outermost
 * level — or an open-nested level, which commits early — performs the
 * full two-phase commit against memory.
 */

#ifndef TMSIM_STM_STM_THREAD_HH
#define TMSIM_STM_STM_THREAD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"
#include "stm/stm_runtime.hh"

namespace tmsim {

class StmThread;

/** Rollback of levels >= targetLevel after a conflict; the atomic()
 *  driver owning targetLevel absorbs it and retries. */
struct StmRollback
{
    int targetLevel;
    Addr vaddr;
};

/** Voluntary abort of levels >= targetLevel (no retry). */
struct StmAbortSignal
{
    int targetLevel;
    Word code;
};

/** The watchdog deadline expired while an operation spun. */
struct StmHangError
{
    std::string what;
};

struct StmViolationInfo
{
    Addr vaddr;
    int targetLevel;
};

enum class StmVioAction
{
    Proceed,  ///< fall through: roll back and retry
    Continue, ///< resume the interrupted operation
};

using StmCommitFn =
    std::function<void(StmThread&, const std::vector<Word>&)>;
using StmAbortFn = StmCommitFn;
using StmViolationFn = std::function<StmVioAction(
    StmThread&, const StmViolationInfo&, const std::vector<Word>&)>;

enum class StmTxResult
{
    Committed,
    Aborted,
};

struct StmTxOutcome
{
    StmTxResult result = StmTxResult::Committed;
    Word abortCode = 0;
    int retries = 0;

    bool committed() const { return result == StmTxResult::Committed; }
};

/**
 * Serialization key of a memory-committing unit, for harnesses that
 * reconstruct a global serial order (check/stm_interp). Units sort by
 * (key, phase, seq): writers carry (commit timestamp, phase 0) and
 * read-only units (snapshot timestamp, phase 1), so a writer at
 * timestamp t precedes the readers that observed state t.
 */
struct StmCommitInfo
{
    std::uint64_t key = 0;
    int phase = 0;
    std::uint64_t seq = 0;
};

using StmTxBody = std::function<void(StmThread&)>;

class StmThread
{
  public:
    StmThread(StmRuntime& rt, int tid);

    StmThread(const StmThread&) = delete;
    StmThread& operator=(const StmThread&) = delete;

    StmRuntime& runtime() { return rt; }
    int tid() const { return tidVal; }
    Rng& rng() { return threadRng; }

    // --- raw ISA surface ---

    void xbegin();
    void xbeginOpen();
    /** Phase 1 of the two-phase commit: lock the write set, fetch the
     *  commit timestamp, validate the read set. After xvalidate the
     *  commit can no longer fail; commit handlers run next. */
    void xvalidate();
    /** Phase 2: publish the redo log, release orecs, pop the level. */
    void xcommit();
    /** Voluntary abort of the innermost level (runs abort handlers,
     *  throws StmAbortSignal). */
    void xabort(Word code = 0);

    Word txLoad(Addr a);
    void txStore(Addr a, Word v);

    /** imld: load without read-set insertion. */
    Word imld(Addr a);
    /** imst: immediate store (undo kept, no write-set insertion). */
    void imst(Addr a, Word v);
    /** imstid: idempotent immediate store (no undo information). */
    void imstid(Addr a, Word v);
    /** release: drop @p a from every live level's read set. */
    void release(Addr a);

    int depth() const { return static_cast<int>(levels.size()); }
    bool inTx() const { return !levels.empty(); }

    // --- software conventions (runtime/tx_thread analogues) ---

    /** Run @p body as a closed transaction, retrying on violation
     *  until it commits or aborts voluntarily. */
    StmTxOutcome atomic(const StmTxBody& body);
    /** Run @p body as an open-nested transaction. */
    StmTxOutcome atomicOpen(const StmTxBody& body);

    void onCommit(StmCommitFn fn, std::vector<Word> args = {});
    void onViolation(StmViolationFn fn, std::vector<Word> args = {});
    void onAbort(StmAbortFn fn, std::vector<Word> args = {});

    // --- non-transactional accesses (strong-atomicity analogues) ---

    /** Single-word serialization unit: value + its snapshot key. */
    std::pair<Word, StmCommitInfo> nakedLoad(Addr a);
    /** Single-write serialization unit: returns its commit key. */
    StmCommitInfo nakedStore(Addr a, Word v);

    /** Key of the most recent memory-committing xcommit (outermost or
     *  open) performed by this thread. */
    const StmCommitInfo& lastCommit() const { return lastCommitInfo; }

    StmThreadStats& stats() { return st; }

  private:
    struct Handler
    {
        StmCommitFn commitFn;     ///< commit/abort stacks
        StmViolationFn violationFn; ///< violation stack
        std::vector<Word> args;
    };

    struct Level
    {
        bool open = false;
        /** Redo log in program order; later entries win. */
        std::vector<std::pair<Addr, Word>> writeBuf;
        /** (address, orec version observed) of every checked read. */
        std::vector<std::pair<Addr, std::uint64_t>> reads;
        /** imst undo records (address, pre-store value), FILO. */
        std::vector<std::pair<Addr, Word>> imstUndo;
        size_t chSave = 0;
        size_t vhSave = 0;
        size_t ahSave = 0;
        /** Set by xvalidate for xcommit (phase-2 state). */
        bool validated = false;
        std::uint64_t wv = 0;
        std::vector<std::pair<std::size_t, std::uint64_t>> locks;
    };

    void beginLevel(bool open);
    StmTxOutcome runTx(bool open, const StmTxBody& body);
    /** xvalidate + commit handlers + xcommit, per paper section 4.2. */
    void commitSequence();
    /** Capped exponential spin between retries of an atomic section. */
    void backoff(int retries);

    /** Staged-write lookup across all live levels, newest first. */
    bool findStagedWrite(Addr a, Word& out) const;

    /** One consistent (value, orec version) read of @p a. */
    std::pair<Word, std::uint64_t> consistentRead(Addr a);

    /** Extend the read snapshot to now. On failure delivers a
     *  violation for the first failing read (usually throws); returns
     *  false only when a handler chose to Continue. */
    bool extendSnapshot();

    /** True if every live level's reads are valid at the current orec
     *  state; *fail_addr receives the first failing address. */
    bool validateAllReads(Addr* fail_addr) const;

    /** Validate one read entry against the current orec state.
     *  @p self_locks: lock records of an in-progress commit, so a
     *  self-locked orec validates against its pre-lock version. */
    bool readEntryValid(
        Addr a, std::uint64_t ver,
        const std::vector<std::pair<std::size_t, std::uint64_t>>*
            self_locks) const;

    /** Shallowest level whose read set contains @p a (1-based); falls
     *  back to the innermost level. */
    int violationTargetFor(Addr a) const;

    /** Run violation handlers of levels >= target (newest first);
     *  Proceed => rollback + throw StmRollback, Continue => return. */
    void deliverViolation(Addr vaddr, int target);

    /** Discard levels >= target: restore imst undo FILO, truncate the
     *  handler stacks to the target level's saved marks. */
    void rollbackTo(int target);

    void releaseLocks(Level& lv);
    void spinOrHang(int& tries, const char* where);
    void checkDeadline(const char* where) const;

    StmRuntime& rt;
    int tidVal;
    std::vector<Level> levels;
    /** Snapshot timestamp of the current nest (TL2 rv), shared by all
     *  levels and advanced by successful snapshot extensions. */
    std::uint64_t rv = 0;
    std::vector<Handler> ch;
    std::vector<Handler> vh;
    std::vector<Handler> ah;
    StmCommitInfo lastCommitInfo;
    StmThreadStats& st;
    Rng threadRng;
};

} // namespace tmsim

#endif // TMSIM_STM_STM_THREAD_HH

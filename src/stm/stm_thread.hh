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
 *
 * Storage: one flat read, write, undo and lock log per thread holds
 * every live level's entries in nest order, and a level is only its
 * marks into those logs. A closed-nested commit pops the child's marks
 * (its entries become the parent's where they lie); an open or
 * outermost commit publishes from its marks and truncates back to
 * them. The logs keep their capacity, so once warm a committing
 * transaction allocates nothing.
 */

#ifndef TMSIM_STM_STM_THREAD_HH
#define TMSIM_STM_STM_THREAD_HH

#include <cstdint>
#include <functional>
#include <span>
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
 * (key, phase): writers carry (commit timestamp, phase 0) and
 * read-only units (snapshot timestamp, phase 1), so a writer at
 * timestamp t precedes the readers that observed state t. Commit
 * timestamps are unique, so two units tie only if both are read-only
 * and observed the same state t; any order among them is a valid
 * serialization, and the harness keeps one thread's tied units in
 * program order.
 */
struct StmCommitInfo
{
    std::uint64_t key = 0;
    int phase = 0;
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

    /** (orec index, version before this thread locked it). */
    using LockRecord = std::pair<std::size_t, std::uint64_t>;

    /** One live nesting level: where its entries start in each
     *  per-thread log and handler stack. Its entries run from its
     *  marks to the next level's marks (or the log's end). */
    struct Level
    {
        bool open = false;
        std::size_t readMark = 0;
        std::size_t writeMark = 0;
        std::size_t undoMark = 0;
        /** A commit handler running between this level's two phases
         *  may commit an open-nested level, so lock records nest too. */
        std::size_t lockMark = 0;
        std::size_t chSave = 0;
        std::size_t vhSave = 0;
        std::size_t ahSave = 0;
        /** Set by xvalidate for xcommit (phase-2 state). */
        bool validated = false;
        std::uint64_t wv = 0;
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

    /** Validate one read entry against the current orec state.
     *  @p self_locks: lock records of an in-progress commit, so a
     *  self-locked orec validates against its pre-lock version. */
    bool readEntryValid(Addr a, std::uint64_t ver,
                        std::span<const LockRecord> self_locks) const;

    /** True if the reads logged from @p from on are valid at the
     *  current orec state; *fail_addr receives the first failing
     *  address. */
    bool readsValid(std::size_t from, std::span<const LockRecord> self_locks,
                    Addr* fail_addr) const;

    /** Shallowest level whose read set contains @p a (1-based); falls
     *  back to the innermost level. */
    int violationTargetFor(Addr a) const;

    /** Run violation handlers of levels >= target (newest first);
     *  Proceed => rollback + throw StmRollback, Continue => return. */
    void deliverViolation(Addr vaddr, int target);

    /** Discard levels >= target: restore imst undo FILO, truncate the
     *  logs and handler stacks to the target level's marks. */
    void rollbackTo(int target);

    /** Give back the orecs locked from lock record @p mark on, at
     *  their pre-lock versions (the commit did not happen). */
    void releaseLocks(std::size_t mark);
    void spinOrHang(int& tries, const char* where);
    void checkDeadline(const char* where) const;

    StmRuntime& rt;
    int tidVal;
    std::vector<Level> levels;
    /** (address, orec version observed) of every checked read. */
    std::vector<std::pair<Addr, std::uint64_t>> reads;
    /** Redo log in program order; later entries win. */
    std::vector<std::pair<Addr, Word>> writes;
    /** imst undo records (address, pre-store value), FILO. */
    std::vector<std::pair<Addr, Word>> imstUndo;
    /** Orecs held by in-progress commits, in acquisition order. */
    std::vector<LockRecord> locks;
    /** xvalidate's scratch: the committing level's sorted orecs. */
    std::vector<std::size_t> lockOrder;
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

/**
 * @file
 * Per-CPU hardware transactional state: the nesting-level stack,
 * speculative versioning (write-buffer or undo-log), authoritative
 * read/write sets, and the violation mask registers of paper table 1.
 *
 * Each fact has one copy here: the levels' sets and the undo log.
 * Queries about them scan those structures directly; the only derived
 * copy is the ConflictDetector's sharer index, which every set change
 * updates.
 */

#ifndef TMSIM_HTM_HTM_CONTEXT_HH
#define TMSIM_HTM_HTM_CONTEXT_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "htm/htm_config.hh"
#include "htm/tx_level.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tmsim {

class ConflictDetector;
class ContentionManager;
class TxTracer;

/**
 * The transactional half of one hardware CPU context. Owns the stack of
 * active nesting levels and the speculative data; knows nothing about
 * timing (the Cpu charges cycles) or about other CPUs (the
 * ConflictDetector coordinates).
 */
class HtmContext
{
  public:
    HtmContext(CpuId id, const HtmConfig& cfg, BackingStore& mem,
               Cache* l1, Cache* l2, StatsRegistry& stats);

    CpuId cpuId() const { return id; }
    const HtmConfig& config() const { return cfg; }
    Addr lineBytes() const { return lineSize; }
    Addr lineOf(Addr addr) const { return addr & ~(lineSize - 1); }

    /** The conflict-tracking unit for @p addr: the line address under
     *  line granularity, the word address under word granularity. */
    Addr
    trackUnit(Addr addr) const
    {
        return cfg.granularity == TrackGranularity::Word
                   ? (addr & ~(wordBytes - 1))
                   : lineOf(addr);
    }

    // --- transaction structure ---

    /** Number of hardware nesting levels currently active. */
    int depth() const { return static_cast<int>(levels.size()); }

    /** Nesting depth including flattened (subsumed) inner begins. */
    int logicalDepth() const;

    bool inTx() const { return !levels.empty(); }

    /** 1-based access to a nesting level. */
    TxLevel& level(int i) { return levels[static_cast<size_t>(i - 1)]; }
    const TxLevel&
    level(int i) const
    {
        return levels[static_cast<size_t>(i - 1)];
    }

    TxLevel& top() { return levels.back(); }
    const TxLevel& top() const { return levels.back(); }

    /** Begin tick of the outermost transaction (conflict age). */
    Tick age() const;

    /**
     * Push a nesting level (xbegin / xbegin_open).
     * @return true if a new hardware level was created; false if the
     * begin was subsumed (flattening mode, or hardware depth exceeded).
     */
    bool begin(TxKind kind, Tick now);

    /** True if the innermost xcommit should only pop a subsumed begin. */
    bool topIsSubsumed() const;

    /** Note a subsumed commit (decrements the flatten depth). */
    void commitSubsumed();

    // --- speculative data access (no timing) ---

    /** Transactional load visible at the current level. */
    Word specRead(Addr addr);

    /** Transactional store at the current level. */
    void specWrite(Addr addr, Word value);

    /** imld: load without read-set insertion. */
    Word immRead(Addr addr) const;

    /** imst: store to memory immediately, keeping undo information but
     *  no write-set membership. */
    void immWrite(Addr addr, Word value);

    /** imstid: idempotent immediate store: no undo information. */
    void immWriteIdempotent(Addr addr, Word value);

    /** release: drop a line from the current level's read-set. */
    void releaseLine(Addr addr);

    // --- set queries (track-unit addresses) ---
    //
    // Answered from the per-level sets (one small-set probe per active
    // level). Peers' sets are queried through the ConflictDetector's
    // sharer index instead, which every set change here keeps exact.

    /** Bitmask of levels (bit level-1) whose read-set contains @p line. */
    std::uint32_t levelsReading(Addr line) const;

    /** Bitmask of levels whose write-set contains @p line. */
    std::uint32_t levelsWriting(Addr line) const;

    /** Bitmask of levels whose status is Validated. */
    std::uint32_t validatedLevels() const { return validatedMask; }

    /** Reference scan of the level statuses behind validatedLevels();
     *  the randomized property test checks the cached mask against it. */
    std::uint32_t validatedLevelsScan() const;

    /** Register the chip-wide conflict detector, whose sharer index
     *  receives every per-level set change as a bit delta. Null (raw
     *  unit tests) keeps the context standalone. */
    void setDetector(ConflictDetector* d) { det = d; }

    /** Point lifecycle-event emission at @p t (the Machine's tracer).
     *  Defaults to TxTracer::nil(), the disabled null sink. */
    void setTracer(TxTracer* t) { tracer = t; }

    /** Register the chip-wide contention manager (the ConflictDetector
     *  wires this in addContext); it receives outer-begin/commit/
     *  rollback and tracked-access lifecycle events for fairness
     *  bookkeeping. Null (raw unit tests) disables the hooks. */
    void setContentionManager(ContentionManager* m) { cmgr = m; }

    /** UndoLog mode: this context has an uncommitted in-place write of
     *  @p word_addr. */
    bool wroteWordInPlace(Addr word_addr) const;

    /** UndoLog mode: the oldest (committed) value of @p word_addr in
     *  this context's undo log, found by a scan from the log's start.
     *  Only valid if wroteWordInPlace(). */
    Word oldestUndoValue(Addr word_addr) const;

    /** UndoLog mode: overwrite every undo entry for @p word_addr so a
     *  later rollback restores @p value (strong-atomicity store over
     *  an in-place speculative write). Scans the whole log. */
    void patchUndoEntries(Addr word_addr, Word value);

    // --- commit and rollback (no timing; returns modelled costs) ---

    void setTopValidated();

    /** Lines in the top level's write-set (broadcast / locking), in
     *  first-insert order: a view of the set itself, valid until the
     *  top level's write set changes or the level goes away. */
    std::span<const Addr>
    topWriteLines() const
    {
        return {top().writeLines.begin(), top().writeLines.end()};
    }

    /** Discard the top level's read/write-set and speculative data
     *  (xrwsetclear), keeping the sharer index in sync. */
    void clearTopSets();

    /**
     * Closed-nested commit: merge the top level into its parent.
     * @return merge cost in cycles (0 under lazy merging).
     */
    Cycles commitClosedTop();

    /**
     * Apply the top level's speculative writes to memory (outermost or
     * open-nested commit) and patch ancestor versions/undo entries.
     * @return modelled cost in cycles for ancestor-patch searches.
     */
    Cycles commitTopToMemory();

    /** Pop the committed top level (after commitTopToMemory). */
    void popCommittedTop();

    /**
     * Roll back levels top..@p target (inclusive): restore undo data,
     * discard buffers/sets, clear cache annotations and violation-mask
     * bits for the discarded levels.
     */
    void rollbackTo(int target);

    // --- violation registers (paper table 1) ---

    /** Record a conflict hitting @p mask levels at line @p where.
     *  @p attacker is the CPU whose access caused the conflict (-1
     *  when unknown, e.g. test-injected violations). The xvaddr /
     *  xvattacker report registers latch the FIRST undelivered
     *  conflict; later conflicts only accumulate mask bits until the
     *  report is consumed (consumeReport) or every mask bit clears. */
    void raiseViolation(std::uint32_t mask, Addr where,
                        CpuId attacker = -1);

    bool reportingEnabled() const { return reporting; }
    void setReporting(bool on) { reporting = on; }

    std::uint32_t xvcurrent() const { return vcurrent; }
    std::uint32_t xvpending() const { return vpending; }
    Addr xvaddr() const { return vaddr; }

    /** CPU that caused the first unconsumed violation (-1 if unknown). */
    CpuId xvattacker() const { return vattacker; }

    /** Hardware delivered the report (saved xvaddr/xvattacker into the
     *  handler frame): unlatch so the next conflict is reported with
     *  its own address/attacker. The register values stay readable. */
    void consumeReport() { vheld = false; }

    /** Deliverable = reporting enabled and xvcurrent nonzero. */
    bool deliverable() const { return reporting && vcurrent != 0; }

    /** xvret: re-enable reporting and promote pending bits.
     *  @return true if another delivery is required. */
    bool returnFromHandler();

    /** Clear both mask bits for @p lvl (xrwsetclear side effect). */
    void clearViolationBits(int lvl);

    /** Acknowledge every delivered violation (software "continue"). */
    void
    clearCurrentViolations()
    {
        vcurrent = 0;
        // Continuing past a capacity violation means no restart ever
        // happens; the flag must not mis-attribute a later rollback.
        // The context stays virtualised, which is exactly VTM's
        // continue-in-software-mode semantics.
        capRestartFlag = false;
        maybeReleaseReport();
    }

    /**
     * Remap mask bits that refer to levels deeper than the current
     * depth (the level committed/merged since the conflict was raised)
     * onto the current innermost level; drop everything if no
     * transaction is active.
     */
    void clampMasksToDepth();

    /**
     * Promote a pending violation bit for @p lvl into xvcurrent even
     * while reporting is disabled. Used by xvalidate: a transaction
     * with a conflict recorded against it must not validate.
     */
    void promotePendingForLevel(int lvl);

    // --- capacity / virtualisation ---

    /** Inform the context that a cache evicted a transactional line. */
    void noteEviction(const EvictInfo& info);

    /** True if conflict checks must consult the overflow structures:
     *  transactional lines were evicted out of the caches, or set
     *  entries spilled into the software overflow log. */
    bool
    overflowed() const
    {
        return overflowLines > 0 || spilledLineCount() > 0;
    }

    /**
     * Entries currently in the per-context software overflow log:
     * lines past the per-level caps under CapacityMode::Overflow, or
     * during a virtualised attempt after a capacity abort. Derived
     * from the surviving levels' authoritative set sizes, so partial
     * rollback and open-nested commit release overflow capacity
     * automatically. Always 0 when no cap is configured.
     */
    std::uint64_t spilledLineCount() const;

    /** True while the context executes virtualised: a capacity abort
     *  was taken and the restarted attempt runs with the caps lifted,
     *  spilling into the overflow log instead (XTM's abort-once,
     *  re-execute-in-software policy — guarantees the attempt sequence
     *  makes progress). Cleared when the outermost level commits. */
    bool capacityVirtualized() const { return capVirtualized; }

    /** Consume the capacity-restart flag (Cpu::rawRollback reads this
     *  to attribute the restart reason): true when the rollback being
     *  processed was triggered by a capacity abort. */
    bool takeCapacityRestart();

    /** The runtime abandoned the current attempt sequence: end any
     *  virtualised episode (the next sequence re-enforces the caps). */
    void
    noteSequenceAbandoned()
    {
        capVirtualized = false;
        capRestartFlag = false;
    }

    /** Undo-log depth (tests / stats). */
    size_t undoLogSize() const { return undoLog.size(); }

    /** Full reset of all transactional state (tests only). */
    void resetAll();

  private:
    struct UndoEntry
    {
        Addr addr;
        Word oldValue;
    };

    /** Word-granularity value visible at the current level. */
    Word readVisible(Addr word_addr) const;

    void pushUndo(Addr word_addr);

    /** A violation report is only held while a mask bit backs it. */
    void
    maybeReleaseReport()
    {
        if (vcurrent == 0 && vpending == 0)
            vheld = false;
    }

    // --- sharer-index maintenance ---
    //
    // Every mutation of a level's read/write-set funnels through these
    // so the detector's index stays equal to a per-level scan.

    /** Report a change of @p unit's reader (or, if @p is_write, writer)
     *  level-mask to the detector: @p clear_bits go, @p set_bits come. */
    void updateSharer(Addr unit, bool is_write, std::uint32_t clear_bits,
                      std::uint32_t set_bits);

    /** specRead/specWrite's tracking of @p addr at the top level: its
     *  unit joins the read (@p is_write: write) set, and both caches
     *  annotate its line. */
    void track(Addr addr, bool is_write);

    /** A unit newly entered the top level's read- or write-set. */
    void noteInsert(Addr unit, bool is_write);

    /** Capacity-bound enforcement after a top-level set insert; only
     *  called when the relevant cap is configured. */
    void enforceCapacity(bool is_write, Addr unit);

    /** Top level exceeds either configured cap. */
    bool topOverCap() const;

    /** Take a capacity abort: flip the context into virtualised mode
     *  and raise a self-violation against level @p lvl. */
    void raiseCapacityAbort(int lvl, Addr unit);

    /** Remove level @p lvl's bit from the index entry of every unit
     *  in its sets (pop, rollback, xrwsetclear, reset). */
    void dropLevelFromIndex(int lvl);

    /** Called whenever the context leaves its outermost transaction. */
    void onAllLevelsGone();

    CpuId id;
    HtmConfig cfg;
    BackingStore& mem;
    Cache* l1;
    Cache* l2;
    Addr lineSize;

    std::vector<TxLevel> levels;
    std::vector<UndoEntry> undoLog;

    /** Cached validatedLevels() mask. */
    std::uint32_t validatedMask = 0;

    /** Chip-wide conflict detector (nullable; see setDetector). */
    ConflictDetector* det = nullptr;

    /** Chip-wide contention manager (nullable; see setContentionManager). */
    ContentionManager* cmgr = nullptr;

    // Violation registers.
    std::uint32_t vcurrent = 0;
    std::uint32_t vpending = 0;
    Addr vaddr = invalidAddr;
    CpuId vattacker = -1;
    /** xvaddr/xvattacker hold an undelivered report; later raises must
     *  not clobber it. */
    bool vheld = false;
    bool reporting = true;

    /** Lifecycle-event sink (never null; defaults to TxTracer::nil()). */
    TxTracer* tracer;

    std::uint64_t overflowLines = 0;

    /** Capacity state: virtualised execution after a capacity abort,
     *  and the not-yet-consumed restart-reason flag. */
    bool capVirtualized = false;
    bool capRestartFlag = false;

    StatsRegistry::Counter& statBegins;
    StatsRegistry::Counter& statCommits;
    StatsRegistry::Counter& statOpenCommits;
    StatsRegistry::Counter& statRollbacks;
    StatsRegistry::Counter& statViolationsRaised;
    StatsRegistry::Counter& statSubsumed;
    StatsRegistry::Counter& statCapacityAborts;

    /** Chip-wide: lines spilled into software overflow logs. */
    StatsRegistry::Counter& statCapacitySpills;

    /** Chip-wide commit-time set-size histograms: sampled once per
     *  commit of any flavour, so each samples count equals
     *  sum(cpu*.htm.commits) + sum(cpu*.htm.open_commits). */
    StatsRegistry::Distribution& distRsetAtCommit;
    StatsRegistry::Distribution& distWsetAtCommit;
};

} // namespace tmsim

#endif // TMSIM_HTM_HTM_CONTEXT_HH

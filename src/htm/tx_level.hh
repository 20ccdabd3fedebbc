/**
 * @file
 * Per-nesting-level transactional state: the hardware-tracked portion
 * of a Transaction Control Block (paper figure 2).
 */

#ifndef TMSIM_HTM_TX_LEVEL_HH
#define TMSIM_HTM_TX_LEVEL_HH

#include "htm/small_set.hh"
#include "sim/types.hh"

namespace tmsim {

/** Closed vs open nesting (xbegin vs xbegin_open). */
enum class TxKind
{
    Closed,
    Open,
};

/** Status field of xstatus. */
enum class TxStatus
{
    Active,
    Validated,
};

/**
 * One active nesting level: R_i/W_i of paper figure 4. The read-set
 * and write-set here are the authoritative sets of conflict-tracking
 * units; the cache annotations mirror them for capacity/timing
 * modelling, and the ConflictDetector's sharer index mirrors them as
 * unit -> level-mask entries. Mutate the sets only through HtmContext,
 * which reports every change to the index.
 */
struct TxLevel
{
    TxKind kind = TxKind::Closed;
    TxStatus status = TxStatus::Active;

    /** Tick of the xbegin that created this level (conflict ages). */
    Tick beginTick = 0;

    /** Read and write sets of track units (lines, or words under word
     *  granularity). The read set may drop units (release); the write
     *  set only ever grows, so it iterates in first-insert order,
     *  which is the commit broadcast order. */
    FlatAddrSet<8> readLines;
    FlatAddrSet<8> writeLines;

    /** Word-granularity speculative data (VersionMode::WriteBuffer). */
    FlatAddrMap<Word> writeBuffer;

    /** Word addresses written at this level (VersionMode::UndoLog;
     *  used for open-nested ancestor patching and broadcasts). */
    FlatAddrSet<8> writtenWords;

    /** First undo-log index belonging to this level. */
    size_t undoBase = 0;

    /** Flattening-mode subsumption depth riding on this level. */
    int flattenDepth = 0;

    /** Cheap size accessors used for commit/merge cost modelling. */
    size_t readSetSize() const { return readLines.size(); }
    size_t writeSetSize() const { return writeLines.size(); }

    /** Lines of this level's sets sitting past a per-level cap, i.e.
     *  the level's contribution to the software overflow log under
     *  CapacityMode::Overflow. Derived from the authoritative set
     *  sizes, so it survives merges, releases, and partial rollback
     *  without separate bookkeeping (cap 0 = unbounded = no spill). */
    size_t
    spilledLines(int rset_cap, int wset_cap) const
    {
        size_t n = 0;
        if (rset_cap > 0 && readLines.size() > static_cast<size_t>(rset_cap))
            n += readLines.size() - static_cast<size_t>(rset_cap);
        if (wset_cap > 0 &&
            writeLines.size() > static_cast<size_t>(wset_cap))
            n += writeLines.size() - static_cast<size_t>(wset_cap);
        return n;
    }

    /** Discard all tracked sets and speculative data (xrwsetclear).
     *  Callers must first detach the level from the sharer index (see
     *  HtmContext::clearTopSets). */
    void
    clearSets()
    {
        readLines.clear();
        writeLines.clear();
        writeBuffer.clear();
        writtenWords.clear();
    }
};

} // namespace tmsim

#endif // TMSIM_HTM_TX_LEVEL_HH

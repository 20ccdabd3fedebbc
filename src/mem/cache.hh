/**
 * @file
 * Private cache model with transactional line metadata.
 *
 * The cache tracks presence and replacement for timing, and carries the
 * per-line transactional annotations of the paper's two nesting schemes
 * (section 6.3):
 *
 *  - MultiTracking: each line has R_i/W_i bits for every nesting level
 *    (figure 4a). Rollback gang-clears a level; closed commit ORs level
 *    i bits into level i-1.
 *  - Associativity: each line has a single R/W pair plus a nesting-level
 *    field NL (figure 4b); multiple versions of the same line occupy
 *    different ways of the same set. Closed commit retags NL=i lines to
 *    i-1, merging duplicates; open commit retags to NL=0.
 *
 * Architectural data and the authoritative read/write sets live in the
 * HTM engine; the cache's annotations model capacity pressure, overflow
 * (virtualisation) events, and the replication cost of the associativity
 * scheme.
 */

#ifndef TMSIM_MEM_CACHE_HH
#define TMSIM_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "mem/cache_geometry.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tmsim {

/** Which of the paper's nesting-support schemes the cache implements. */
enum class NestScheme
{
    MultiTracking,
    Associativity,
};

/**
 * Process-wide tag-memory accounting, for tests: tag arrays mapped since
 * start-up, and bytes mapped now, in live caches and in the per-thread
 * pools of parked arrays.
 */
struct TagMemory
{
    std::uint64_t mappings = 0;
    std::uint64_t bytesMapped = 0;
};
TagMemory tagMemory();

/** Result of allocating a line: what, if anything, was evicted. */
struct EvictInfo
{
    bool evicted = false;
    Addr lineAddr = invalidAddr;
    /** The victim carried read/write-set annotations: an overflow. */
    bool transactional = false;
};

class Cache
{
  public:
    Cache(std::string name, const CacheGeometry& geom, NestScheme scheme,
          int max_levels, StatsRegistry& stats);
    ~Cache();

    Cache(const Cache&) = delete;
    Cache& operator=(const Cache&) = delete;

    const CacheGeometry& geometry() const { return geom; }

    /** True if any copy/version of the line is present. */
    bool contains(Addr line_addr) const;

    /**
     * Timed lookup: touches LRU and counts hit/miss statistics.
     * @return true on hit.
     */
    bool lookup(Addr line_addr);

    /**
     * Allocate the line (after a miss was serviced). Never evicts other
     * versions of the same line. @return eviction info for the victim.
     */
    EvictInfo fill(Addr line_addr);

    /**
     * Invalidate copies of the line that carry no transactional
     * annotations (commit-broadcast snoop on other CPUs' caches).
     */
    void invalidateNonSpec(Addr line_addr);

    /** Annotate the line as read (@p is_write: written) at @p level,
     *  allocating it if absent. */
    void mark(Addr line_addr, int level, bool is_write);

    /** True if any version of the line carries any annotation. */
    bool hasTxMeta(Addr line_addr) const;

    /** True if the line is annotated read (@p is_write: written) at
     *  @p level. */
    bool marked(Addr line_addr, int level, bool is_write) const;

    /** Rollback at @p level: gang-clear that level's annotations. */
    void clearLevel(int level);

    /** Closed-nested commit: merge level @p level into @p level - 1. */
    void mergeLevelDown(int level);

    /** Open-nested commit: drop level @p level annotations, keep data. */
    void commitOpenLevel(int level);

    /** Drop every transactional annotation (whole-context reset). */
    void clearAllTx();

    /** Number of lines currently carrying annotations. */
    std::uint64_t txLineCount() const;

    /** Number of distinct versions of @p line_addr currently resident
     *  (associativity scheme replication; always 0/1 for multi-track). */
    int versionCount(Addr line_addr) const;

  private:
    /**
     * One way of one set. All-zero bytes are an empty way, so the tag
     * array starts as untouched zero pages: an invalid way's lineAddr
     * is 0 (only valid tells it from line 0), and txSlot 0 means "not
     * in txLines".
     */
    struct Line
    {
        Addr lineAddr;
        std::uint64_t lru;
        // MultiTracking: bit (level-1) set in each mask.
        std::uint32_t readMask;
        std::uint32_t writeMask;
        // Position in txLines plus one while annotated, 0 otherwise.
        std::uint32_t txSlot;
        // Associativity: nesting level of this version (0 = plain data).
        std::int16_t nl;
        bool valid;

        bool isTx() const { return readMask != 0 || writeMask != 0; }
        bool holdsTxMeta() const
        {
            return valid && (isTx() || nl != 0);
        }
    };
    static_assert(sizeof(Line) == 32);
    static_assert(std::is_trivial_v<Line>,
                  "building a Cache must not write its Lines");

    std::span<Line>
    setFor(Addr line_addr)
    {
        return {lines + ((line_addr >> lineShift) & setMask) * ways, ways};
    }
    std::span<const Line>
    setFor(Addr line_addr) const
    {
        return const_cast<Cache*>(this)->setFor(line_addr);
    }
    Line* findLine(Addr line_addr);
    const Line* findLine(Addr line_addr) const;
    Line* allocate(Addr line_addr, EvictInfo* evict);
    void touch(Line& line) { line.lru = ++lruClock; }

    /** Reconcile @p line's membership in the tx-line index with its
     *  current annotation state. Call after any mutation of valid,
     *  readMask, writeMask or nl. */
    void
    syncTx(Line& line)
    {
        const bool want = line.holdsTxMeta();
        if (want && line.txSlot == 0) {
            txLines.push_back(static_cast<std::uint32_t>(&line - lines));
            line.txSlot = static_cast<std::uint32_t>(txLines.size());
        } else if (!want && line.txSlot != 0) {
            const std::uint32_t moved = txLines.back();
            txLines[line.txSlot - 1] = moved;
            lines[moved].txSlot = line.txSlot;
            txLines.pop_back();
            line.txSlot = 0;
        }
    }

    /** Invalidate @p line in place, keeping its txSlot bookkeeping. */
    void
    wipe(Line& line)
    {
        line.valid = false;
        line.lineAddr = 0;
        line.lru = 0;
        line.readMask = 0;
        line.writeMask = 0;
        line.nl = 0;
        syncTx(line);
    }

    std::string name;
    CacheGeometry geom;
    NestScheme scheme;
    int maxLevels;
    /** numSets() * assoc ways, set-major, all-zero when the cache is
     *  built: a fresh anonymous mapping of zero pages, or one a freed
     *  cache of the same name zeroed and parked in this thread's pool.
     *  Building a cache touches none of it. */
    Line* lines = nullptr;
    size_t ways = 0;
    size_t mappedBytes = 0;
    /** One bit per set that allocate() has written; ~Cache zeroes just
     *  those sets before it parks the array. */
    std::vector<std::uint64_t> dirtySets;
    /** Set of a line address: (lineAddr >> lineShift) & setMask. */
    unsigned lineShift = 0;
    Addr setMask = 0;
    /** Flat indices of every line with holdsTxMeta(); lets commit and
     *  rollback touch only annotated lines instead of the whole cache. */
    std::vector<std::uint32_t> txLines;
    std::uint64_t lruClock = 0;

    StatsRegistry::Counter& statHits;
    StatsRegistry::Counter& statMisses;
    StatsRegistry::Counter& statEvictions;
    StatsRegistry::Counter& statTxOverflows;
    StatsRegistry::Counter& statReplications;
};

} // namespace tmsim

#endif // TMSIM_MEM_CACHE_HH

/**
 * @file
 * Word-addressable simulated physical memory with a bump allocator for
 * workload setup.
 *
 * The image is a page table of fixed-size chunks allocated on first
 * *written* touch, so host footprint is O(touched chunks). This is
 * what lets a production-scale workload declare a multi-GiB simulated
 * address space (sharded warehouse pools, huge key ranges) and only
 * pay for the lines it actually dirties. Every untouched word reads
 * as zero.
 *
 * Reads never materialise a chunk; only writes do. A one-entry chunk
 * cache keeps the fast path at "shift, compare, index".
 */

#ifndef TMSIM_MEM_BACKING_STORE_HH
#define TMSIM_MEM_BACKING_STORE_HH

#include <memory>
#include <unordered_map>

#include "sim/types.hh"

namespace tmsim {

/**
 * Parse a TMSIM_WATCH_ADDR-style watchpoint value. Returns invalidAddr
 * (watchpoint disabled) for null, empty or malformed input — with a
 * warning for the malformed case, so a typo'd address degrades to "no
 * watchpoint" loudly instead of silently watching address 0.
 */
Addr watchAddrFromEnv(const char* env);

/**
 * The architectural memory image. Committed transactional state and
 * non-speculative data live here. Access is untimed; all timing is
 * modelled by the cache hierarchy and bus.
 */
class BackingStore
{
  public:
    /** Chunk size: 64 KiB (8192 words), a power of two. */
    static constexpr Addr chunkBytes = 64 * 1024;

    /** @param size_bytes total simulated physical memory. */
    explicit BackingStore(Addr size_bytes);

    /** Read the aligned 64-bit word at @p addr. */
    Word read(Addr addr) const;

    /** Write the aligned 64-bit word at @p addr. */
    void write(Addr addr, Word value);

    /** Total size in bytes. */
    Addr size() const { return bytes; }

    /**
     * Host-side allocation of simulated memory for workload setup and
     * for the runtime's thread-private regions (TCB stacks, handler
     * stacks, undo logs). Alignment defaults to a cache line.
     * Reserving address space is free; chunks only materialise when
     * written.
     */
    Addr allocate(Addr n_bytes, Addr align = 64);

    /** Current allocation high-water mark. */
    Addr brk() const { return brkPtr; }

    /** Chunks holding at least one written word. */
    std::size_t touchedChunks() const { return chunks.size(); }

    /** Host words actually allocated for the image. */
    Addr
    hostWordsAllocated() const
    {
        return static_cast<Addr>(chunks.size()) * chunkWords;
    }

    // --- debug watchpoint (TMSIM_WATCH_ADDR) ---

    /** The watched address (invalidAddr = disabled). Per instance:
     *  initialised from the environment, which the first store of the
     *  process parses, and overridable so multi-Machine campaign
     *  workers and tests stay independent. */
    Addr watchAddr() const { return watchAddrVal; }
    void setWatchAddr(Addr a) { watchAddrVal = a; }

  private:
    void checkAddr(Addr addr) const;
    Word* chunkFor(Addr word_index, bool create) const;

    static constexpr Addr chunkWords = chunkBytes / wordBytes;
    static_assert((chunkWords & (chunkWords - 1)) == 0,
                  "chunk size must be a power of two");

    Addr bytes;
    Addr brkPtr;
    Addr watchAddrVal;

    // Chunk index -> chunk storage (all-zero on first touch), plus a
    // one-entry cache of the last chunk hit. The map and cache are
    // mutated on write only; read() of an untouched chunk returns 0
    // without materialising it.
    mutable std::unordered_map<Addr, std::unique_ptr<Word[]>> chunks;
    mutable Addr cachedChunk = ~static_cast<Addr>(0);
    mutable Word* cachedPtr = nullptr;
};

} // namespace tmsim

#endif // TMSIM_MEM_BACKING_STORE_HH

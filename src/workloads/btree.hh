/**
 * @file
 * A B-tree living entirely in simulated memory, operated through
 * transactional loads/stores. This is the shared data structure under
 * the SPECjbb-style warehouse workload (the paper parallelised
 * SPECjbb2000 "where customer tasks ... manipulate shared
 * data-structures (B-trees)").
 *
 * Node pool allocation runs open-nested so the bump pointer does not
 * serialise user transactions; a leaked node on rollback is harmless
 * (same argument the paper makes for order IDs: unique, not dense).
 */

#ifndef TMSIM_WORKLOADS_BTREE_HH
#define TMSIM_WORKLOADS_BTREE_HH

#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/tx_thread.hh"

namespace tmsim {

class SimBTree
{
  public:
    /** Fanout: max children per internal node. */
    static constexpr int order = 8;
    static constexpr int maxKeys = order - 1;

    /**
     * Build an empty tree. @p max_nodes bounds the node pool.
     */
    static SimBTree create(BackingStore& mem, size_t max_nodes);

    /** Transactional point lookup. @return value, or 0 if absent. */
    WordTask lookup(TxThread& t, Word key);

    /** Transactional insert-or-overwrite. */
    SimTask insert(TxThread& t, Word key, Word value);

    /** Transactional read-modify-write of an existing key's value.
     *  @return the new value (0 if the key is absent). */
    WordTask addDelta(TxThread& t, Word key, Word delta);

    /**
     * Host-side bulk load of sorted unique (key, value) pairs into an
     * EMPTY tree (untimed; workload initialisation).
     */
    void bulkLoad(BackingStore& mem,
                  const std::vector<std::pair<Word, Word>>& pairs);

    // --- host-side inspection (untimed; tests and verification) ---

    /** In-order (key, value) pairs. */
    std::vector<std::pair<Word, Word>> items(const BackingStore& mem) const;

    /** Structural invariants: sorted keys, fill bounds, leaf depth. */
    bool validateStructure(const BackingStore& mem) const;

    /** Number of keys stored. */
    size_t size(const BackingStore& mem) const;

  private:
    // Node layout, in words:
    //   [0]            packed header: numKeys | (isLeaf ? 1<<32 : 0)
    //   [1 .. 7]       keys
    //   [8 .. 15]      children (internal) or values (leaf, 7 used)
    static constexpr size_t nodeWords = 16;
    static constexpr Word leafBit = 1ull << 32;

    Addr headerAddr(Addr node) const { return node; }
    Addr keyAddr(Addr node, int i) const
    {
        return node + (1 + static_cast<Addr>(i)) * wordBytes;
    }
    Addr slotAddr(Addr node, int i) const
    {
        return node + (8 + static_cast<Addr>(i)) * wordBytes;
    }

    /** Open-nested node-pool bump allocation. */
    WordTask allocNode(TxThread& t, bool leaf);

    /** Split full child @p idx of @p parent (single-pass insert). */
    SimTask splitChild(TxThread& t, Addr parent, int idx, Addr child);

    void collect(const BackingStore& mem, Addr node,
                 std::vector<std::pair<Word, Word>>& out) const;
    bool validateNode(const BackingStore& mem, Addr node, Word lo,
                      Word hi, int depth, int& leaf_depth) const;

    Addr rootPtrAddr = 0;
    Addr poolNextAddr = 0;
    Addr poolBase = 0;
    Addr poolEnd = 0;

    /**
     * Per-thread spare nodes recycled by violation/abort compensation
     * handlers: a node allocated by a transaction that later rolled
     * back is unused (its initialisation was speculative) and can be
     * handed out again, bounding pool consumption under contention.
     */
    std::unordered_map<CpuId, std::vector<Word>> spares;
};

} // namespace tmsim

#endif // TMSIM_WORKLOADS_BTREE_HH

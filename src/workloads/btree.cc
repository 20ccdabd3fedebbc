#include "workloads/btree.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tmsim {

namespace {

int
numKeysOf(Word header)
{
    return static_cast<int>(header & 0xFFFFFFFFull);
}

bool
isLeafOf(Word header)
{
    return (header & (1ull << 32)) != 0;
}

Word
packHeader(int num_keys, bool leaf)
{
    return static_cast<Word>(num_keys) | (leaf ? (1ull << 32) : 0);
}

} // namespace

SimBTree
SimBTree::create(BackingStore& mem, size_t max_nodes)
{
    SimBTree t;
    Addr ctl = mem.allocate(64, 64);
    t.rootPtrAddr = ctl;
    t.poolNextAddr = ctl + wordBytes;
    t.poolBase = mem.allocate(max_nodes * nodeWords * wordBytes, 64);
    t.poolEnd = t.poolBase + max_nodes * nodeWords * wordBytes;

    // Host-side bootstrap: an empty leaf root.
    Addr root = t.poolBase;
    mem.write(t.poolNextAddr, root + nodeWords * wordBytes);
    mem.write(t.headerAddr(root), packHeader(0, true));
    mem.write(t.rootPtrAddr, root);
    return t;
}

WordTask
SimBTree::allocNode(TxThread& t, bool leaf)
{
    Word node = 0;
    std::vector<Word>& spare = spares[t.cpu().id()];

    // Compensation-based recycling is only sound when the open-nested
    // allocation genuinely commits openly. If the begin would be
    // subsumed (flattening baseline, or hardware depth exhausted), the
    // pool bump is speculative: a rollback undoes it, so there is
    // nothing to recycle — and reusing a "spare" whose bump never
    // committed would hand the same node to two transactions.
    HtmContext& ctx = t.cpu().htm();
    const HtmConfig& cfg = ctx.config();
    const bool openCommits =
        !((cfg.nesting == NestingMode::Flatten && ctx.inTx()) ||
          ctx.depth() >= cfg.maxHwLevels);

    if (openCommits && !spare.empty()) {
        node = spare.back();
        spare.pop_back();
        co_await t.work(2); // free-list pop
    } else {
        // Open-nested bump allocation: commits immediately, never
        // serialises the enclosing user transaction on the pool
        // pointer.
        co_await t.atomicOpen([&](TxThread& th) -> SimTask {
            Word next = co_await th.ld(poolNextAddr);
            if (next + nodeWords * wordBytes > poolEnd)
                fatal("SimBTree node pool exhausted");
            node = next;
            co_await th.st(poolNextAddr, next + nodeWords * wordBytes);
        });
    }

    // Compensation: if the allocating transaction rolls back, the node
    // was never linked (its initialisation was speculative) — recycle
    // it instead of leaking pool space.
    if (openCommits && t.cpu().htm().inTx()) {
        const CpuId owner = t.cpu().id();
        const Word recycled = node;
        co_await t.onViolation(
            [this, owner, recycled](TxThread&, const ViolationInfo&,
                                    const std::vector<Word>&)
                -> Task<VioAction> {
                spares[owner].push_back(recycled);
                co_return VioAction::Proceed;
            });
        co_await t.onAbort(
            [this, owner, recycled](TxThread&,
                                    const std::vector<Word>&) -> SimTask {
                spares[owner].push_back(recycled);
                co_return;
            });
    }

    // The node body is initialised speculatively by the current
    // transaction.
    co_await t.st(headerAddr(node), packHeader(0, leaf));
    co_return node;
}

WordTask
SimBTree::lookup(TxThread& t, Word key)
{
    Addr node = co_await t.ld(rootPtrAddr);
    for (;;) {
        Word header = co_await t.ld(headerAddr(node));
        int n = numKeysOf(header);
        if (isLeafOf(header)) {
            for (int i = 0; i < n; ++i) {
                Word k = co_await t.ld(keyAddr(node, i));
                if (k == key)
                    co_return co_await t.ld(slotAddr(node, i));
                if (k > key)
                    co_return 0;
            }
            co_return 0;
        }
        int idx = 0;
        while (idx < n) {
            Word k = co_await t.ld(keyAddr(node, idx));
            if (key < k)
                break;
            ++idx;
        }
        node = co_await t.ld(slotAddr(node, idx));
    }
}

SimTask
SimBTree::splitChild(TxThread& t, Addr parent, int idx, Addr child)
{
    Word childHeader = co_await t.ld(headerAddr(child));
    const bool leaf = isLeafOf(childHeader);
    Addr sibling = co_await allocNode(t, leaf);
    Word separator;

    if (leaf) {
        // Leaf split: left keeps 4, right takes 3; the separator is
        // the right sibling's first key (B+-tree style).
        constexpr int keep = 4;
        separator = co_await t.ld(keyAddr(child, keep));
        for (int i = keep; i < maxKeys; ++i) {
            Word k = co_await t.ld(keyAddr(child, i));
            Word v = co_await t.ld(slotAddr(child, i));
            co_await t.st(keyAddr(sibling, i - keep), k);
            co_await t.st(slotAddr(sibling, i - keep), v);
        }
        co_await t.st(headerAddr(sibling),
                      packHeader(maxKeys - keep, true));
        co_await t.st(headerAddr(child), packHeader(keep, true));
    } else {
        // Internal split: left keeps 3 keys, the middle key is
        // promoted, right takes 3 keys and 4 children.
        constexpr int keep = 3;
        separator = co_await t.ld(keyAddr(child, keep));
        for (int i = keep + 1; i < maxKeys; ++i) {
            Word k = co_await t.ld(keyAddr(child, i));
            co_await t.st(keyAddr(sibling, i - keep - 1), k);
        }
        for (int i = keep + 1; i <= maxKeys; ++i) {
            Word c = co_await t.ld(slotAddr(child, i));
            co_await t.st(slotAddr(sibling, i - keep - 1), c);
        }
        co_await t.st(headerAddr(sibling),
                      packHeader(maxKeys - keep - 1, false));
        co_await t.st(headerAddr(child), packHeader(keep, false));
    }

    // Make room in the (non-full) parent.
    Word parentHeader = co_await t.ld(headerAddr(parent));
    int pn = numKeysOf(parentHeader);
    for (int i = pn; i > idx; --i) {
        Word k = co_await t.ld(keyAddr(parent, i - 1));
        co_await t.st(keyAddr(parent, i), k);
    }
    for (int i = pn + 1; i > idx + 1; --i) {
        Word c = co_await t.ld(slotAddr(parent, i - 1));
        co_await t.st(slotAddr(parent, i), c);
    }
    co_await t.st(keyAddr(parent, idx), separator);
    co_await t.st(slotAddr(parent, idx + 1), sibling);
    co_await t.st(headerAddr(parent), packHeader(pn + 1, false));
}

SimTask
SimBTree::insert(TxThread& t, Word key, Word value)
{
    Addr root = co_await t.ld(rootPtrAddr);
    Word rootHeader = co_await t.ld(headerAddr(root));
    if (numKeysOf(rootHeader) == maxKeys) {
        Addr newRoot = co_await allocNode(t, false);
        co_await t.st(slotAddr(newRoot, 0), root);
        co_await splitChild(t, newRoot, 0, root);
        co_await t.st(rootPtrAddr, newRoot);
        root = newRoot;
    }

    Addr node = root;
    for (;;) {
        Word header = co_await t.ld(headerAddr(node));
        int n = numKeysOf(header);
        if (isLeafOf(header)) {
            // Overwrite or sorted insert.
            std::vector<Word> keys(static_cast<size_t>(n));
            for (int i = 0; i < n; ++i)
                keys[static_cast<size_t>(i)] =
                    co_await t.ld(keyAddr(node, i));
            int pos = 0;
            while (pos < n && keys[static_cast<size_t>(pos)] < key)
                ++pos;
            if (pos < n && keys[static_cast<size_t>(pos)] == key) {
                co_await t.st(slotAddr(node, pos), value);
                co_return;
            }
            for (int i = n; i > pos; --i) {
                co_await t.st(keyAddr(node, i),
                              keys[static_cast<size_t>(i - 1)]);
                Word v = co_await t.ld(slotAddr(node, i - 1));
                co_await t.st(slotAddr(node, i), v);
            }
            co_await t.st(keyAddr(node, pos), key);
            co_await t.st(slotAddr(node, pos), value);
            co_await t.st(headerAddr(node), packHeader(n + 1, true));
            co_return;
        }

        int idx = 0;
        while (idx < n) {
            Word k = co_await t.ld(keyAddr(node, idx));
            if (key < k)
                break;
            ++idx;
        }
        Addr child = co_await t.ld(slotAddr(node, idx));
        Word childHeader = co_await t.ld(headerAddr(child));
        if (numKeysOf(childHeader) == maxKeys) {
            co_await splitChild(t, node, idx, child);
            Word sep = co_await t.ld(keyAddr(node, idx));
            if (key >= sep) {
                ++idx;
                child = co_await t.ld(slotAddr(node, idx));
            }
        }
        node = child;
    }
}

WordTask
SimBTree::addDelta(TxThread& t, Word key, Word delta)
{
    Addr node = co_await t.ld(rootPtrAddr);
    for (;;) {
        Word header = co_await t.ld(headerAddr(node));
        int n = numKeysOf(header);
        if (isLeafOf(header)) {
            for (int i = 0; i < n; ++i) {
                Word k = co_await t.ld(keyAddr(node, i));
                if (k == key) {
                    Word v = co_await t.ld(slotAddr(node, i));
                    co_await t.st(slotAddr(node, i), v + delta);
                    co_return v + delta;
                }
                if (k > key)
                    co_return 0;
            }
            co_return 0;
        }
        int idx = 0;
        while (idx < n) {
            Word k = co_await t.ld(keyAddr(node, idx));
            if (key < k)
                break;
            ++idx;
        }
        node = co_await t.ld(slotAddr(node, idx));
    }
}

void
SimBTree::bulkLoad(BackingStore& mem,
                   const std::vector<std::pair<Word, Word>>& pairs)
{
    if (pairs.empty())
        return;
    if (size(mem) != 0)
        panic("bulkLoad into a non-empty tree");

    auto hostAlloc = [&](bool leaf) {
        Addr node = mem.read(poolNextAddr);
        if (node + nodeWords * wordBytes > poolEnd)
            fatal("SimBTree node pool exhausted during bulk load");
        mem.write(poolNextAddr, node + nodeWords * wordBytes);
        mem.write(headerAddr(node), packHeader(0, leaf));
        return node;
    };

    // Build the leaf level: 4 keys per leaf (the post-split fill).
    struct Sub
    {
        Addr node;
        Word minKey;
    };
    std::vector<Sub> level;
    constexpr int leafFill = 4;
    for (size_t off = 0; off < pairs.size(); off += leafFill) {
        Addr leaf = off == 0 ? mem.read(rootPtrAddr) : hostAlloc(true);
        int n = static_cast<int>(
            std::min<size_t>(leafFill, pairs.size() - off));
        for (int i = 0; i < n; ++i) {
            mem.write(keyAddr(leaf, i), pairs[off + i].first);
            mem.write(slotAddr(leaf, i), pairs[off + i].second);
        }
        mem.write(headerAddr(leaf), packHeader(n, true));
        level.push_back(Sub{leaf, pairs[off].first});
    }

    // Build internal levels bottom-up, 4 children per node.
    constexpr int fanFill = 4;
    while (level.size() > 1) {
        std::vector<Sub> next;
        for (size_t off = 0; off < level.size();) {
            size_t remaining = level.size() - off;
            // Never leave a trailing single-child internal node.
            int n = remaining <= fanFill
                        ? static_cast<int>(remaining)
                        : (remaining == fanFill + 1 ? fanFill - 1
                                                    : fanFill);
            Addr node = hostAlloc(false);
            for (int i = 0; i < n; ++i)
                mem.write(slotAddr(node, i), level[off + i].node);
            for (int i = 1; i < n; ++i)
                mem.write(keyAddr(node, i - 1), level[off + i].minKey);
            mem.write(headerAddr(node), packHeader(n - 1, false));
            next.push_back(Sub{node, level[off].minKey});
            off += static_cast<size_t>(n);
        }
        level = std::move(next);
    }
    mem.write(rootPtrAddr, level.front().node);
}

void
SimBTree::collect(const BackingStore& mem, Addr node,
                  std::vector<std::pair<Word, Word>>& out) const
{
    Word header = mem.read(headerAddr(node));
    int n = numKeysOf(header);
    if (isLeafOf(header)) {
        for (int i = 0; i < n; ++i)
            out.emplace_back(mem.read(keyAddr(node, i)),
                             mem.read(slotAddr(node, i)));
        return;
    }
    for (int i = 0; i <= n; ++i)
        collect(mem, mem.read(slotAddr(node, i)), out);
}

std::vector<std::pair<Word, Word>>
SimBTree::items(const BackingStore& mem) const
{
    std::vector<std::pair<Word, Word>> out;
    collect(mem, mem.read(rootPtrAddr), out);
    return out;
}

bool
SimBTree::validateNode(const BackingStore& mem, Addr node, Word lo,
                       Word hi, int depth, int& leaf_depth) const
{
    Word header = mem.read(headerAddr(node));
    int n = numKeysOf(header);
    if (n > maxKeys)
        return false;
    Word prev = lo;
    for (int i = 0; i < n; ++i) {
        Word k = mem.read(keyAddr(node, i));
        if (k < prev || k >= hi)
            return false;
        // Strictly ascending within the node (>= lo allows the first).
        if (i > 0 && k <= prev)
            return false;
        prev = k;
    }
    if (isLeafOf(header)) {
        if (leaf_depth < 0)
            leaf_depth = depth;
        return leaf_depth == depth;
    }
    Word curLo = lo;
    for (int i = 0; i <= n; ++i) {
        Word curHi = i < n ? mem.read(keyAddr(node, i)) : hi;
        if (!validateNode(mem, mem.read(slotAddr(node, i)), curLo, curHi,
                          depth + 1, leaf_depth)) {
            return false;
        }
        curLo = curHi;
    }
    return true;
}

bool
SimBTree::validateStructure(const BackingStore& mem) const
{
    int leafDepth = -1;
    return validateNode(mem, mem.read(rootPtrAddr), 0,
                        ~static_cast<Word>(0), 0, leafDepth);
}

size_t
SimBTree::size(const BackingStore& mem) const
{
    return items(mem).size();
}

} // namespace tmsim

/**
 * @file
 * Inline-capacity flat sets and open-addressed maps keyed by Addr.
 *
 * The transactional hot path inserts into and probes read/write sets
 * on every memory access; production STM runtimes (MiniVector-style
 * read/lock sets) get their speed from keeping those sets flat and
 * allocation-free. The containers here follow that recipe:
 *
 *  - FlatAddrSet<N>: dense insertion-ordered element array with N
 *    entries inline (no heap until the set outgrows them). Membership
 *    is a linear scan while the set is small — a handful of compares
 *    on contiguous memory beats any hash — and an open-addressed
 *    index of element positions once it grows past scanMax.
 *  - FlatAddrMap<V>: the same layout over (Addr, V) entries, used for
 *    the write buffer.
 *
 * Iteration visits elements in insertion order (erase() swap-removes,
 * so order is only stable for sets that never erase — which is what
 * makes a level's write set iterate in first-insert order, the commit
 * broadcast order). clear() keeps capacity, so long-lived containers
 * stop allocating once warm.
 */

#ifndef TMSIM_HTM_SMALL_SET_HH
#define TMSIM_HTM_SMALL_SET_HH

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace tmsim {

namespace flat_detail {

/** Final mixer of murmur3: full-avalanche 64-bit hash. */
inline std::uint64_t
mixAddr(Addr a)
{
    std::uint64_t x = a;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

constexpr std::uint32_t slotEmpty = 0xffffffffu;
constexpr std::uint32_t slotTomb = 0xfffffffeu;

/** Linear scan below this size; open-addressed index above. */
constexpr size_t scanMax = 16;

/**
 * Open-addressed index mapping Addr -> position in a dense array.
 * The dense array itself stores the keys; the index holds positions
 * only, so rehashing never touches the elements.
 */
class SlotIndex
{
  public:
    bool active() const { return !slots.empty(); }

    void
    reset()
    {
        slots.clear();
        used = 0;
        tombs = 0;
    }

    /** (Re)build for @p n keys produced by @p key_at(i). */
    template <typename KeyAt>
    void
    build(size_t n, KeyAt key_at)
    {
        size_t want = 64;
        while (want < n * 2)
            want <<= 1;
        slots.assign(want, slotEmpty);
        used = n;
        tombs = 0;
        for (size_t i = 0; i < n; ++i)
            place(key_at(i), static_cast<std::uint32_t>(i));
    }

    /** Position of @p addr, or slotEmpty if absent. */
    template <typename KeyAt>
    std::uint32_t
    find(Addr addr, KeyAt key_at) const
    {
        const size_t mask = slots.size() - 1;
        size_t i = mixAddr(addr) & mask;
        for (;;) {
            const std::uint32_t s = slots[i];
            if (s == slotEmpty)
                return slotEmpty;
            if (s != slotTomb && key_at(s) == addr)
                return s;
            i = (i + 1) & mask;
        }
    }

    /** Record @p addr at dense position @p pos (addr must be absent).
     *  Call rehashIfNeeded() with the dense key accessor afterwards. */
    void
    insert(Addr addr, std::uint32_t pos)
    {
        place(addr, pos);
        ++used;
    }

    template <typename KeyAt>
    void
    rehashIfNeeded(size_t n, KeyAt key_at)
    {
        if ((used + tombs) * 4 >= slots.size() * 3)
            build(n, key_at);
    }

    /** Drop @p addr's slot (tombstone). */
    template <typename KeyAt>
    void
    erase(Addr addr, KeyAt key_at)
    {
        const size_t mask = slots.size() - 1;
        size_t i = mixAddr(addr) & mask;
        for (;;) {
            const std::uint32_t s = slots[i];
            if (s == slotEmpty)
                return;
            if (s != slotTomb && key_at(s) == addr) {
                slots[i] = slotTomb;
                --used;
                ++tombs;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /** The key at dense position @p from moved to @p to. */
    template <typename KeyAt>
    void
    moved(Addr addr, std::uint32_t to, KeyAt key_at)
    {
        const size_t mask = slots.size() - 1;
        size_t i = mixAddr(addr) & mask;
        for (;;) {
            const std::uint32_t s = slots[i];
            if (s == slotEmpty)
                return;
            if (s != slotTomb && key_at(s) == addr) {
                slots[i] = to;
                return;
            }
            i = (i + 1) & mask;
        }
    }

  private:
    void
    place(Addr addr, std::uint32_t pos)
    {
        const size_t mask = slots.size() - 1;
        size_t i = mixAddr(addr) & mask;
        while (slots[i] != slotEmpty && slots[i] != slotTomb)
            i = (i + 1) & mask;
        slots[i] = pos;
    }

    std::vector<std::uint32_t> slots;
    size_t used = 0;
    size_t tombs = 0;
};

} // namespace flat_detail

/**
 * A set of addresses with @p InlineN entries of inline storage and
 * insertion-order iteration. See the file comment for the design.
 */
template <size_t InlineN>
class FlatAddrSet
{
  public:
    FlatAddrSet() = default;

    FlatAddrSet(const FlatAddrSet& o) { copyFrom(o); }

    FlatAddrSet(FlatAddrSet&& o) noexcept { moveFrom(o); }

    FlatAddrSet&
    operator=(const FlatAddrSet& o)
    {
        if (this != &o) {
            release();
            copyFrom(o);
        }
        return *this;
    }

    FlatAddrSet&
    operator=(FlatAddrSet&& o) noexcept
    {
        if (this != &o) {
            release();
            moveFrom(o);
        }
        return *this;
    }

    ~FlatAddrSet() { release(); }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const Addr* begin() const { return data_; }
    const Addr* end() const { return data_ + size_; }

    bool
    contains(Addr a) const
    {
        return findPos(a) != flat_detail::slotEmpty;
    }

    size_t count(Addr a) const { return contains(a) ? 1 : 0; }

    /** @return true if @p a was inserted (false: already present). */
    bool
    insert(Addr a)
    {
        if (findPos(a) != flat_detail::slotEmpty)
            return false;
        if (size_ == cap_)
            grow();
        data_[size_] = a;
        if (index.active()) {
            index.insert(a, static_cast<std::uint32_t>(size_));
            ++size_;
            index.rehashIfNeeded(size_, keyAt());
        } else {
            ++size_;
            if (size_ > flat_detail::scanMax)
                index.build(size_, keyAt());
        }
        return true;
    }

    /** Swap-remove @p a. @return number of elements removed (0/1). */
    size_t
    erase(Addr a)
    {
        const std::uint32_t pos = findPos(a);
        if (pos == flat_detail::slotEmpty)
            return 0;
        if (index.active())
            index.erase(a, keyAt());
        const size_t last = size_ - 1;
        if (pos != last) {
            data_[pos] = data_[last];
            if (index.active())
                index.moved(data_[pos], pos, keyAt());
        }
        size_ = last;
        return 1;
    }

    /** Drop every element; capacity (and heap block) is retained, the
     *  index is rebuilt lazily on the next spill past scanMax. */
    void
    clear()
    {
        size_ = 0;
        index.reset();
    }

  private:
    auto
    keyAt() const
    {
        return [this](std::uint32_t i) { return data_[i]; };
    }

    std::uint32_t
    findPos(Addr a) const
    {
        if (index.active())
            return index.find(a, keyAt());
        for (size_t i = 0; i < size_; ++i)
            if (data_[i] == a)
                return static_cast<std::uint32_t>(i);
        return flat_detail::slotEmpty;
    }

    void
    grow()
    {
        const size_t newCap = cap_ * 2;
        Addr* heap = new Addr[newCap];
        std::memcpy(heap, data_, size_ * sizeof(Addr));
        if (data_ != inline_)
            delete[] data_;
        data_ = heap;
        cap_ = newCap;
    }

    void
    release()
    {
        if (data_ != inline_)
            delete[] data_;
    }

    void
    copyFrom(const FlatAddrSet& o)
    {
        size_ = o.size_;
        if (o.data_ == o.inline_) {
            data_ = inline_;
            cap_ = InlineN;
        } else {
            data_ = new Addr[o.cap_];
            cap_ = o.cap_;
        }
        std::memcpy(data_, o.data_, size_ * sizeof(Addr));
        index = o.index;
    }

    void
    moveFrom(FlatAddrSet& o) noexcept
    {
        size_ = o.size_;
        if (o.data_ == o.inline_) {
            data_ = inline_;
            cap_ = InlineN;
            std::memcpy(inline_, o.inline_, size_ * sizeof(Addr));
        } else {
            data_ = o.data_;
            cap_ = o.cap_;
            o.data_ = o.inline_;
            o.cap_ = InlineN;
        }
        index = std::move(o.index);
        o.size_ = 0;
        o.index.reset();
    }

    Addr inline_[InlineN];
    Addr* data_ = inline_;
    size_t size_ = 0;
    size_t cap_ = InlineN;
    flat_detail::SlotIndex index;
};

/**
 * An open-addressed map from Addr to @p V over a dense entry vector.
 * Same probing and thresholds as FlatAddrSet; entries stay packed, so
 * iteration is a contiguous walk over (Addr, V) pairs.
 */
template <typename V>
class FlatAddrMap
{
  public:
    using Entry = std::pair<Addr, V>;

    size_t size() const { return dense.size(); }
    bool empty() const { return dense.empty(); }

    typename std::vector<Entry>::const_iterator
    begin() const
    {
        return dense.begin();
    }

    typename std::vector<Entry>::const_iterator
    end() const
    {
        return dense.end();
    }

    V*
    find(Addr a)
    {
        const std::uint32_t pos = findPos(a);
        return pos == flat_detail::slotEmpty ? nullptr
                                             : &dense[pos].second;
    }

    const V*
    find(Addr a) const
    {
        return const_cast<FlatAddrMap*>(this)->find(a);
    }

    /** Value for @p a, default-constructing it if absent. */
    V&
    operator[](Addr a)
    {
        const std::uint32_t pos = findPos(a);
        if (pos != flat_detail::slotEmpty)
            return dense[pos].second;
        dense.emplace_back(a, V{});
        if (index.active()) {
            index.insert(a, static_cast<std::uint32_t>(dense.size() - 1));
            index.rehashIfNeeded(dense.size(), keyAt());
        } else if (dense.size() > flat_detail::scanMax) {
            index.build(dense.size(), keyAt());
        }
        return dense.back().second;
    }

    /** Swap-remove @p a. @return number of entries removed (0/1). */
    size_t
    erase(Addr a)
    {
        const std::uint32_t pos = findPos(a);
        if (pos == flat_detail::slotEmpty)
            return 0;
        if (index.active())
            index.erase(a, keyAt());
        const size_t last = dense.size() - 1;
        if (pos != last) {
            dense[pos] = std::move(dense[last]);
            if (index.active())
                index.moved(dense[pos].first, pos, keyAt());
        }
        dense.pop_back();
        return 1;
    }

    void
    clear()
    {
        dense.clear();
        index.reset();
    }

  private:
    auto
    keyAt() const
    {
        return [this](std::uint32_t i) { return dense[i].first; };
    }

    std::uint32_t
    findPos(Addr a) const
    {
        if (index.active())
            return index.find(a, keyAt());
        for (size_t i = 0; i < dense.size(); ++i)
            if (dense[i].first == a)
                return static_cast<std::uint32_t>(i);
        return flat_detail::slotEmpty;
    }

    std::vector<Entry> dense;
    flat_detail::SlotIndex index;
};

} // namespace tmsim

#endif // TMSIM_HTM_SMALL_SET_HH

#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tmsim {

void
EventQueue::schedule(Cycles delay, Callback cb)
{
    scheduleAt(_curTick + delay, cb);
}

void
EventQueue::pushRing(Tick when, const Callback& cb)
{
    std::uint32_t i = freeHead;
    if (i != none) {
        freeHead = nodes[i].next;
        nodes[i] = Node{cb, none};
    } else {
        if (nodes.size() == none)
            panic("more than %u events pending in the ring", none - 1);
        i = static_cast<std::uint32_t>(nodes.size());
        nodes.push_back(Node{cb, none});
    }
    const size_t idx = bucketIndex(when);
    Bucket& b = ring[idx];
    if (b.head == none)
        b.head = i;
    else
        nodes[b.tail].next = i;
    b.tail = i;
    occupied |= std::uint64_t{1} << idx;
    ++ringCount;
}

void
EventQueue::scheduleAt(Tick when, Callback cb)
{
    if (when < _curTick)
        panic("event scheduled in the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_curTick));
    if (when - _curTick < ringTicks) {
        pushRing(when, cb);
    } else {
        overflow.push_back(FarEvent{when, nextSeq++, cb});
        std::push_heap(overflow.begin(), overflow.end(), Later{});
    }
}

void
EventQueue::advanceTo(Tick t)
{
    _curTick = t;
    // Drain every overflow event now inside [t, t + ringTicks). The
    // heap pops in (when, seq) order, i.e. scheduling order per tick,
    // and each target bucket is empty (its previous window tick has
    // already executed), so FIFO order within the tick is preserved.
    // t + ringTicks cannot overflow: t is always the tick of a pending
    // event, or a caller-supplied maxTick below it.
    while (!overflow.empty() && overflow.front().when - t < ringTicks) {
        std::pop_heap(overflow.begin(), overflow.end(), Later{});
        FarEvent& e = overflow.back();
        pushRing(e.when, e.cb);
        overflow.pop_back();
    }
}

Tick
EventQueue::run(Tick maxTick)
{
    if (maxTick < _curTick)
        return _curTick;
    for (;;) {
        const size_t idx = bucketIndex(_curTick);
        const std::uint64_t bit = std::uint64_t{1} << idx;
        if (occupied & bit) {
            Bucket& b = ring[idx];
            // A callback may schedule into this very tick: that links a
            // node after the tail, so each link is read after the
            // callback runs, and the walk reaches the new node in this
            // pass. The callback is copied out first, because a push
            // may grow (move) the node array.
            for (std::uint32_t i = b.head; i != none; i = nodes[i].next) {
                Callback cb = nodes[i].cb;
                --ringCount;
                ++numExecuted;
                cb();
            }
            // The tick's whole list, appended nodes included, becomes
            // free at once.
            nodes[b.tail].next = freeHead;
            freeHead = b.head;
            b.head = none;
            occupied &= ~bit;
        }

        if (ringCount == 0 && overflow.empty())
            return _curTick;

        // Next pending tick. Ring events always precede overflow ones
        // (overflow implies when >= curTick + ringTicks).
        Tick next;
        if (ringCount != 0) {
            // First occupied bucket cyclically after idx; delta in
            // [1, ringTicks - 1]. rotr(occupied, idx + 1) puts bucket
            // idx + 1 at bit 0 (s == 0 means idx == 63: no rotation).
            const unsigned s = (idx + 1) & (ringTicks - 1);
            const std::uint64_t rot =
                s ? (occupied >> s) | (occupied << (ringTicks - s))
                  : occupied;
            next = _curTick + 1 +
                   static_cast<Tick>(__builtin_ctzll(rot));
        } else {
            next = overflow.front().when;
        }

        if (next > maxTick) {
            advanceTo(maxTick);
            return _curTick;
        }
        advanceTo(next);
    }
}

} // namespace tmsim

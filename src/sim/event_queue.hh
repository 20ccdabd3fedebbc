/**
 * @file
 * Deterministic discrete-event simulation queue.
 *
 * All simulated concurrency in tmsim is driven by one EventQueue per
 * Machine. Events scheduled for the same tick fire in FIFO order of
 * scheduling, which makes every run bit-reproducible for a given seed.
 *
 * Internally the queue is a tick-bucketed calendar: a 64-slot ring of
 * FIFO buckets covers the window [curTick, curTick + 64), which absorbs
 * nearly every event the simulator schedules (pipeline delays, bus
 * beats, same-tick wakeups). Events beyond the window land in an
 * overflow min-heap keyed by (tick, sequence) and are drained into the
 * ring — in scheduling order — when the window slides past them, so
 * same-tick FIFO semantics are identical to the former global
 * priority queue. Every ring event lives in one node array shared by
 * all buckets: a bucket is the head and tail of a linked list through
 * it, and an executed tick's nodes go back on a free list. Callbacks
 * are stored inline (InlineCallback), so a queue allocates only when
 * its node array or overflow heap grows past its peak so far.
 */

#ifndef TMSIM_SIM_EVENT_QUEUE_HH
#define TMSIM_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/types.hh"

namespace tmsim {

/**
 * A fixed-capacity, trivially-copyable callable. Every event callback
 * in the simulator is a tiny capture (a coroutine handle, a task
 * pointer, a couple of references); storing them inline removes the
 * per-event heap allocation std::function used to make.
 */
class InlineCallback
{
  public:
    /** Inline capture capacity in bytes. */
    static constexpr size_t capacity = 32;

    InlineCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback>>>
    InlineCallback(F f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= capacity,
                      "event callback capture too large for "
                      "InlineCallback; shrink the lambda capture");
        static_assert(std::is_trivially_copyable_v<Fn>,
                      "event callbacks must be trivially copyable");
        static_assert(alignof(Fn) <= alignof(std::max_align_t));
        ::new (static_cast<void*>(buf)) Fn(f);
        invokeFn = [](void* p) { (*static_cast<Fn*>(p))(); };
    }

    void operator()() { invokeFn(buf); }

    explicit operator bool() const { return invokeFn != nullptr; }

  private:
    void (*invokeFn)(void*) = nullptr;
    alignas(alignof(std::max_align_t)) unsigned char buf[capacity];
};

/**
 * A time-ordered queue of callbacks. The queue owns the notion of "now"
 * (curTick) for the whole simulated machine.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Schedule @p cb to run @p delay cycles from now. */
    void schedule(Cycles delay, Callback cb);

    /** Schedule @p cb to run at absolute tick @p when (>= curTick). */
    void scheduleAt(Tick when, Callback cb);

    /**
     * Run events until the queue drains or @p maxTick is reached. A
     * limit before now runs nothing and leaves now where it is.
     * @return the tick at which the run stopped.
     */
    Tick run(Tick maxTick = ~static_cast<Tick>(0));

    /** True if no events are pending. */
    bool empty() const { return ringCount == 0 && overflow.empty(); }

    /** Number of pending events. */
    size_t pending() const { return ringCount + overflow.size(); }

    /** Total events executed so far (for stats / determinism checks). */
    std::uint64_t executed() const { return numExecuted; }

  private:
    /** Ring window width in ticks (and bucket count); power of two. */
    static constexpr Tick ringTicks = 64;

    /** No node: the end of a list. */
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    /** A ring event: its callback and the next node of its bucket (or
     *  of the free list). */
    struct Node
    {
        Callback cb;
        std::uint32_t next;
    };

    /** One tick's FIFO, linked through the node array from head to
     *  tail; head is none while the bucket is empty. */
    struct Bucket
    {
        std::uint32_t head = none;
        std::uint32_t tail = none;
    };

    struct FarEvent
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    /** Heap comparator: min (when, seq) at the front. */
    struct Later
    {
        bool
        operator()(const FarEvent& a, const FarEvent& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Tick t lives in bucket t & (ringTicks - 1) while t is inside
     *  the window [_curTick, _curTick + ringTicks). */
    static size_t bucketIndex(Tick t) { return t & (ringTicks - 1); }

    /** Advance now to @p t (sliding the window) and pull every
     *  overflow event that falls inside the new window into the ring,
     *  in (when, seq) order so per-tick FIFO order is preserved. */
    void advanceTo(Tick t);

    void pushRing(Tick when, const Callback& cb);

    std::vector<Node> nodes;    ///< every ring event, linked per bucket
    std::uint32_t freeHead = none; ///< nodes of executed ticks
    std::array<Bucket, ringTicks> ring;
    std::uint64_t occupied = 0; ///< bit i set <=> ring[i] non-empty
    size_t ringCount = 0;       ///< unexecuted callbacks in the ring
    std::vector<FarEvent> overflow; ///< min-heap, when >= curTick + 64
    Tick _curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
};

} // namespace tmsim

#endif // TMSIM_SIM_EVENT_QUEUE_HH

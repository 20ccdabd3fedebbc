/**
 * @file
 * Split-transaction system bus with FIFO arbitration, plus the commit
 * token used to serialise transaction validation.
 */

#ifndef TMSIM_MEM_BUS_HH
#define TMSIM_MEM_BUS_HH

#include <coroutine>
#include <deque>

#include "sim/stats.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace tmsim {

/**
 * A single-owner resource with a FIFO wait queue of parked coroutines.
 * Used for the bus data path and for the commit token.
 */
class FifoResource
{
  public:
    explicit FifoResource(EventQueue& eq) : eq(eq) {}

    FifoResource(const FifoResource&) = delete;
    FifoResource& operator=(const FifoResource&) = delete;

    bool busy() const { return held; }

    /** Awaitable that grants the resource in FIFO order. */
    struct Acquire
    {
        FifoResource& res;

        bool
        await_ready() const
        {
            if (!res.held) {
                res.held = true;
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            res.waiters.push_back(h);
        }

        void await_resume() const {}
    };

    Acquire acquire() { return Acquire{*this}; }

    /**
     * Release the resource. If somebody is queued, ownership passes to
     * the head of the queue and its coroutine is resumed next tick.
     */
    void
    release()
    {
        if (!held)
            panic("release of a free FifoResource");
        if (waiters.empty()) {
            held = false;
            return;
        }
        auto h = waiters.front();
        waiters.pop_front();
        // Ownership transfers directly; 'held' stays true.
        eq.schedule(0, [h] { h.resume(); });
    }

  private:
    EventQueue& eq;
    bool held = false;
    std::deque<std::coroutine_handle<>> waiters;
};

/**
 * The chip-wide interconnect. Requests and responses occupy the bus
 * separately so independent memory accesses overlap with DRAM latency
 * (split transactions); commit-time write-set broadcasts occupy the bus
 * for address+data beats per line.
 */
class Bus
{
  public:
    // Timing of the paper's section 7 machine model.

    /** Bus width in bytes (paper: 16-byte split-transaction bus). */
    static constexpr Addr widthBytes = 16;
    /** Arbitration latency per granted request. */
    static constexpr Cycles arbitrationLatency = 3;
    /** DRAM access latency, overlapped with other bus traffic. */
    static constexpr Cycles memoryLatency = 100;

    Bus(EventQueue& eq, StatsRegistry& stats);

    /** Beats needed to move one cache line of @p line_bytes. */
    static Cycles
    beatsForLine(Addr line_bytes)
    {
        return (line_bytes + widthBytes - 1) / widthBytes;
    }

    /**
     * A full cache-line fetch from memory: request beat, DRAM latency,
     * response beats. Suspends the caller for the whole round trip.
     */
    SimTask lineFetch(Addr line_bytes);

    /**
     * Occupy the bus for @p beats data beats after arbitration
     * (commit write-set broadcasts, watch-set messages).
     */
    SimTask occupy(Cycles beats);

    /** The commit token serialising transaction validation. */
    FifoResource& commitToken() { return token; }

  private:
    EventQueue& eq;
    FifoResource arbiter;
    FifoResource token;

    StatsRegistry::Counter& statTransfers;
    StatsRegistry::Counter& statBusyCycles;
    StatsRegistry::Counter& statTokenGrants;

  public:
    /** Exposed for HTM stats: count a token grant. */
    void countTokenGrant() { ++statTokenGrants; }
};

} // namespace tmsim

#endif // TMSIM_MEM_BUS_HH

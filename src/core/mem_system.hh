/**
 * @file
 * The uncore: backing memory, the system bus, the conflict detector,
 * and the per-CPU cache registry used for timed accesses and snooping.
 */

#ifndef TMSIM_CORE_MEM_SYSTEM_HH
#define TMSIM_CORE_MEM_SYSTEM_HH

#include <coroutine>
#include <functional>
#include <vector>

#include "htm/conflict_detector.hh"
#include "mem/backing_store.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace tmsim {

/**
 * Shared memory-system state of the chip. Each Cpu performs timed
 * accesses through here; commit broadcasts invalidate stale copies in
 * other CPUs' private caches.
 */
class MemSystem
{
  public:
    MemSystem(EventQueue& eq, Addr mem_bytes, StatsRegistry& stats);

    BackingStore& memory() { return store; }
    Bus& bus() { return sysBus; }
    ConflictDetector& detector() { return det; }
    EventQueue& eventQueue() { return eq; }

    /** Global serialization resource for the no-transactional-I/O
     *  baseline ("revert to sequential execution"). */
    FifoResource& serializeLock() { return serialize; }

    /** Register one CPU's private caches (called by the Machine). */
    void registerCpu(CpuId cpu, Cache* l1, Cache* l2, HtmContext* ctx);

    /**
     * Awaitable: the timing of one access by a CPU to a line. The
     * private hierarchy is probed when the access is made (an L2 hit
     * refills L1 at once); the awaiter resumes after the lookup
     * latency, or on a miss after that latency plus a bus fill of both
     * private levels. It adds no coroutine frame of its own: a miss
     * starts the fill after the latency, and the fill resumes the
     * accessing coroutine when it completes.
     */
    struct Access
    {
        EventQueue& eq;
        Cycles latency;
        /** Missed in both private levels: fetch over the bus. */
        bool miss;
        /** The miss's bus fill (busFill), not started yet. */
        SimTask fill;

        bool await_ready() const noexcept { return latency == 0 && !miss; }
        std::coroutine_handle<> await_suspend(std::coroutine_handle<> h);

        void
        await_resume()
        {
            if (miss)
                fill.await_resume();
        }
    };

    /** The timed access of @p cpu to @p line_addr (see Access). */
    Access access(CpuId cpu, Addr line_addr);

    /**
     * Invalidate non-speculative copies of @p line_addr in every cache
     * except @p committer's (commit-broadcast / non-tx store snoop).
     */
    void commitInvalidate(CpuId committer, Addr line_addr);

    // --- commit-order observation ---
    //
    // A transaction's serialisation point is the instant its top level
    // becomes Validated (lazy: commit-token broadcast; eager: all
    // access-time conflicts resolved). The hooks below let an external
    // oracle record the chip-global serialisation order of every
    // memory-committing level: outermost commits (open=false) and
    // open-nested commits (open=true). A validated level that is
    // nevertheless rolled back (an open-nested child unwound by a
    // violation against an ancestor) retracts its slot via the cancel
    // hook before any memory effect.

    /** Called at each serialisation point: (cpu, open_nested). */
    using SerializeFn = std::function<void(CpuId, bool)>;
    /** Called when a validated-but-uncommitted level rolls back. */
    using SerializeCancelFn = std::function<void(CpuId)>;

    void
    setCommitOrderHooks(SerializeFn on_serialized,
                        SerializeCancelFn on_cancelled)
    {
        serializedHook = std::move(on_serialized);
        cancelHook = std::move(on_cancelled);
    }

    void
    notifySerialized(CpuId cpu, bool open)
    {
        if (serializedHook)
            serializedHook(cpu, open);
    }

    void
    notifySerializeCancelled(CpuId cpu)
    {
        if (cancelHook)
            cancelHook(cpu);
    }

  private:
    /** Fetch @p line_addr over the bus and fill both private levels. */
    SimTask busFill(CpuId cpu, Addr line_addr);

    struct CpuPort
    {
        Cache* l1 = nullptr;
        Cache* l2 = nullptr;
        HtmContext* ctx = nullptr;
        /** Per-requester share of bus.busy_cycles (name-shared with the
         *  Cpu's statBusBusy; mirrors Bus::lineFetch accounting). */
        StatsRegistry::Counter* busBusy = nullptr;
    };

    EventQueue& eq;
    StatsRegistry& statsReg;
    SerializeFn serializedHook;
    SerializeCancelFn cancelHook;
    BackingStore store;
    Bus sysBus;
    ConflictDetector det;
    FifoResource serialize;
    std::vector<CpuPort> ports;
};

} // namespace tmsim

#endif // TMSIM_CORE_MEM_SYSTEM_HH

/**
 * @file
 * The simulated chip-multiprocessor: CPUs, private caches, bus, memory,
 * HTM machinery and the run loop (paper section 7 machine model: up to
 * 16 cores, private 32KB L1 / 512KB L2, 16-byte split-transaction bus).
 */

#ifndef TMSIM_CORE_MACHINE_HH
#define TMSIM_CORE_MACHINE_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/cpu.hh"
#include "core/mem_system.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "sim/trace.hh"

namespace tmsim {

/** Full machine configuration. Defaults mirror the paper's setup. */
struct MachineConfig
{
    int numCpus = 8;
    CacheGeometry l1{32 * 1024, 32, 4, 1};
    CacheGeometry l2{512 * 1024, 32, 8, 12};
    HtmConfig htm{};
    Addr memBytes = 64ull * 1024 * 1024;
};

/**
 * A simulated CMP. Spawn one logical thread per CPU, then run() to
 * completion; stats and memory can be inspected afterwards.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig& cfg = MachineConfig{});

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    int numCpus() const { return static_cast<int>(cpus.size()); }
    Cpu& cpu(int i) { return *cpus[static_cast<size_t>(i)]; }

    EventQueue& eventQueue() { return eq; }
    StatsRegistry& stats() { return statsReg; }

    /** The machine-wide transaction lifecycle tracer. Disabled (and
     *  effectively free) until tracer().enable(true). */
    TxTracer& tracer() { return tracerObj; }

    /**
     * This machine's diagnostic routing. Seeded from the context
     * active on the constructing thread (so a campaign worker's quiet
     * flag and fatal trap carry over) and installed as the calling
     * thread's current context for the duration of run(), keeping
     * concurrent machines' logging fully independent.
     */
    LogContext& logContext() { return logCtx; }
    MemSystem& memSystem() { return *memSys; }
    BackingStore& memory() { return memSys->memory(); }
    const MachineConfig& config() const { return cfg; }
    Tick now() const { return eq.curTick(); }

    /**
     * Observe the chip-global commit (serialisation) order: forwards to
     * MemSystem::setCommitOrderHooks. @p on_serialized fires once per
     * memory-committing level at its serialisation point;
     * @p on_cancelled retracts a validated level that rolled back
     * before committing. Used by the check/ oracle layer.
     */
    void
    setCommitOrderHooks(MemSystem::SerializeFn on_serialized,
                        MemSystem::SerializeCancelFn on_cancelled)
    {
        memSys->setCommitOrderHooks(std::move(on_serialized),
                                    std::move(on_cancelled));
    }

    /** A logical thread body bound to one CPU. */
    using ThreadFn = std::function<SimTask(Cpu&)>;

    /**
     * Bind a thread to CPU @p cpu_index. At most one thread per CPU.
     * The thread starts when run() is called.
     */
    void spawn(int cpu_index, ThreadFn fn);

    /**
     * Run until every spawned thread finishes (or @p max_ticks).
     * Rethrows any exception that escaped a thread; calls fatal() on
     * deadlock (event queue drained with threads still pending).
     * @return final simulated tick.
     */
    Tick run(Tick max_ticks = ~static_cast<Tick>(0));

    /** True once every spawned thread has completed. */
    bool allDone() const;

  private:
    struct ThreadSlot
    {
        int cpuIndex;
        ThreadFn fn;
        SimTask task;
        bool started = false;
    };

    MachineConfig cfg;
    LogContext logCtx = LogContext::inherit();
    EventQueue eq;
    StatsRegistry statsReg;
    TxTracer tracerObj;
    std::unique_ptr<MemSystem> memSys;
    std::vector<std::unique_ptr<Cpu>> cpus;
    std::vector<ThreadSlot> threads;

    /** Cached "sim.ticks" counter (resolved once; run() is hot in
     *  campaign sweeps that construct and run many machines). */
    StatsRegistry::Counter& statSimTicks;
};

} // namespace tmsim

#endif // TMSIM_CORE_MACHINE_HH

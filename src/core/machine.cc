#include "core/machine.hh"

#include "sim/logging.hh"

namespace tmsim {

Machine::Machine(const MachineConfig& cfg_)
    : cfg(cfg_), tracerObj(eq), statSimTicks(statsReg.counter("sim.ticks"))
{
    if (cfg.numCpus < 1)
        fatal("Machine needs at least one CPU");
    threads.reserve(static_cast<size_t>(cfg.numCpus));
    tracerObj.setNumCpus(cfg.numCpus);
    memSys = std::make_unique<MemSystem>(eq, cfg.memBytes, statsReg);
    memSys->detector().setTracer(&tracerObj);
    for (int i = 0; i < cfg.numCpus; ++i) {
        cpus.push_back(std::make_unique<Cpu>(i, cfg.htm, cfg.l1, cfg.l2,
                                             *memSys, statsReg));
        cpus.back()->setTracer(&tracerObj);
    }

    // Derived whole-run metrics, evaluated lazily at dump time.
    statsReg.formula("htm.abort_rate", "cpu*.rollbacks_outer",
                     "cpu*.htm.begins");
    statsReg.formula("htm.commit_rate", "cpu*.htm.outer_commits",
                     "cpu*.htm.begins");
    statsReg.formula("bus.utilization", "bus.busy_cycles", "sim.ticks");
    // Jain's fairness index over per-CPU outer commits: 1.0 when every
    // CPU commits equally often, 1/n when one CPU gets everything.
    statsReg.jainFairness("htm.commit_fairness",
                          "cpu*.htm.outer_commits");
}

void
Machine::spawn(int cpu_index, ThreadFn fn)
{
    if (cpu_index < 0 || cpu_index >= numCpus())
        fatal("spawn on nonexistent cpu %d", cpu_index);
    for (const auto& slot : threads) {
        if (slot.cpuIndex == cpu_index && !slot.task.done())
            fatal("cpu %d already has an active thread", cpu_index);
    }
    threads.push_back(ThreadSlot{cpu_index, std::move(fn), SimTask{}});
}

bool
Machine::allDone() const
{
    for (const auto& slot : threads)
        if (!slot.started || !slot.task.done())
            return false;
    return true;
}

Tick
Machine::run(Tick max_ticks)
{
    LogScope scope(logCtx);
    for (auto& slot : threads) {
        if (slot.started)
            continue;
        slot.task = slot.fn(*cpus[static_cast<size_t>(slot.cpuIndex)]);
        slot.started = true;
        // Stagger thread starts by one tick so identical bodies do not
        // proceed in pathological lockstep.
        SimTask* task = &slot.task;
        eq.schedule(static_cast<Cycles>(slot.cpuIndex),
                    [task] { task->start(); });
    }

    Tick end = eq.run(max_ticks);
    statSimTicks.set(end);

    for (auto& slot : threads) {
        if (slot.task.done())
            slot.task.result(); // rethrow escaped exceptions
    }
    if (!allDone() && eq.empty()) {
        fatal("deadlock: event queue drained with %zu thread(s) pending",
              threads.size());
    }
    return end;
}

} // namespace tmsim

#include "core/mem_system.hh"

#include "sim/logging.hh"

namespace tmsim {

MemSystem::MemSystem(EventQueue& eq_, Addr mem_bytes, StatsRegistry& stats)
    : eq(eq_), statsReg(stats), store(mem_bytes), sysBus(eq_, stats),
      det(eq_, stats), serialize(eq_)
{
}

void
MemSystem::registerCpu(CpuId cpu, Cache* l1, Cache* l2, HtmContext* ctx)
{
    if (cpu != static_cast<CpuId>(ports.size()))
        panic("CPUs must register in order (got %d, expected %zu)", cpu,
              ports.size());
    ports.push_back(CpuPort{
        l1, l2, ctx,
        &statsReg.counter(cpuStatName(cpu, "bus.busy_cycles"))});
    det.addContext(ctx);
}

MemSystem::Access
MemSystem::access(CpuId cpu, Addr line_addr)
{
    CpuPort& port = ports[static_cast<size_t>(cpu)];
    Cycles lat = port.l1->geometry().hitLatency;
    if (port.l1->lookup(line_addr))
        return Access{eq, lat, false, SimTask{}};

    lat += port.l2->geometry().hitLatency;
    if (port.l2->lookup(line_addr)) {
        // Fill L1 from L2; an L1 eviction is not an overflow as long as
        // L2 still tracks the line, so only L2 victims count.
        port.l1->fill(line_addr);
        return Access{eq, lat, false, SimTask{}};
    }
    return Access{eq, lat, true, busFill(cpu, line_addr)};
}

std::coroutine_handle<>
MemSystem::Access::await_suspend(std::coroutine_handle<> h)
{
    const std::coroutine_handle<> next = miss ? fill.await_suspend(h) : h;
    if (latency == 0)
        return next;
    eq.schedule(latency, [next] { next.resume(); });
    return std::noop_coroutine();
}

SimTask
MemSystem::busFill(CpuId cpu, Addr line_addr)
{
    CpuPort& port = ports[static_cast<size_t>(cpu)];
    const Addr lineBytes = port.l1->geometry().lineBytes;
    co_await sysBus.lineFetch(lineBytes);
    *port.busBusy +=
        Bus::arbitrationLatency + 1 + Bus::beatsForLine(lineBytes);
    EvictInfo l2Evict = port.l2->fill(line_addr);
    if (l2Evict.evicted && l2Evict.transactional)
        port.ctx->noteEviction(l2Evict);
    port.l1->fill(line_addr);
}

void
MemSystem::commitInvalidate(CpuId committer, Addr line_addr)
{
    for (size_t i = 0; i < ports.size(); ++i) {
        if (static_cast<CpuId>(i) == committer)
            continue;
        ports[i].l1->invalidateNonSpec(line_addr);
        ports[i].l2->invalidateNonSpec(line_addr);
    }
}

} // namespace tmsim

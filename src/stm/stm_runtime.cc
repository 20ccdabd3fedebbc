#include "stm/stm_runtime.hh"

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace tmsim {

void
StmThreadStats::mergeFrom(const StmThreadStats& o)
{
    starts += o.starts;
    commits += o.commits;
    roCommits += o.roCommits;
    openCommits += o.openCommits;
    abortsVoluntary += o.abortsVoluntary;
    violations += o.violations;
    retries += o.retries;
    snapshotExtensions += o.snapshotExtensions;
    lockFailures += o.lockFailures;
    nakedLoads += o.nakedLoads;
    nakedStores += o.nakedStores;
    releases += o.releases;
    commitHandlerRuns += o.commitHandlerRuns;
    violationHandlerRuns += o.violationHandlerRuns;
    abortHandlerRuns += o.abortHandlerRuns;
    readSetSize.mergeFrom(o.readSetSize);
    writeSetSize.mergeFrom(o.writeSetSize);
}

namespace {

constexpr int maxStmThreads = 64;

static_assert((StmConfig::numOrecs & (StmConfig::numOrecs - 1)) == 0,
              "the orec index is a mask");

} // namespace

StmRuntime::StmRuntime(StmConfig config)
    : cfg(std::move(config)),
      memWords(cfg.memWords),
      orecTable(StmConfig::numOrecs),
      threadStats(maxStmThreads)
{
    if (cfg.memWords == 0)
        fatal("stm: memWords must be nonzero");
    for (auto& w : memWords)
        w.store(0, std::memory_order_relaxed);
    armWatchdog();
}

Addr
StmRuntime::allocate(Addr bytes, Addr align)
{
    if (align == 0 || (align & (align - 1)) != 0)
        fatal("stm: allocation alignment must be a power of two");
    const Addr base = (brk + align - 1) & ~(align - 1);
    const Addr limit = static_cast<Addr>(memWords.size()) * wordBytes;
    if (bytes > limit || base > limit - bytes)
        fatal("stm: heap exhausted (%llu words configured)",
              static_cast<unsigned long long>(memWords.size()));
    brk = base + bytes;
    return base;
}

std::atomic<Word>&
StmRuntime::cell(Addr a)
{
    const std::size_t idx = static_cast<std::size_t>(a / wordBytes);
    if (idx >= memWords.size())
        fatal("stm: word address 0x%llx out of bounds",
              static_cast<unsigned long long>(a));
    return memWords[idx];
}

const std::atomic<Word>&
StmRuntime::cell(Addr a) const
{
    return const_cast<StmRuntime*>(this)->cell(a);
}

Word
StmRuntime::read(Addr a) const
{
    return cell(a).load(std::memory_order_acquire);
}

void
StmRuntime::write(Addr a, Word v)
{
    cell(a).store(v, std::memory_order_release);
}

void
StmRuntime::armWatchdog()
{
    dl = std::chrono::steady_clock::now() + cfg.opTimeout;
}

StmThreadStats&
StmRuntime::statsFor(int tid)
{
    if (tid < 0 || tid >= maxStmThreads)
        fatal("stm: thread id %d out of range", tid);
    return threadStats[static_cast<std::size_t>(tid)];
}

void
StmRuntime::mergeStats(StatsRegistry& reg) const
{
    StmThreadStats total;
    for (const StmThreadStats& t : threadStats)
        total.mergeFrom(t);

    reg.counter("stm.starts") += total.starts;
    reg.counter("stm.commits") += total.commits;
    reg.counter("stm.commits_readonly") += total.roCommits;
    reg.counter("stm.commits_open") += total.openCommits;
    reg.counter("stm.aborts_voluntary") += total.abortsVoluntary;
    reg.counter("stm.violations") += total.violations;
    reg.counter("stm.retries") += total.retries;
    reg.counter("stm.snapshot_extensions") += total.snapshotExtensions;
    reg.counter("stm.lock_failures") += total.lockFailures;
    reg.counter("stm.naked_loads") += total.nakedLoads;
    reg.counter("stm.naked_stores") += total.nakedStores;
    reg.counter("stm.releases") += total.releases;
    reg.counter("stm.handler_runs_commit") += total.commitHandlerRuns;
    reg.counter("stm.handler_runs_violation") +=
        total.violationHandlerRuns;
    reg.counter("stm.handler_runs_abort") += total.abortHandlerRuns;

    reg.distribution("stm.read_set_size").mergeFrom(total.readSetSize);
    reg.distribution("stm.write_set_size").mergeFrom(total.writeSetSize);
}

} // namespace tmsim

#include "check/stm_interp.hh"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>

#include "sim/stats.hh"

namespace tmsim {

namespace {

constexpr Addr stmLineBytes = 32; // layout geometry, as the simulator

/** Run a walk coroutine to completion on this host thread: every STM
 *  forward is ready at once, so start() returns only when it has
 *  finished; result() rethrows what escaped it. */
void
runInline(SimTask k)
{
    k.start();
    k.result();
}

void
stmScratchStoreHandler(StmThread& th, const std::vector<Word>& args)
{
    th.imstid(args[0], args[1]);
}

StmVioAction
stmViolationHandler(StmThread& th, const StmViolationInfo&,
                    const std::vector<Word>& args)
{
    th.imstid(args[0], 1);
    return StmVioAction::Proceed;
}

} // namespace

StmFuzzInterp::StmFuzzInterp(const FuzzProgram& program, StmConfig config)
    : FuzzWalk(program), cfg(std::move(config)),
      keyed(static_cast<size_t>(program.numThreads()))
{
}

StmFuzzInterp::Now
StmFuzzInterp::work(StmThread&, Word n)
{
    // Fixed-work spin standing in for the simulator's exec(n).
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < n; ++i)
        sink = sink + 1;
    return {};
}

StmFuzzInterp::Now
StmFuzzInterp::onCommit(StmThread& t, Addr a, Word v)
{
    t.onCommit(stmScratchStoreHandler, {a, v});
    return {};
}

StmFuzzInterp::Now
StmFuzzInterp::onViolation(StmThread& t, Addr a)
{
    t.onViolation(stmViolationHandler, {a});
    return {};
}

StmFuzzInterp::Now
StmFuzzInterp::onAbort(StmThread& t, Addr a, Word v)
{
    t.onAbort(stmScratchStoreHandler, {a, v});
    return {};
}

StmFuzzInterp::Ready<StmTxOutcome>
StmFuzzInterp::atomic(StmThread& t, bool open,
                      const std::function<SimTask(StmThread&)>& body)
{
    // Each attempt runs the walk's body inline, so a rollback or abort
    // it throws reaches this retry driver as from a plain call.
    const StmTxBody inlineBody = [&body](StmThread& th) {
        runInline(body(th));
    };
    return {open ? t.atomicOpen(inlineBody) : t.atomic(inlineBody)};
}

void
StmFuzzInterp::commitUnit(StmThread& t, ObservedUnit::Kind kind,
                          std::vector<ObservedAccess> accesses)
{
    // A returned commit is always durable (no serialize-then-cancel
    // window), so it is keyed and filled at once.
    ObservedUnit u;
    u.kind = kind;
    u.cpu = static_cast<CpuId>(t.tid());
    u.filled = true;
    u.accesses = std::move(accesses);
    keyed[static_cast<size_t>(t.tid())].push_back(
        KeyedUnit{t.lastCommit(), std::move(u)});
}

// A naked access is its own serialization unit, keyed by the snapshot
// it read (load) or the timestamp it committed at (store).

StmFuzzInterp::Now
StmFuzzInterp::nakedLoad(StmThread& t, Addr a)
{
    const auto [v, key] = t.nakedLoad(a);
    keyed[static_cast<size_t>(t.tid())].push_back(
        KeyedUnit{key, nakedUnit(ObservedUnit::Kind::NakedLoad,
                                 static_cast<CpuId>(t.tid()), a, v)});
    return {};
}

StmFuzzInterp::Now
StmFuzzInterp::nakedStore(StmThread& t, Addr a, Word v)
{
    const StmCommitInfo key = t.nakedStore(a, v);
    keyed[static_cast<size_t>(t.tid())].push_back(
        KeyedUnit{key, nakedUnit(ObservedUnit::Kind::NakedStore,
                                 static_cast<CpuId>(t.tid()), a, v)});
    return {};
}

ObservedRun
StmFuzzInterp::run(StatsRegistry* stats_out)
{
    StmRuntime rt(cfg);
    // Same region geometry as the simulator layout. Base addresses
    // differ between engines, so cross-engine comparison is positional.
    placeRegions(rt, stmLineBytes);
    rt.armWatchdog();

    const int n = prog.numThreads();
    std::atomic<bool> hung{false};
    std::vector<std::thread> hosts;
    hosts.reserve(static_cast<size_t>(n));
    for (int tid = 0; tid < n; ++tid) {
        hosts.emplace_back([&, tid] {
            StmThread t(rt, tid);
            try {
                runInline(threadBody(t, tid));
            } catch (const StmHangError&) {
                hung.store(true, std::memory_order_relaxed);
            } catch (const StmRollback&) {
                flog.setError("rollback escaped the retry driver");
            } catch (const StmAbortSignal&) {
                flog.setError("abort signal escaped the retry driver");
            } catch (const std::exception& e) {
                flog.setError(
                    std::string("exception escaped stm thread: ") +
                    e.what());
            } catch (...) {
                flog.setError("unknown exception escaped stm thread");
            }
        });
    }
    for (std::thread& h : hosts)
        h.join();

    // Global serialization order: writers at their commit timestamp
    // (phase 0) precede the read-only units that observed state at
    // that timestamp (phase 1); seq breaks the remaining ties.
    std::vector<KeyedUnit> all;
    for (auto& pt : keyed) {
        for (auto& ku : pt)
            all.push_back(std::move(ku));
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const KeyedUnit& x, const KeyedUnit& y) {
                         if (x.key.key != y.key.key)
                             return x.key.key < y.key.key;
                         if (x.key.phase != y.key.phase)
                             return x.key.phase < y.key.phase;
                         return x.key.seq < y.key.seq;
                     });
    ObservedRun rec;
    rec.units.reserve(all.size());
    for (auto& ku : all)
        rec.units.push_back(std::move(ku.unit));

    snapshot(rt, rec);
    rec.hang = hung.load(std::memory_order_relaxed) && rec.error.empty();
    if (stats_out)
        rt.mergeStats(*stats_out);
    return rec;
}

} // namespace tmsim

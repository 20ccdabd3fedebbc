#include "check/fuzz_interp.hh"

#include <memory>
#include <string>
#include <utility>

namespace tmsim {

namespace {

SimTask
fuzzScratchStoreHandler(TxThread& th, const std::vector<Word>& args)
{
    co_await th.cpu().imstid(args[0], args[1]);
}

Task<VioAction>
fuzzViolationHandler(TxThread& th, const ViolationInfo&,
                     const std::vector<Word>& args)
{
    co_await th.cpu().imstid(args[0], 1);
    co_return VioAction::Proceed;
}

} // namespace

FuzzInterp::FuzzInterp(const FuzzProgram& program, const HtmConfig& htm)
    : FuzzWalk(program), htmCfg(htm)
{
    pending.assign(static_cast<size_t>(prog.numThreads()), -1);
}

SimTask
FuzzInterp::onCommit(TxThread& t, Addr a, Word v)
{
    return t.onCommit(fuzzScratchStoreHandler, {a, v});
}

SimTask
FuzzInterp::onViolation(TxThread& t, Addr a)
{
    return t.onViolation(fuzzViolationHandler, {a});
}

SimTask
FuzzInterp::onAbort(TxThread& t, Addr a, Word v)
{
    return t.onAbort(fuzzScratchStoreHandler, {a, v});
}

Addr
FuzzInterp::trackUnitMask() const
{
    if (htmCfg.granularity == TrackGranularity::Word)
        return ~(wordBytes - 1);
    return ~(lineBytes - 1);
}

bool
FuzzInterp::hasPending(CpuId cpu) const
{
    return cpu >= 0 && cpu < static_cast<CpuId>(pending.size()) &&
           pending[static_cast<size_t>(cpu)] != -1;
}

void
FuzzInterp::attach(Machine& m)
{
    lineBytes = m.config().l1.lineBytes;
    placeRegions(m.memory(), lineBytes);
    m.setCommitOrderHooks(
        [this](CpuId cpu, bool open) { onSerialized(cpu, open); },
        [this](CpuId cpu) { onCancelled(cpu); });
}

void
FuzzInterp::onSerialized(CpuId cpu, bool open)
{
    if (cpu < 0 || cpu >= static_cast<CpuId>(pending.size())) {
        flog.setError("serialize hook from unexpected cpu");
        return;
    }
    if (pending[cpu] != -1) {
        flog.setError("cpu serialized a second unit before filling the "
                      "first (recorder invariant broken)");
        return;
    }
    ObservedUnit u;
    u.kind = open ? ObservedUnit::Kind::OpenCommit
                  : ObservedUnit::Kind::TxCommit;
    u.cpu = cpu;
    pending[cpu] = static_cast<int>(rec.units.size());
    rec.units.push_back(std::move(u));
}

void
FuzzInterp::onCancelled(CpuId cpu)
{
    if (!hasPending(cpu)) {
        flog.setError("serialize-cancel with no pending unit");
        return;
    }
    rec.units[static_cast<size_t>(pending[cpu])].dead = true;
    pending[cpu] = -1;
}

void
FuzzInterp::commitUnit(TxThread& t, ObservedUnit::Kind kind,
                       std::vector<ObservedAccess> accesses)
{
    const CpuId cpu = t.cpu().id();
    if (!hasPending(cpu)) {
        flog.setError("commit completed without a serialization point");
        return;
    }
    ObservedUnit& u = rec.units[static_cast<size_t>(pending[cpu])];
    if (u.kind != kind) {
        flog.setError("commit kind does not match its serialization "
                      "record");
        return;
    }
    u.accesses = std::move(accesses);
    u.filled = true;
    pending[cpu] = -1;
}

void
FuzzInterp::unwound(TxThread& t, int tid, bool open, int depth)
{
    // An ancestor-level rollback unwound through this transaction
    // before its atomic() could return. If this is an open-nested
    // child whose xcommit already applied memory, the cpu still holds
    // its serialization slot (the hardware cancel correctly did not
    // fire for a durable commit): attach it on the way out so the slot
    // is filled before the ancestor's retry serializes again. A child
    // that had only validated was cancelled by rawRollback and leaves
    // no pending slot.
    if (!open || depth == 1 || !hasPending(t.cpu().id()))
        return;
    if (flog.topIs(tid, depth)) {
        commitUnit(t, ObservedUnit::Kind::OpenCommit,
                   std::move(flog.takeTop(tid).accesses));
    } else {
        flog.setError("open commit unwound with no matching frame");
    }
}

// A naked access is its own serialization unit under strong
// atomicity, ordered where the simulated access completes.

SimTask
FuzzInterp::nakedLoad(TxThread& t, Addr a)
{
    const Word v = co_await t.ld(a);
    rec.units.push_back(
        nakedUnit(ObservedUnit::Kind::NakedLoad, t.cpu().id(), a, v));
}

SimTask
FuzzInterp::nakedStore(TxThread& t, Addr a, Word v)
{
    co_await t.st(a, v);
    rec.units.push_back(
        nakedUnit(ObservedUnit::Kind::NakedStore, t.cpu().id(), a, v));
}

ObservedRun
FuzzInterp::finish(Machine& m, bool hang)
{
    rec.hang = hang;
    if (!hang) {
        for (size_t c = 0; c < pending.size(); ++c) {
            if (pending[c] != -1)
                flog.setError("run ended with an unfilled serialized unit");
        }
        for (const ObservedUnit& u : rec.units) {
            if (!u.dead && !u.filled)
                flog.setError("serialized unit never filled or cancelled");
        }
    }
    snapshot(m.memory(), rec);
    return std::move(rec);
}

ObservedRun
FuzzInterp::run(Tick max_ticks, StatsRegistry* stats_out)
{
    MachineConfig cfg;
    cfg.numCpus = prog.numThreads();
    cfg.htm = htmCfg;
    cfg.memBytes = 4ull * 1024 * 1024;
    Machine m(cfg);
    attach(m);

    std::vector<std::unique_ptr<TxThread>> threads;
    threads.reserve(static_cast<size_t>(prog.numThreads()));
    for (int i = 0; i < prog.numThreads(); ++i)
        threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
    for (int i = 0; i < prog.numThreads(); ++i) {
        TxThread* t = threads[static_cast<size_t>(i)].get();
        m.spawn(i, [this, t, i](Cpu&) -> SimTask {
            co_await threadBody(*t, i);
        });
    }

    try {
        m.run(max_ticks);
    } catch (const FatalError&) {
        // A trapped fatal() is a campaign-level event (cancel the
        // worker pool), not a per-seed oracle verdict.
        throw;
    } catch (const std::exception& e) {
        flog.setError(std::string("exception escaped simulation: ") +
                      e.what());
    }
    if (stats_out)
        stats_out->mergeFrom(m.stats());
    return finish(m, !m.allDone() && flog.error().empty());
}

} // namespace tmsim

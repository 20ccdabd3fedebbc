/**
 * @file
 * The FuzzProgram interpreter, written once for every execution
 * engine: the thread-op and transaction-op dispatch, the closed/open
 * nesting walk with its FrameLog bookkeeping, the region layout and
 * the final snapshot. An engine derives from FuzzWalk (CRTP) and
 * supplies only an adapter: one forward per ISA op, plus the four
 * decisions that really differ between engines — where a memory
 * commit is recorded, how a naked access is keyed, whether an
 * open-nested level commits memory, and what happens to a level an
 * ancestor rollback unwinds.
 *
 * The walk is a coroutine on every engine. The simulator's forwards
 * return the TxThread/Cpu awaitables themselves, so a simulated
 * thread suspends inside the walk exactly as it would in hand-written
 * workload code, and a rollback jumps past the walk's frames to the
 * runtime's retry loop. An engine whose ops complete on the calling
 * host thread (the STM) returns awaitables that never suspend and runs
 * each walk coroutine to completion inline, so the exceptions its
 * retry driver relies on unwind through the walk as through ordinary
 * calls. Either way the walk's OnUnwind guard reports the level.
 */

#ifndef TMSIM_CHECK_FUZZ_WALK_HH
#define TMSIM_CHECK_FUZZ_WALK_HH

#include <functional>
#include <utility>
#include <vector>

#include "check/frame_log.hh"
#include "check/fuzz_program.hh"
#include "check/observed.hh"
#include "sim/task.hh"

namespace tmsim {

/**
 * One FuzzProgram executed on one engine. @p Engine is the deriving
 * interpreter; @p Thread is the engine's per-thread handle. Engine
 * provides, for the walk only:
 *
 *  - ISA forwards, each returning an awaitable: ld, st, release, imld,
 *    imst, imstid, work, xabort, onCommit(t, addr, value),
 *    onViolation(t, addr), onAbort(t, addr, value), and
 *    atomic(t, open, body) yielding an outcome with committed();
 *  - nakedLoad / nakedStore: perform and record one non-transactional
 *    access as its own serialization unit; hiddenStore performs one
 *    without recording it (the bug-injection self-test);
 *  - commitUnit(t, kind, accesses): record a memory commit;
 *  - openCommitsMemory(): whether an open-nested level commits memory;
 *  - unwound(t, tid, open, depth): a level at @p depth was unwound by
 *    an ancestor's rollback before its atomic() returned;
 *  - trackUnitMask(): the conflict-tracking unit, for release.
 */
template <typename Engine, typename Thread>
class FuzzWalk
{
  public:
    /** Body of logical thread @p tid (no-op for tids beyond the
     *  program's thread count). */
    SimTask threadBody(Thread& t, int tid);

  protected:
    explicit FuzzWalk(const FuzzProgram& program) : prog(program)
    {
        layout.slots = prog.slotsPerRegion;
        flog.resize(static_cast<size_t>(prog.numThreads()));
    }

    /** Lay the regions out in @p mem and write the initial image.
     *  Regions are line-aligned so no track unit spans two regions. */
    template <typename Mem>
    void
    placeRegions(Mem& mem, Addr line_bytes)
    {
        const Addr regionBytes =
            static_cast<Addr>(layout.slots) * wordBytes;
        layout.regionStride =
            (regionBytes + line_bytes - 1) & ~(line_bytes - 1);
        layout.base = mem.allocate(
            static_cast<Addr>(numRegions) * layout.regionStride,
            line_bytes);
        for (int r = 0; r < numRegions; ++r) {
            const Region reg = static_cast<Region>(r);
            for (int s = 0; s < layout.slots; ++s)
                mem.write(layout.addrOf(reg, s),
                          FuzzLayout::initValue(reg, s));
        }
    }

    /** Stamp the layout and the first recorder error into @p rec and
     *  copy the final words of every checked region out of @p mem.
     *  Call once every recording thread is quiescent. */
    template <typename Mem>
    void
    snapshot(const Mem& mem, ObservedRun& rec) const
    {
        rec.layout = layout;
        rec.error = flog.error();
        for (int r = 0; r < numRegions; ++r) {
            const Region reg = static_cast<Region>(r);
            if (!regionChecked(reg))
                continue;
            for (int s = 0; s < layout.slots; ++s) {
                const Addr a = layout.addrOf(reg, s);
                const Word v = mem.read(a);
                rec.finalChecked.emplace_back(a, v);
                if (regionInvariant(reg))
                    rec.finalInvariant.emplace_back(a, v);
            }
        }
    }

    /** A non-transactional access: its own serialization unit, filled
     *  when it is made. */
    static ObservedUnit
    nakedUnit(ObservedUnit::Kind kind, CpuId cpu, Addr a, Word v)
    {
        ObservedUnit u;
        u.kind = kind;
        u.cpu = cpu;
        u.filled = true;
        u.addr = a;
        u.value = v;
        return u;
    }

    const FuzzProgram& prog;
    /** Attempt frames, and the one sink for recorder errors. */
    FrameLog flog;

  private:
    Engine& engine() { return static_cast<Engine&>(*this); }

    SimTask runTxNode(Thread& t, int tid, int tx_idx, int depth);
    SimTask execBody(Thread& t, int tid, int tx_idx, int depth);

    FuzzLayout layout;
};

template <typename Engine, typename Thread>
SimTask
FuzzWalk<Engine, Thread>::execBody(Thread& t, int tid, int tx_idx,
                                   int depth)
{
    Engine& e = engine();
    const FuzzTx& tx = prog.txs[static_cast<size_t>(tx_idx)];
    for (const FuzzOp& op : tx.ops) {
        const Addr a = layout.addrOf(op.region, op.slot);
        switch (op.kind) {
        case FuzzOpKind::TxRead: {
            const Word v = co_await e.ld(t, a);
            flog.logAccess(tid, ObservedAccess::Kind::Read, a, v);
            break;
        }
        case FuzzOpKind::TxAdd: {
            const Word v = co_await e.ld(t, a);
            co_await e.st(t, a, v + op.value);
            flog.logAccess(tid, ObservedAccess::Kind::Read, a, v);
            flog.logAccess(tid, ObservedAccess::Kind::Write, a, v + op.value);
            break;
        }
        case FuzzOpKind::Release:
            co_await e.release(t, a);
            flog.markReleased(tid, a & e.trackUnitMask(),
                              e.trackUnitMask());
            break;
        case FuzzOpKind::ImmRead:
            co_await e.imld(t, a);
            break;
        case FuzzOpKind::ImmStore:
            co_await e.imst(t, a, op.value);
            break;
        case FuzzOpKind::ImmStoreIdem:
            co_await e.imstid(t, a, op.value);
            break;
        case FuzzOpKind::Exec:
            co_await e.work(t, op.value);
            break;
        // Handler bodies only touch the unchecked Scratch region (via
        // idempotent stores), so they are invisible to the oracle no
        // matter how often handlers fire.
        case FuzzOpKind::HandlerCommit:
            co_await e.onCommit(t, a, op.value + 1);
            break;
        case FuzzOpKind::HandlerViolation:
            co_await e.onViolation(t, a);
            break;
        case FuzzOpKind::HandlerAbort:
            co_await e.onAbort(t, a, op.value + 2);
            break;
        case FuzzOpKind::Abort:
            co_await e.xabort(t, op.value);
            break;
        case FuzzOpKind::Nest:
            co_await runTxNode(t, tid, op.child, depth + 1);
            break;
        }
    }
}

template <typename Engine, typename Thread>
SimTask
FuzzWalk<Engine, Thread>::runTxNode(Thread& t, int tid, int tx_idx,
                                    int depth)
{
    const FuzzTx& tx = prog.txs[static_cast<size_t>(tx_idx)];
    const std::function<SimTask(Thread&)> body =
        [this, tid, tx_idx, depth](Thread& th) -> SimTask {
        flog.enterAttempt(tid, depth);
        co_await execBody(th, tid, tx_idx, depth);
    };
    // An ancestor-level rollback can leave this frame before atomic()
    // returns.
    OnUnwind report{[&] { engine().unwound(t, tid, tx.open, depth); }};
    // Bind the outcome before asking it anything: GCC 12 rejects
    // (co_await x).committed().
    const auto out = co_await engine().atomic(t, tx.open, body);
    report.dismiss();

    if (!out.committed()) {
        // Voluntary abort: the attempt's frames are dead.
        flog.discardAtOrBelow(tid, depth);
        co_return;
    }

    if (!flog.topIs(tid, depth)) {
        flog.setError("frame stack out of sync at commit");
        co_return;
    }
    FrameLog::Frame f = flog.takeTop(tid);

    // A unit commits memory iff it is the outermost level, or an
    // open-nested level the engine commits on its own (full nesting;
    // flattening subsumes it into the parent).
    if (depth == 1 || (tx.open && engine().openCommitsMemory())) {
        engine().commitUnit(t,
                            tx.open && depth > 1
                                ? ObservedUnit::Kind::OpenCommit
                                : ObservedUnit::Kind::TxCommit,
                            std::move(f.accesses));
    } else {
        // Closed-nested (or flatten-subsumed) commit: fold the child's
        // accesses into the enclosing attempt.
        flog.foldIntoTop(tid, std::move(f.accesses));
    }
}

template <typename Engine, typename Thread>
SimTask
FuzzWalk<Engine, Thread>::threadBody(Thread& t, int tid)
{
    if (tid >= prog.numThreads())
        co_return;
    Engine& e = engine();
    const auto& ops = prog.threads[static_cast<size_t>(tid)];
    for (size_t i = 0; i < ops.size(); ++i) {
        const ThreadOp& op = ops[i];
        const Addr a = layout.addrOf(op.region, op.slot);
        switch (op.kind) {
        case ThreadOpKind::RunTx:
            co_await runTxNode(t, tid, op.tx, 1);
            break;
        case ThreadOpKind::NakedLoad:
            co_await e.nakedLoad(t, a);
            break;
        case ThreadOpKind::NakedStore:
            co_await e.nakedStore(t, a, op.value);
            break;
        case ThreadOpKind::Work:
            co_await e.work(t, op.value);
            break;
        }
        // Self-test bug injection: a deliberately unrecorded store the
        // oracle must catch (validates the whole checking pipeline).
        if (tid == 0 && prog.injectHiddenStoreAfter == static_cast<int>(i))
            co_await e.hiddenStore(t, layout.addrOf(Region::Shared, 0),
                                   0xDEADBEEFull);
    }
}

} // namespace tmsim

#endif // TMSIM_CHECK_FUZZ_WALK_HH

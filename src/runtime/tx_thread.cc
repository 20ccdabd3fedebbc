#include "runtime/tx_thread.hh"

#include <algorithm>
#include <utility>

#include "core/tx_signals.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace tmsim {

TxThread::TxThread(Cpu& cpu)
    : cpuRef(cpu),
      area(ThreadArea::allocate(cpu.memory())),
      ch(area.chBase, area.chTopField(), area.stackWords),
      vh(area.vhBase, area.vhTopField(), area.stackWords),
      ah(area.ahBase, area.ahTopField(), area.stackWords),
      retryWaker(cpu.eventQueue()),
      threadRng(0xC0FFEEull + static_cast<std::uint64_t>(cpu.id()) * 7919)
{
    cpu.setViolationProtocol(
        [this](Cpu& c) { return violationProtocolImpl(c); });
    cpu.setAbortProtocol(
        [this](Cpu& c, Word code) { return abortProtocolImpl(c, code); });
}

Task<TxOutcome>
TxThread::atomic(TxBody body)
{
    return runTx(TxKind::Closed, std::move(body));
}

Task<TxOutcome>
TxThread::atomicOpen(TxBody body)
{
    return runTx(TxKind::Open, std::move(body));
}

Task<TxOutcome>
TxThread::atomicOrElse(TxBody body, TxBody alt)
{
    // tryatomic / orElse (paper section 3 "Contention and Error
    // Management", section 5): run the alternate path when the primary
    // transaction aborts voluntarily.
    TxOutcome out = co_await runTx(TxKind::Closed, std::move(body));
    if (out.result != TxResult::Aborted)
        co_return out;
    TxOutcome altOut = co_await runTx(TxKind::Closed, std::move(alt));
    altOut.retries += out.retries;
    co_return altOut;
}

Task<TxOutcome>
TxThread::serializedAtomic(TxBody body)
{
    FifoResource& lock = cpuRef.memSystem().serializeLock();
    co_await lock.acquire();
    // A rollback of an enclosing level leaves this frame mid-section.
    OnUnwind unlock{[&lock] { lock.release(); }};
    const TxOutcome out = co_await runTx(TxKind::Closed, std::move(body));
    unlock.dismiss();
    lock.release();
    co_return out;
}

Task<TxOutcome>
TxThread::runTx(TxKind kind, TxBody body)
{
    const std::coroutine_handle<> self = co_await CurrentHandle{};
    int retries = 0;
    for (;;) {
        const int depthBefore = cpuRef.htm().depth();
        co_await beginTx(kind, self);
        const bool subsumed = cpuRef.htm().depth() == depthBefore;
        const int myLevel = cpuRef.htm().depth();

        // A rollback or abort of the level this frame pushed arrives
        // by a jump back into a co_await below (delivered is set). A
        // rollback of a level no frame owns yet (raised inside beginTx)
        // or of a raw-ISA level arrives by a throw.
        Signal sig{};
        try {
            SimTask step = body(*this);
            co_await step;
            if (!delivered) {
                step = commitSequence();
                co_await step;
            }
            if (!delivered)
                co_return TxOutcome{TxResult::Committed, 0, retries};
            step.abandon();
            sig = *std::exchange(delivered, std::nullopt);
        } catch (const TxRollback& r) {
            // A rollback targeting an outer level, or one whose
            // hardware level we merely subsumed, belongs to an
            // enclosing frame.
            if (subsumed || r.targetLevel < myLevel)
                throw;
            sig = Signal{false, 0};
        }

        const bool retryWait = sig.abort && sig.code == retryYieldCode;
        if (sig.abort && !retryWait) {
            // This attempt sequence is over without a commit (a
            // voluntary abort that will not retry): drop the
            // contention manager's fairness record so stale
            // seniority/karma cannot leak into an unrelated later
            // transaction. Only when we actually left the outermost
            // level — an inner abort with a live enclosing transaction
            // keeps the outer sequence (and its record) alive.
            if (!cpuRef.htm().inTx())
                cpuRef.memSystem().detector().noteSequenceAbandoned(
                    cpuRef.id());
            co_return TxOutcome{TxResult::Aborted, sig.code, retries};
        }
        ++retries;
        if (retryWait) {
            // Conditional synchronisation: park until woken, then
            // re-execute the body from scratch.
            co_await WaitOn{retryWaker};
        } else if (!cpuRef.lastRollbackWasCapacity()) {
            // Capacity restarts retry immediately: waiting cannot
            // shrink the footprint, and the restarted attempt runs
            // virtualised (caps lifted), so it is guaranteed to fit.
            co_await backoff(retries);
        }
    }
}

SimTask
TxThread::beginTx(TxKind kind, std::coroutine_handle<> restart)
{
    const int before = cpuRef.htm().depth();
    if (kind == TxKind::Closed)
        co_await cpuRef.xbegin(); // 1 instruction
    else
        co_await cpuRef.xbeginOpen();
    if (cpuRef.htm().depth() == before)
        co_return; // subsumed begin: no TCB frame

    // TCB allocation, 5 further instructions (6 total with xbegin):
    // snapshot the handler-stack tops into the new frame and bump the
    // TCB top pointer.
    Frame f{cpuRef.htm().depth(), kind, ch.topWords(), vh.topWords(),
            ah.topWords(), restart};
    const Addr tcb = area.tcbFrameAddr(frames.size());
    co_await cpuRef.imst(tcb + 0 * wordBytes,
                         static_cast<Word>(f.hwLevel));
    co_await cpuRef.imst(tcb + 1 * wordBytes, f.chSave);
    co_await cpuRef.imst(tcb + 2 * wordBytes, f.vhSave);
    co_await cpuRef.exec(2); // ah snapshot in a register + tcbptr bump
    frames.push_back(f);
}

template <typename Fn>
SimTask
TxThread::chargeDispatch(const HandlerStack<Fn>& st,
                         const typename HandlerStack<Fn>::Entry& e)
{
    co_await cpuRef.imld(st.wordAddr(e.wordOff));     // handler PC
    co_await cpuRef.imld(st.wordAddr(e.wordOff + 1)); // argc
    for (size_t i = 0; i < e.args.size(); ++i)
        co_await cpuRef.imld(st.wordAddr(e.wordOff + 2 + i));
    co_await cpuRef.exec(2); // indirect call + return
}

SimTask
TxThread::commitSequence()
{
    HtmContext& ctx = cpuRef.htm();
    if (!ctx.inTx())
        panic("commitSequence outside a transaction");

    if (ctx.topIsSubsumed()) {
        co_await cpuRef.xcommit(); // flattened inner commit: 1 instr
        co_return;
    }
    if (frames.empty() || frames.back().hwLevel != ctx.depth())
        panic("runtime frame stack out of sync with hardware nesting");

    const Frame f = frames.back();
    const bool outermost = ctx.depth() == 1;
    const bool open = f.kind == TxKind::Open;

    if (!outermost && !open) {
        // Closed-nested commit: handlers merge into the parent by
        // leaving them on the stacks; only the frame disappears.
        co_await cpuRef.xvalidate(); // no-op for closed nesting (1)
        co_await cpuRef.exec(2);     // copy handler tops to parent TCB
        co_await cpuRef.xcommit();   // merge sets into parent (1)
        co_await cpuRef.exec(1);     // tcbptr pop
        frames.pop_back();
        co_return;
    }

    // Outermost or open-nested: full two-phase commit.
    co_await cpuRef.xvalidate();                 // 1 (may stall/throw)
    co_await cpuRef.imld(ch.topFieldAddr());     // 2
    co_await cpuRef.exec(2);                     // 4: bounds + branch
    auto commitEntries = ch.entriesAbove(f.chSave);
    for (const auto& e : commitEntries) {
        cpuRef.tracer()->instant(cpuRef.id(), TxTracer::Ev::CommitHandler,
                                 ctx.depth());
        co_await chargeDispatch(ch, e);
        co_await e.fn(*this, e.args);
    }
    co_await cpuRef.exec(3); // 7: discard violation/abort handler tops
    co_await cpuRef.xcommit();                   // 8
    co_await cpuRef.exec(2);                     // 10: tcb pop + return
    unwindTo(f.hwLevel, f);
}

void
TxThread::unwindTo(int target, Frame f)
{
    while (!frames.empty() && frames.back().hwLevel >= target)
        frames.pop_back();
    ch.truncate(f.chSave);
    vh.truncate(f.vhSave);
    ah.truncate(f.ahSave);
}

SimTask
TxThread::backoff(int retries)
{
    if (!cpuRef.htm().config().retryBackoff)
        co_return;
    const bool eager =
        cpuRef.htm().config().conflict == ConflictMode::Eager;
    Cycles d = cpuRef.memSystem().detector().contention().backoffDelay(
        cpuRef.id(), retries, eager, threadRng);
    if (d) {
        const Tick start = cpuRef.now();
        cpuRef.tracer()->span(cpuRef.id(), TxTracer::Ev::Backoff, start, d);
        co_await Delay{cpuRef.eventQueue(), d};
    }
}

template <typename Fn>
SimTask
TxThread::registerHandler(HandlerStack<Fn>& st, Fn fn,
                          std::vector<Word> args, const char* what)
{
    if (!cpuRef.htm().inTx())
        fatal("%s outside a transaction", what);
    const auto* e = st.push(std::move(fn), std::move(args));
    if (!e) {
        // Registration would overflow the thread's handler stack: a
        // recoverable per-transaction abort (through the normal abort
        // protocol), not a simulator death. Usually a jump to the
        // owning atomic(); a custom abort protocol may instead resume
        // us, in which case the registration is simply dropped.
        co_await cpuRef.xabort(handlerOverflowCode);
        co_return;
    }
    // Registration cost (paper: 9 instructions for no arguments).
    co_await cpuRef.imld(st.topFieldAddr());              // 1
    co_await cpuRef.exec(2);                              // 3: bounds
    co_await cpuRef.imst(st.wordAddr(e->wordOff), 1);     // 4: PC
    co_await cpuRef.imst(st.wordAddr(e->wordOff + 1),
                         e->args.size());                 // 5: argc
    for (size_t i = 0; i < e->args.size(); ++i)
        co_await cpuRef.imst(st.wordAddr(e->wordOff + 2 + i), e->args[i]);
    co_await cpuRef.exec(1);                              // 6: new top
    co_await cpuRef.imst(st.topFieldAddr(), st.topWords()); // 7
    co_await cpuRef.exec(2);                              // 9: call/ret
}

SimTask
TxThread::onCommit(CommitHandlerFn fn, std::vector<Word> args)
{
    return registerHandler(ch, std::move(fn), std::move(args), "onCommit");
}

SimTask
TxThread::onViolation(ViolationHandlerFn fn, std::vector<Word> args)
{
    return registerHandler(vh, std::move(fn), std::move(args),
                           "onViolation");
}

SimTask
TxThread::onAbort(AbortHandlerFn fn, std::vector<Word> args)
{
    return registerHandler(ah, std::move(fn), std::move(args), "onAbort");
}

SimTask
TxThread::retryYield()
{
    co_await cpuRef.xabort(retryYieldCode);
}

SimTask
TxThread::violationProtocolImpl(Cpu& c)
{
    HtmContext& ctx = c.htm();
    const std::uint32_t mask = ctx.xvcurrent();
    const ViolationInfo info{ctx.xvaddr(), mask};
    const int target = __builtin_ctz(mask) + 1;

    if (static_cast<size_t>(target) > frames.size()) {
        // Raw-ISA transactions not managed by this runtime.
        co_await c.rollbackAndThrow(target);
    }
    const Frame tf = frames[static_cast<size_t>(target) - 1];

    // Handler-probe fast path: 2 instructions.
    co_await c.imld(vh.topFieldAddr());
    co_await c.exec(1);

    // Run every violation handler registered by the levels being
    // rolled back, newest first (paper 4.3: reverse order preserves
    // undo semantics).
    auto entries = vh.entriesAbove(tf.vhSave);
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        c.tracer()->instant(c.id(), TxTracer::Ev::ViolationHandler,
                            ctx.depth(), info.vaddr);
        co_await chargeDispatch(vh, *it);
        VioAction action = co_await it->fn(*this, info, it->args);
        if (action == VioAction::Continue) {
            // Software chose to resume the transaction: acknowledge
            // the delivered conflicts and xvret.
            ctx.clearCurrentViolations();
            co_return;
        }
    }

    // Default: roll back to the shallowest violated level and retry.
    // With no handlers this path costs 6 instructions total: imld +
    // alu above, then the undo processing / xrwsetclear / xregrestore
    // slots. The architectural state change happens atomically in
    // rawRollback AFTER the undo data is restored — clearing the
    // write-set before the in-place data is restored would open a
    // window where another CPU's conflict check passes and reads
    // doomed speculative values.
    co_await c.exec(4);
    unwindTo(target, tf);
    c.rawRollback(target); // undo-log walk + xrwsetclear + xregrestore
    // Paper 4.3: rollback jumps to the restart point the TCB records.
    // A frame that is not the level's own (a raw-ISA level between
    // runtime levels) leaves the rollback to raw code's catch.
    if (tf.hwLevel == target)
        co_await jumpToOwner(tf, Signal{false, 0});
    throw TxRollback{target, info.vaddr};
}

SimTask
TxThread::abortProtocolImpl(Cpu& c, Word code)
{
    HtmContext& ctx = c.htm();
    const int target = ctx.depth();

    if (static_cast<size_t>(target) > frames.size())
        panic("abort protocol with no runtime frame");
    const Frame tf = frames[static_cast<size_t>(target) - 1];

    co_await c.imld(ah.topFieldAddr()); // 1 (+1 for xabort itself)
    co_await c.exec(1);                 // 2

    auto entries = ah.entriesAbove(tf.ahSave);
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        c.tracer()->instant(c.id(), TxTracer::Ev::AbortHandler,
                            ctx.depth());
        co_await chargeDispatch(ah, *it);
        co_await it->fn(*this, it->args);
    }

    co_await c.exec(3); // 5 (6 with the xabort instruction): undo walk
                        // + xrwsetclear + xregrestore slots
    unwindTo(target, tf);
    c.rawRollback(target); // atomic: restore, discard sets, restore regs
    // With a frame per level up to the depth, tf is the level's own.
    co_await jumpToOwner(tf, Signal{true, code});
}

} // namespace tmsim

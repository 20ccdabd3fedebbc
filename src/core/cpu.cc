#include "core/cpu.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace tmsim {

Cpu::Cpu(CpuId id_, const HtmConfig& htm_cfg, const CacheGeometry& l1_geom,
         const CacheGeometry& l2_geom, MemSystem& mem_sys,
         StatsRegistry& stats)
    : cpuId(id_),
      eq(mem_sys.eventQueue()),
      memSys(mem_sys),
      statsReg(stats),
      l1(cpuStatName(id_, "l1"), l1_geom, htm_cfg.scheme,
         htm_cfg.maxHwLevels, stats),
      l2(cpuStatName(id_, "l2"), l2_geom, htm_cfg.scheme,
         htm_cfg.maxHwLevels, stats),
      ctx(id_, htm_cfg, mem_sys.memory(), &l1, &l2, stats),
      det(mem_sys.detector()),
      tr(&TxTracer::nil()),
      statLoads(stats.counter(cpuStatName(id_, "loads"))),
      statStores(stats.counter(cpuStatName(id_, "stores"))),
      statViolationsTaken(
          stats.counter(cpuStatName(id_, "violations_taken"))),
      statRollbacksToOutermost(
          stats.counter(cpuStatName(id_, "rollbacks_outer"))),
      statRollbacksToInner(
          stats.counter(cpuStatName(id_, "rollbacks_inner"))),
      statOuterCommits(
          stats.counter(cpuStatName(id_, "htm.outer_commits"))),
      statRestarts(stats.counter(cpuStatName(id_, "htm.restarts"))),
      statCapacityRestarts(
          stats.counter(cpuStatName(id_, "htm.capacity_restarts"))),
      statWastedCycles(
          stats.counter(cpuStatName(id_, "htm.wasted_cycles"))),
      statBusBusy(stats.counter(cpuStatName(id_, "bus.busy_cycles"))),
      distTxDurCommitted(
          stats.distribution("htm.tx_duration_committed")),
      distTxDurViolated(stats.distribution("htm.tx_duration_violated")),
      distVioRestart(stats.distribution("htm.violation_to_restart"))
{
    if (l1_geom.lineBytes != l2_geom.lineBytes)
        fatal("L1 and L2 must use the same line size");
    memSys.registerCpu(cpuId, &l1, &l2, &ctx);
}

void
Cpu::checkAlign(Addr addr)
{
    if (addr % wordBytes != 0)
        panic("unaligned access at 0x%llx",
              static_cast<unsigned long long>(addr));
}

int
Cpu::lowestLevel(std::uint32_t mask)
{
    if (mask == 0)
        panic("lowestLevel of empty mask");
    return __builtin_ctz(mask) + 1;
}

void
Cpu::setTracer(TxTracer* t)
{
    tr = t;
    ctx.setTracer(t);
}

void
Cpu::setViolationProtocol(ViolationProtocol p)
{
    violationProtocol = std::move(p);
}

void
Cpu::setAbortProtocol(AbortProtocol p)
{
    abortProtocol = std::move(p);
}

SimTask
Cpu::deliverViolations()
{
    while (ctx.deliverable()) {
        ctx.clampMasksToDepth();
        if (!ctx.inTx() || ctx.xvcurrent() == 0)
            break;
        // Hardware saves xvpc/xvaddr, disables reporting and jumps to
        // xvhcode; the installed protocol is that code.
        ctx.setReporting(false);
        ++violationsDelivered;
        ++statViolationsTaken;
        tr->instant(cpuId, TxTracer::Ev::ViolationDelivered, ctx.depth(),
                    ctx.xvaddr(), ctx.xvattacker());
        // The report registers are now saved into the handler frame;
        // a conflict raised while the handler runs gets its own report.
        ctx.consumeReport();
        if (violationProtocol)
            co_await violationProtocol(*this);
        else
            co_await defaultViolationProtocol();
        // The protocol chose to continue the transaction: xvret.
        if (!ctx.returnFromHandler())
            break;
    }
}

SimTask
Cpu::defaultViolationProtocol()
{
    co_await rollbackAndThrow(lowestLevel(ctx.xvcurrent()));
}

SimTask
Cpu::rollbackAndThrow(int target_level)
{
    // Paper section 7: a rollback without registered handlers takes 6
    // instructions (handler-stack probe, xrwsetclear, xregrestore).
    retire(6);
    co_await Delay{eq, 6};
    Addr where = ctx.xvaddr();
    rawRollback(target_level);
    throw TxRollback{target_level, where};
}

void
Cpu::rawRollback(int target_level)
{
    if (target_level <= 1) {
        ++statRollbacksToOutermost;
        if (ctx.inTx()) {
            const Tick wasted = eq.curTick() - ctx.age();
            distTxDurViolated.sample(wasted);
            statWastedCycles += wasted;
        }
    } else {
        ++statRollbacksToInner;
    }
    // Retract serialisation slots of validated levels about to unwind
    // (an open-nested child validated, then an ancestor was violated
    // before the child's xcommit applied anything), and unpin them.
    if (target_level >= 1 && target_level <= ctx.depth()) {
        const std::uint32_t doomed =
            ctx.validatedLevels() & ~((1u << (target_level - 1)) - 1);
        for (std::uint32_t m = doomed; m; m &= m - 1)
            memSys.notifySerializeCancelled(cpuId);
        for (int lvl = ctx.depth(); lvl >= target_level; --lvl)
            unpin(lvl);
    }
    ctx.rollbackTo(target_level);
    // Attribute the restart reason: a rollback consuming a capacity
    // abort is counted separately and latched for the runtime's retry
    // loop (capacity restarts skip backoff — the retried attempt runs
    // virtualised, so waiting buys nothing).
    lastRollbackCapacity = ctx.takeCapacityRestart();
    if (lastRollbackCapacity)
        ++statCapacityRestarts;
    restartPending = true;
    restartFromTick = eq.curTick();
    // Re-enable reporting and promote anything that arrived while the
    // handler ran; survivors are delivered at the next poll point.
    ctx.returnFromHandler();
}

SimTask
Cpu::exec(std::uint64_t n)
{
    if (ctx.deliverable())
        co_await deliverViolations();
    if (n == 0)
        co_return;
    retire(n);
    co_await Delay{eq, n};
    if (ctx.deliverable())
        co_await deliverViolations();
}

WordTask
Cpu::load(Addr addr)
{
    checkAlign(addr);
    if (ctx.deliverable())
        co_await deliverViolations();
    retire(1);
    ++statLoads;
    const Addr unit = ctx.trackUnit(addr);
    co_await memSys.access(cpuId, ctx.lineOf(addr));
    // A validated transaction pins its write-set until xcommit; late
    // readers stall rather than observe soon-to-be-replaced data.
    while (det.lockedByOther(ctx, unit))
        co_await det.waitUnlocked(ctx, unit);
    if (ctx.deliverable())
        co_await deliverViolations();

    if (!ctx.inTx()) {
        // A validated peer that wrote this unit is already serialised
        // before us; wait for its commit instead of returning the
        // value it is about to replace.
        co_await awaitValidatedPeers(unit, false);
        co_return det.resolveNonTxLoad(cpuId, addr,
                                       memSys.memory().read(addr));
    }

    if (ctx.config().conflict == ConflictMode::Eager &&
        (ctx.levelsReading(unit) | ctx.levelsWriting(unit)) == 0)
        co_await eagerFirstAccess(unit, false);
    co_return ctx.specRead(addr);
}

SimTask
Cpu::store(Addr addr, Word value)
{
    checkAlign(addr);
    if (ctx.deliverable())
        co_await deliverViolations();
    retire(1);
    ++statStores;
    const Addr unit = ctx.trackUnit(addr);
    co_await memSys.access(cpuId, ctx.lineOf(addr));
    while (det.lockedByOther(ctx, unit))
        co_await det.waitUnlocked(ctx, unit);
    if (ctx.deliverable())
        co_await deliverViolations();

    if (!ctx.inTx()) {
        // A validated peer with this unit in its read- or write-set is
        // already serialised before us: storing now would clobber a
        // value its commit depends on (or lose ours under its pending
        // write-back). Stall until it commits.
        co_await awaitValidatedPeers(unit, true);
        // Strong atomicity: a non-transactional store violates every
        // transaction speculating on the unit and updates memory now;
        // in-place speculative writers get their undo entries patched
        // so their rollback keeps this value.
        det.nonTxStore(cpuId, unit);
        memSys.memory().write(addr, value);
        det.patchInPlaceWriters(cpuId, unit, addr, value);
        memSys.commitInvalidate(cpuId, ctx.lineOf(addr));
        co_return;
    }

    if (ctx.config().conflict == ConflictMode::Eager) {
        if (ctx.levelsWriting(unit) == 0)
            co_await eagerFirstAccess(unit, true);
    } else {
        checkPinned(ctx.depth(), addr);
    }
    ctx.specWrite(addr, value);
}

SimTask
Cpu::awaitValidatedPeers(Addr unit, bool is_store)
{
    while (det.lockedByOther(ctx, unit) ||
           det.validatedPeerBlocks(cpuId, unit, is_store)) {
        if (det.lockedByOther(ctx, unit))
            co_await det.waitUnlocked(ctx, unit);
        else
            co_await Delay{eq, 2};
    }
}

SimTask
Cpu::eagerFirstAccess(Addr unit, bool is_write)
{
    Cycles pen = det.overflowPenalty();
    if (pen) {
        co_await Delay{eq, pen};
        if (ctx.deliverable())
            co_await deliverViolations();
    }
    CpuId peer = -1;
    auto verdict = det.eagerCheck(ctx, unit, is_write, &peer);
    if (verdict == ConflictDetector::Verdict::SelfViolate) {
        ctx.raiseViolation(1u << (ctx.depth() - 1), unit, peer);
        co_await deliverViolations();
    }
}

void
Cpu::checkPinned(int lvl, Addr addr) const
{
    const TxLevel& t = ctx.level(lvl);
    if (t.status == TxStatus::Validated &&
        !t.writeLines.contains(ctx.trackUnit(addr)))
        fatal("cpu%d: a write to 0x%llx would join level %d's write set "
              "after its lazy xvalidate broadcast and pinned it",
              cpuId, static_cast<unsigned long long>(addr), lvl);
}

void
Cpu::unpin(int lvl)
{
    const TxLevel& t = ctx.level(lvl);
    if (ctx.config().conflict == ConflictMode::Lazy &&
        t.status == TxStatus::Validated)
        det.unlockLines(ctx, {t.writeLines.begin(), t.writeLines.end()});
}

int
Cpu::registerOpClass(const std::string& name)
{
    auto it = opClassIds.find(name);
    if (it != opClassIds.end())
        return it->second;
    const int id = static_cast<int>(opClasses.size());
    opClasses.push_back(OpClassStats{
        &statsReg.distribution("htm.tx_duration_committed." + name),
        &statsReg.distribution("htm.violation_to_restart." + name)});
    opClassIds.emplace(name, id);
    return id;
}

void
Cpu::consumeRestart()
{
    if (!restartPending)
        return;
    restartPending = false;
    ++statRestarts;
    const Tick lat = eq.curTick() - restartFromTick;
    distVioRestart.sample(lat);
    // The restart belongs to the attempt that was rolled back, whose
    // class is still latched in activeOpClass.
    if (activeOpClass >= 0)
        opClasses[static_cast<size_t>(activeOpClass)].vioRestart->sample(
            lat);
}

SimTask
Cpu::begin(TxKind kind)
{
    if (ctx.deliverable())
        co_await deliverViolations();
    retire(1);
    consumeRestart();
    if (!ctx.inTx())
        activeOpClass = curOpClass;
    ctx.begin(kind, eq.curTick());
    co_await Delay{eq, 1};
}

SimTask
Cpu::xvalidate()
{
    if (ctx.deliverable())
        co_await deliverViolations();
    retire(1);
    co_await Delay{eq, 1};
    if (!ctx.inTx())
        fatal("xvalidate outside a transaction");

    // A subsumed begin or a closed-nested transaction validates for
    // free: its fate is tied to the outermost transaction.
    if (ctx.topIsSubsumed())
        co_return;
    const bool outermost = ctx.depth() == 1;
    const bool open = ctx.top().kind == TxKind::Open;
    if (!outermost && !open)
        co_return;
    if (ctx.top().status == TxStatus::Validated)
        co_return;

    // A conflict recorded against this level — even one that arrived
    // while violation reporting was disabled (handler context) — must
    // be delivered before validation can succeed.
    ctx.promotePendingForLevel(ctx.depth());
    if (ctx.xvcurrent() & (1u << (ctx.depth() - 1))) {
        ctx.setReporting(true);
        co_await deliverViolations();
    }

    if (ctx.config().conflict == ConflictMode::Eager) {
        // Eager systems resolved every conflict at access time; once no
        // violation is pending, all prior accesses are conflict-free.
        ctx.setTopValidated();
        memSys.notifySerialized(cpuId, !outermost);
        co_return;
    }

    // Lazy (TCC-style) validation: acquire the commit token, broadcast
    // the write-set, pin the lines until xcommit.
    Bus& bus = memSys.bus();
    int commitYields = 0;
    constexpr int maxCommitYields = 8;
    for (;;) {
        ctx.promotePendingForLevel(ctx.depth());
        if (ctx.xvcurrent() & (1u << (ctx.depth() - 1)))
            ctx.setReporting(true);
        if (ctx.deliverable())
            co_await deliverViolations();
        // A view of the top write set. Nothing changes that set while
        // this loop is suspended: only this CPU's own instructions
        // insert into it, and a violation delivery, which may roll the
        // level back, is always followed by a fresh view.
        const std::span<const Addr> lines = ctx.topWriteLines();
        if (lines.empty()) {
            // Read-only transaction: nothing to broadcast or pin.
            ctx.setTopValidated();
            memSys.notifySerialized(cpuId, !outermost);
            co_return;
        }
        bool waited = false;
        for (Addr line : lines) {
            while (det.lockedByOther(ctx, line)) {
                waited = true;
                co_await det.waitUnlocked(ctx, line);
            }
        }
        if (waited)
            continue;

        co_await bus.commitToken().acquire();
        bus.countTokenGrant();
        if (ctx.deliverable() || det.anyLockedByOther(ctx, lines)) {
            bus.commitToken().release();
            continue;
        }

        // Commit arbitration: the contention manager may tell this
        // committer to surrender its slot to a starving reader (the
        // Hybrid policy's must-win escalation). Yield by pausing, not
        // aborting: release the token and retry shortly, opening a
        // window for the escalated reader to grab the token and commit
        // first. The committer keeps its speculative state — if the
        // reader's commit genuinely conflicts, its broadcast violates
        // this committer through the normal path. Bounded so a
        // long-running reader cannot pin a validated committer forever.
        if (commitYields < maxCommitYields) {
            const auto yield = det.commitYieldTarget(ctx, lines);
            if (yield.yield) {
                ++commitYields;
                bus.commitToken().release();
                co_await Delay{eq, Cycles{4}};
                continue;
            }
        }

        // Commit point: violate conflicting readers, pin the write-set
        // (it stays frozen until xcommit unpins it; see checkPinned).
        Cycles penalty = det.broadcastWriteSet(ctx, lines);
        det.lockLines(ctx, lines);
        ctx.setTopValidated();
        memSys.notifySerialized(cpuId, !outermost);

        const Addr unitBytes =
            ctx.config().granularity == TrackGranularity::Word
                ? wordBytes
                : l1.geometry().lineBytes;
        const Cycles beats =
            lines.size() * (1 + bus.beatsForLine(unitBytes));
        co_await bus.occupy(beats);
        statBusBusy += Bus::arbitrationLatency + beats;
        if (penalty)
            co_await Delay{eq, penalty};
        bus.commitToken().release();
        co_return;
    }
}

SimTask
Cpu::xcommit()
{
    if (ctx.deliverable())
        co_await deliverViolations();
    retire(1);
    co_await Delay{eq, 1};
    if (!ctx.inTx())
        fatal("xcommit outside a transaction");

    if (ctx.topIsSubsumed()) {
        ctx.commitSubsumed();
        co_return;
    }

    const bool outermost = ctx.depth() == 1;
    const bool open = ctx.top().kind == TxKind::Open;
    if (!outermost && !open) {
        // Closed-nested commit: merge into the parent.
        if (ctx.config().conflict == ConflictMode::Lazy)
            for (Addr unit : ctx.topWriteLines())
                checkPinned(ctx.depth() - 1, unit);
        Cycles cost = ctx.commitClosedTop();
        if (cost)
            co_await Delay{eq, cost};
        co_return;
    }

    if (ctx.top().status != TxStatus::Validated)
        fatal("xcommit without a preceding xvalidate");

    Cycles cost = ctx.commitTopToMemory();
    // Under word-granular tracking several units share a line; a
    // repeated snoop of a line finds no copy left to invalidate.
    for (Addr unit : ctx.topWriteLines())
        memSys.commitInvalidate(cpuId, ctx.lineOf(unit));
    unpin(ctx.depth());
    if (outermost) {
        ++statOuterCommits;
        const Tick dur = eq.curTick() - ctx.age();
        distTxDurCommitted.sample(dur);
        if (activeOpClass >= 0)
            opClasses[static_cast<size_t>(activeOpClass)]
                .durCommitted->sample(dur);
    }
    ctx.popCommittedTop();
    if (cost)
        co_await Delay{eq, cost};
}

SimTask
Cpu::xrwsetclear()
{
    retire(1);
    co_await Delay{eq, 1};
    if (!ctx.inTx())
        fatal("xrwsetclear outside a transaction");
    unpin(ctx.depth());
    ctx.clearTopSets();
    ctx.clearViolationBits(ctx.depth());
}

SimTask
Cpu::xregrestore()
{
    retire(1);
    co_await Delay{eq, 1};
}

SimTask
Cpu::xabort(Word code)
{
    retire(1);
    co_await Delay{eq, 1};
    if (!ctx.inTx())
        fatal("xabort outside a transaction");
    tr->instant(cpuId, TxTracer::Ev::AbortRequested, ctx.depth());
    // Hardware jumps to xahcode with reporting disabled.
    ctx.setReporting(false);
    if (abortProtocol) {
        co_await abortProtocol(*this, code);
        // Protocol returned without unwinding: resume the transaction.
        ctx.setReporting(true);
        co_return;
    }
    // Default: roll back the current transaction and unwind. Raw-ISA
    // users have no runtime retry loop, so a voluntary abort that
    // leaves the outermost level ends the attempt sequence for the
    // contention manager's fairness bookkeeping.
    int target = ctx.depth();
    retire(5);
    co_await Delay{eq, 5};
    rawRollback(target);
    if (!ctx.inTx())
        det.noteSequenceAbandoned(cpuId);
    throw TxAbortSignal{target, code};
}

WordTask
Cpu::imld(Addr addr)
{
    checkAlign(addr);
    if (ctx.deliverable())
        co_await deliverViolations();
    retire(1);
    co_await memSys.access(cpuId, ctx.lineOf(addr));
    co_return ctx.immRead(addr);
}

SimTask
Cpu::imst(Addr addr, Word value)
{
    checkAlign(addr);
    if (ctx.deliverable())
        co_await deliverViolations();
    retire(1);
    co_await memSys.access(cpuId, ctx.lineOf(addr));
    ctx.immWrite(addr, value);
}

SimTask
Cpu::imstid(Addr addr, Word value)
{
    checkAlign(addr);
    if (ctx.deliverable())
        co_await deliverViolations();
    retire(1);
    co_await memSys.access(cpuId, ctx.lineOf(addr));
    ctx.immWriteIdempotent(addr, value);
}

SimTask
Cpu::release(Addr addr)
{
    if (ctx.deliverable())
        co_await deliverViolations();
    retire(1);
    co_await Delay{eq, 1};
    // Paper 4.7: release drops exactly the addressed conflict-tracking
    // unit — under word tracking, only that word — so a conflict on a
    // neighbouring word of the same line must still violate.
    ctx.releaseLine(addr);
}

} // namespace tmsim

#include "htm/conflict_detector.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace tmsim {

ConflictDetector::ConflictDetector(EventQueue& eq_, StatsRegistry& stats)
    : eq(eq_),
      statsRef(stats),
      statBroadcastLines(stats.counter("htm.broadcast_lines")),
      statLazyViolations(stats.counter("htm.lazy_violations")),
      statEagerConflicts(stats.counter("htm.eager_conflicts")),
      statSelfViolations(stats.counter("htm.self_violations")),
      statLockStalls(stats.counter("htm.lock_stalls")),
      statStrongAtomicityViolations(
          stats.counter("htm.strong_atomicity_violations")),
      statIndexHits(stats.counter("htm.index_hits")),
      statOverflowChecks(stats.counter("htm.overflow_checks"))
{
    tracer = &TxTracer::nil();
}

void
ConflictDetector::addContext(HtmContext* ctx)
{
    if (!ctxs.empty()) {
        const HtmConfig& first = ctxs.front()->config();
        if (ctx->config().granularity != first.granularity ||
            ctx->lineBytes() != ctxs.front()->lineBytes()) {
            panic("sharer index requires a uniform conflict-tracking "
                  "granularity and line size across contexts");
        }
    }
    ctxs.push_back(ctx);
    ctx->setDetector(this);
    // The chip-wide contention manager is built from the first
    // context's configuration (policies are per-machine, not per-CPU).
    if (!cm)
        cm = makeContentionManager(ctx->config(), statsRef);
    ctx->setContentionManager(cm.get());
}

ContentionManager&
ConflictDetector::contention()
{
    if (!cm) {
        // No context registered yet (raw detector tests): default
        // Requester manager.
        cm = makeContentionManager(HtmConfig{}, statsRef);
    }
    return *cm;
}

void
ConflictDetector::noteSequenceAbandoned(CpuId cpu)
{
    contention().onSequenceAbandoned(cpu);
    for (HtmContext* ctx : ctxs)
        if (ctx->cpuId() == cpu)
            ctx->noteSequenceAbandoned();
}

void
ConflictDetector::updateSharer(HtmContext* ctx, Addr unit, bool is_write,
                               std::uint32_t clear_bits,
                               std::uint32_t set_bits)
{
    auto bySlotCpu = [](const SharerSlot& s, CpuId id) {
        return s.ctx->cpuId() < id;
    };
    if (set_bits) {
        auto& sharers = sharerIndex[unit].sharers;
        auto it = std::lower_bound(sharers.begin(), sharers.end(),
                                   ctx->cpuId(), bySlotCpu);
        if (it == sharers.end() || it->ctx != ctx)
            it = sharers.insert(it, SharerSlot{ctx, 0, 0});
        std::uint32_t& m = is_write ? it->writers : it->readers;
        m = (m & ~clear_bits) | set_bits;
        return;
    }
    auto mit = sharerIndex.find(unit);
    if (mit == sharerIndex.end())
        panic("sharer index has no entry for unit 0x%llx",
              static_cast<unsigned long long>(unit));
    auto& sharers = mit->second.sharers;
    auto it = std::lower_bound(sharers.begin(), sharers.end(), ctx->cpuId(),
                               bySlotCpu);
    if (it == sharers.end() || it->ctx != ctx)
        panic("sharer index has no cpu%d slot for unit 0x%llx",
              ctx->cpuId(), static_cast<unsigned long long>(unit));
    (is_write ? it->writers : it->readers) &= ~clear_bits;
    if (it->readers | it->writers)
        return;
    sharers.erase(it);
    if (sharers.empty())
        sharerIndex.erase(mit);
}

const ConflictDetector::SharerEntry*
ConflictDetector::lookupSharers(Addr unit) const
{
    auto it = sharerIndex.find(unit);
    if (it == sharerIndex.end())
        return nullptr;
    ++statIndexHits;
    return &it->second;
}

std::uint32_t
ConflictDetector::indexedReaders(const HtmContext& ctx, Addr unit) const
{
    auto it = sharerIndex.find(unit);
    if (it == sharerIndex.end())
        return 0;
    for (const SharerSlot& s : it->second.sharers)
        if (s.ctx == &ctx)
            return s.readers;
    return 0;
}

std::uint32_t
ConflictDetector::indexedWriters(const HtmContext& ctx, Addr unit) const
{
    auto it = sharerIndex.find(unit);
    if (it == sharerIndex.end())
        return 0;
    for (const SharerSlot& s : it->second.sharers)
        if (s.ctx == &ctx)
            return s.writers;
    return 0;
}

Cycles
ConflictDetector::broadcastWriteSet(HtmContext& committer,
                                    std::span<const Addr> lines)
{
    statBroadcastLines += lines.size();
    for (Addr line : lines) {
        const SharerEntry* e = lookupSharers(line);
        if (!e)
            continue;
        for (const SharerSlot& s : e->sharers) {
            HtmContext* ctx = s.ctx;
            if (ctx == &committer || !ctx->inTx())
                continue;
            // Only readers are violated: a write-write overlap without
            // a read is serialisable (the later committer's values
            // simply supersede), and word-granular data application
            // keeps disjoint words of a shared line intact.
            std::uint32_t mask = s.readers & ~ctx->validatedLevels();
            if (mask) {
                ++statLazyViolations;
                ctx->raiseViolation(mask, line, committer.cpuId());
            }
        }
    }
    return overflowPenalty();
}

ConflictDetector::CommitYield
ConflictDetector::commitYieldTarget(const HtmContext& committer,
                                    std::span<const Addr> lines)
{
    CommitYield out;
    ContentionManager& mgr = contention();
    if (!mgr.mayYieldAtCommit())
        return out;
    for (Addr line : lines) {
        const SharerEntry* e = lookupSharers(line);
        if (!e)
            continue;
        for (const SharerSlot& s : e->sharers) {
            HtmContext* ctx = s.ctx;
            if (ctx == &committer || !ctx->inTx())
                continue;
            if (!(s.readers & ~ctx->validatedLevels()))
                continue;
            if (mgr.committerYields(committer, *ctx)) {
                tracer->instant(committer.cpuId(),
                                TxTracer::Ev::Arbitration,
                                committer.depth(), line, ctx->cpuId());
                out.yield = true;
                out.peer = ctx->cpuId();
                out.line = line;
                return out;
            }
        }
    }
    return out;
}

void
ConflictDetector::lockLines(const HtmContext& owner,
                            std::span<const Addr> lines)
{
    for (Addr line : lines) {
        auto [it, inserted] = lockOwner.emplace(line, Lock{owner.cpuId(), 1});
        if (!inserted) {
            if (it->second.owner != owner.cpuId())
                panic("line 0x%llx already locked by cpu%d",
                      static_cast<unsigned long long>(line),
                      it->second.owner);
            ++it->second.count;
        }
    }
}

void
ConflictDetector::unlockLines(const HtmContext& owner,
                              std::span<const Addr> lines)
{
    for (Addr line : lines) {
        auto it = lockOwner.find(line);
        if (it == lockOwner.end() || it->second.owner != owner.cpuId())
            panic("unlock of line 0x%llx not held by cpu%d",
                  static_cast<unsigned long long>(line), owner.cpuId());
        if (--it->second.count > 0)
            continue;
        lockOwner.erase(it);
        auto wit = lockWaiters.find(line);
        if (wit != lockWaiters.end()) {
            auto handles = std::move(wit->second);
            lockWaiters.erase(wit);
            for (auto h : handles)
                eq.schedule(1, [h] { h.resume(); });
        }
    }
}

bool
ConflictDetector::lockedByOther(const HtmContext& me, Addr line) const
{
    auto it = lockOwner.find(line);
    return it != lockOwner.end() && it->second.owner != me.cpuId();
}

bool
ConflictDetector::anyLockedByOther(const HtmContext& me,
                                   std::span<const Addr> lines) const
{
    for (Addr line : lines)
        if (lockedByOther(me, line))
            return true;
    return false;
}

SimTask
ConflictDetector::waitUnlocked(const HtmContext& me, Addr line)
{
    if (!lockedByOther(me, line))
        co_return;
    // One stall event per initial park, however many spurious re-wakes
    // the unlock/relock races deliver before the line is really free.
    ++statLockStalls;
    const Tick stallStart = eq.curTick();
    while (lockedByOther(me, line))
        co_await LockWait{*this, line};
    tracer->span(me.cpuId(), TxTracer::Ev::LockStall, stallStart,
                 eq.curTick() - stallStart);
}

ConflictDetector::Verdict
ConflictDetector::eagerCheck(HtmContext& requester, Addr line,
                             bool is_write, CpuId* conflict_peer)
{
    const SharerEntry* e = lookupSharers(line);
    if (!e)
        return Verdict::Proceed;
    ContentionManager& mgr = contention();
    for (const SharerSlot& s : e->sharers) {
        HtmContext* ctx = s.ctx;
        if (ctx == &requester || !ctx->inTx())
            continue;
        std::uint32_t writerMask = s.writers;
        std::uint32_t mask = writerMask;
        if (is_write)
            mask |= s.readers;
        if (!mask)
            continue;
        ++statEagerConflicts;

        // Physical constraints come first; the contention manager only
        // decides within them.
        const bool victimValidated = (mask & ctx->validatedLevels()) != 0;
        bool requesterLoses = victimValidated;
        if (writerMask != 0 &&
            ctx->config().version == VersionMode::UndoLog) {
            // An undo-log victim's speculative data sits IN memory: the
            // requester must not touch the line until the victim
            // resolves (it backs off and retries). To avoid deadlock
            // through nesting (a requester retrying an inner
            // transaction while holding outer-level lines the victim
            // wants), a SENIOR requester also evicts the junior holder.
            // Every policy's eviction rule is a strict total priority
            // order — the most-senior transaction is never evicted, so
            // the system always makes progress (LogTM's possible-cycle/
            // abort-younger policy).
            requesterLoses = true;
            const bool evictVictim =
                !victimValidated && requester.inTx() &&
                mgr.evictInPlaceVictim(requester, *ctx);
            if (evictVictim) {
                tracer->instant(ctx->cpuId(), TxTracer::Ev::Arbitration,
                                ctx->depth(), line, requester.cpuId());
                ctx->raiseViolation(mask & ~ctx->validatedLevels(), line,
                                    requester.cpuId());
            }
        }
        if (!requesterLoses && requester.inTx())
            requesterLoses = mgr.requesterLoses(requester, *ctx);

        if (requesterLoses) {
            ++statSelfViolations;
            tracer->instant(requester.cpuId(), TxTracer::Ev::Arbitration,
                            requester.depth(), line, ctx->cpuId());
            if (conflict_peer)
                *conflict_peer = ctx->cpuId();
            return Verdict::SelfViolate;
        }
        ctx->raiseViolation(mask & ~ctx->validatedLevels(), line,
                            requester.cpuId());
    }
    return Verdict::Proceed;
}

void
ConflictDetector::nonTxStore(CpuId cpu, Addr line)
{
    const SharerEntry* e = lookupSharers(line);
    if (!e)
        return;
    for (const SharerSlot& s : e->sharers) {
        HtmContext* ctx = s.ctx;
        if (ctx->cpuId() == cpu || !ctx->inTx())
            continue;
        std::uint32_t mask = (s.readers | s.writers) &
                             ~ctx->validatedLevels();
        if (mask) {
            ++statStrongAtomicityViolations;
            ctx->raiseViolation(mask, line, cpu);
        }
    }
}

Word
ConflictDetector::resolveNonTxLoad(CpuId cpu, Addr word_addr,
                                   Word mem_value) const
{
    // Strong atomicity for loads under in-place (undo-log) versioning:
    // a non-transactional reader must observe the committed value, not
    // a speculative write sitting in memory. The oldest undo entry
    // holds exactly that value. An in-place writer necessarily holds
    // the word's track unit in its write-set, so the sharer index
    // narrows the scan to the unit's writers.
    if (ctxs.empty())
        return mem_value;
    const SharerEntry* e = lookupSharers(ctxs.front()->trackUnit(word_addr));
    if (!e)
        return mem_value;
    for (const SharerSlot& s : e->sharers) {
        if (s.ctx->cpuId() == cpu || !s.writers)
            continue;
        if (s.ctx->wroteWordInPlace(word_addr))
            return s.ctx->oldestUndoValue(word_addr);
    }
    return mem_value;
}

void
ConflictDetector::patchInPlaceWriters(CpuId cpu, Addr line_addr,
                                      Addr word_addr, Word value)
{
    // Strong atomicity for stores over in-place speculative data: the
    // violated writer's eventual rollback must restore OUR value, and
    // its read/write sets were already violated via nonTxStore().
    const SharerEntry* e = lookupSharers(line_addr);
    if (!e)
        return;
    for (const SharerSlot& s : e->sharers) {
        HtmContext* ctx = s.ctx;
        if (ctx->cpuId() == cpu || !s.writers)
            continue;
        if (ctx->config().version == VersionMode::UndoLog && ctx->inTx())
            ctx->patchUndoEntries(word_addr, value);
    }
}

bool
ConflictDetector::validatedPeerBlocks(CpuId cpu, Addr unit,
                                      bool is_store) const
{
    const SharerEntry* e = lookupSharers(unit);
    if (!e)
        return false;
    for (const SharerSlot& s : e->sharers) {
        if (s.ctx->cpuId() == cpu || !s.ctx->inTx())
            continue;
        std::uint32_t mask = s.writers | (is_store ? s.readers : 0);
        if (mask & s.ctx->validatedLevels())
            return true;
    }
    return false;
}

Cycles
ConflictDetector::overflowPenalty() const
{
    // Charged on both conflict paths: eager mode in Cpu::load/store on
    // every first access to a unit, before eagerCheck runs; lazy mode
    // at the tail of broadcastWriteSet, whatever the broadcast found.
    Cycles penalty = 0;
    for (const HtmContext* ctx : ctxs) {
        if (ctx->overflowed()) {
            ++statOverflowChecks;
            penalty += HtmConfig::overflowCheckPenalty;
        }
    }
    return penalty;
}

} // namespace tmsim

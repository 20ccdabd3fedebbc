#include "htm/htm_context.hh"

#include <algorithm>

#include "htm/conflict_detector.hh"
#include "htm/contention.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace tmsim {

HtmContext::HtmContext(CpuId id_, const HtmConfig& cfg_, BackingStore& mem_,
                       Cache* l1_, Cache* l2_, StatsRegistry& stats)
    : id(id_),
      cfg(cfg_),
      mem(mem_),
      l1(l1_),
      l2(l2_),
      lineSize(l1_ ? l1_->geometry().lineBytes : 32),
      statBegins(stats.counter(cpuStatName(id_, "htm.begins"))),
      statCommits(stats.counter(cpuStatName(id_, "htm.commits"))),
      statOpenCommits(stats.counter(cpuStatName(id_, "htm.open_commits"))),
      statRollbacks(stats.counter(cpuStatName(id_, "htm.rollbacks"))),
      statViolationsRaised(
          stats.counter(cpuStatName(id_, "htm.violations"))),
      statSubsumed(stats.counter(cpuStatName(id_, "htm.subsumed_begins"))),
      statCapacityAborts(
          stats.counter(cpuStatName(id_, "htm.capacity_aborts"))),
      statCapacitySpills(stats.counter("htm.capacity_spills")),
      distRsetAtCommit(stats.distribution("htm.rset_size_at_commit")),
      distWsetAtCommit(stats.distribution("htm.wset_size_at_commit"))
{
    tracer = &TxTracer::nil();
    if (cfg.version == VersionMode::UndoLog &&
        cfg.conflict == ConflictMode::Lazy) {
        fatal("undo-log versioning requires eager conflict detection: "
              "in-place speculative writes need access-time ownership");
    }
}

int
HtmContext::logicalDepth() const
{
    int d = depth();
    for (const auto& lvl : levels)
        d += lvl.flattenDepth;
    return d;
}

Tick
HtmContext::age() const
{
    if (levels.empty())
        panic("age() outside a transaction");
    return levels.front().beginTick;
}

bool
HtmContext::begin(TxKind kind, Tick now)
{
    ++statBegins;
    const bool mustSubsume =
        (cfg.nesting == NestingMode::Flatten && !levels.empty()) ||
        depth() >= cfg.maxHwLevels;

    if (mustSubsume) {
        if (kind == TxKind::Open && cfg.nesting == NestingMode::Full) {
            fatal("open-nested transaction beyond hardware nesting "
                  "depth %d cannot be subsumed", cfg.maxHwLevels);
        }
        ++statSubsumed;
        top().flattenDepth++;
        tracer->instant(id, TxTracer::Ev::SubsumedBegin, depth());
        return false;
    }

    TxLevel lvl;
    lvl.kind = kind;
    lvl.beginTick = now;
    lvl.undoBase = undoLog.size();
    levels.push_back(std::move(lvl));
    if (depth() == 1 && cmgr)
        cmgr->onOuterBegin(id, now);
    tracer->beginTx(id,
                    depth() == 1 ? TxTracer::Ev::TxOuter
                    : kind == TxKind::Open ? TxTracer::Ev::TxOpen
                                           : TxTracer::Ev::TxNested,
                    depth());
    return true;
}

bool
HtmContext::topIsSubsumed() const
{
    return inTx() && top().flattenDepth > 0;
}

void
HtmContext::commitSubsumed()
{
    if (!topIsSubsumed())
        panic("commitSubsumed with no subsumed begin");
    levels.back().flattenDepth--;
}

Word
HtmContext::readVisible(Addr word_addr) const
{
    if (cfg.version == VersionMode::WriteBuffer) {
        for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
            if (const Word* hit = it->writeBuffer.find(word_addr))
                return *hit;
        }
    }
    return mem.read(word_addr);
}

Word
HtmContext::specRead(Addr addr)
{
    if (!inTx())
        panic("specRead outside a transaction");
    Word value = readVisible(addr);
    track(addr, false);
    return value;
}

void
HtmContext::specWrite(Addr addr, Word value)
{
    if (!inTx())
        panic("specWrite outside a transaction");
    if (cfg.version == VersionMode::WriteBuffer) {
        top().writeBuffer[addr] = value;
    } else {
        pushUndo(addr);
        mem.write(addr, value);
        top().writtenWords.insert(addr);
    }
    track(addr, true);
}

void
HtmContext::track(Addr addr, bool is_write)
{
    const Addr unit = trackUnit(addr);
    if ((is_write ? top().writeLines : top().readLines).insert(unit)) {
        noteInsert(unit, is_write);
        if ((is_write ? cfg.wsetCap : cfg.rsetCap) > 0)
            enforceCapacity(is_write, unit);
    }
    const Addr line = lineOf(addr);
    if (l1)
        l1->mark(line, depth(), is_write);
    if (l2)
        l2->mark(line, depth(), is_write);
}

Word
HtmContext::immRead(Addr addr) const
{
    return inTx() ? readVisible(addr) : mem.read(addr);
}

void
HtmContext::immWrite(Addr addr, Word value)
{
    if (inTx())
        pushUndo(addr);
    mem.write(addr, value);
}

void
HtmContext::immWriteIdempotent(Addr addr, Word value)
{
    mem.write(addr, value);
}

void
HtmContext::releaseLine(Addr addr)
{
    if (!inTx())
        return;
    Addr unit = trackUnit(addr);
    if (top().readLines.erase(unit))
        updateSharer(unit, false, 1u << (depth() - 1), 0);
}

void
HtmContext::updateSharer(Addr unit, bool is_write, std::uint32_t clear_bits,
                         std::uint32_t set_bits)
{
    if (det)
        det->updateSharer(this, unit, is_write, clear_bits, set_bits);
}

void
HtmContext::noteInsert(Addr unit, bool is_write)
{
    if (cmgr)
        cmgr->onTrackedAccess(id);
    updateSharer(unit, is_write, 0, 1u << (depth() - 1));
}

void
HtmContext::dropLevelFromIndex(int lvl)
{
    const TxLevel& t = levels[static_cast<size_t>(lvl - 1)];
    const std::uint32_t bit = 1u << (lvl - 1);
    for (Addr unit : t.readLines)
        updateSharer(unit, false, bit, 0);
    for (Addr unit : t.writeLines)
        updateSharer(unit, true, bit, 0);
}

void
HtmContext::onAllLevelsGone()
{
    overflowLines = 0;
    validatedMask = 0;
}

std::uint32_t
HtmContext::levelsReading(Addr line) const
{
    std::uint32_t mask = 0;
    for (size_t i = 0; i < levels.size(); ++i)
        if (levels[i].readLines.contains(line))
            mask |= 1u << i;
    return mask;
}

std::uint32_t
HtmContext::levelsWriting(Addr line) const
{
    std::uint32_t mask = 0;
    for (size_t i = 0; i < levels.size(); ++i)
        if (levels[i].writeLines.contains(line))
            mask |= 1u << i;
    return mask;
}

std::uint32_t
HtmContext::validatedLevelsScan() const
{
    std::uint32_t mask = 0;
    for (size_t i = 0; i < levels.size(); ++i)
        if (levels[i].status == TxStatus::Validated)
            mask |= 1u << i;
    return mask;
}

bool
HtmContext::wroteWordInPlace(Addr word_addr) const
{
    if (cfg.version != VersionMode::UndoLog)
        return false;
    for (const auto& lvl : levels)
        if (lvl.writtenWords.contains(word_addr))
            return true;
    return false;
}

Word
HtmContext::oldestUndoValue(Addr word_addr) const
{
    for (const UndoEntry& e : undoLog)
        if (e.addr == word_addr)
            return e.oldValue;
    panic("oldestUndoValue: no undo entry for 0x%llx",
          static_cast<unsigned long long>(word_addr));
}

void
HtmContext::patchUndoEntries(Addr word_addr, Word value)
{
    for (UndoEntry& e : undoLog)
        if (e.addr == word_addr)
            e.oldValue = value;
}

void
HtmContext::setTopValidated()
{
    if (!inTx())
        panic("setTopValidated outside a transaction");
    top().status = TxStatus::Validated;
    validatedMask |= 1u << (depth() - 1);
    tracer->instant(id, TxTracer::Ev::Validated, depth());
}

void
HtmContext::clearTopSets()
{
    if (!inTx())
        panic("clearTopSets outside a transaction");
    dropLevelFromIndex(depth());
    top().clearSets();
}

Cycles
HtmContext::commitClosedTop()
{
    if (depth() < 2)
        panic("commitClosedTop at depth %d", depth());
    const int childLevelNum = depth();
    const std::uint64_t spillBefore =
        cfg.boundedCapacity() ? spilledLineCount() : 0;
    distRsetAtCommit.sample(top().readSetSize());
    distWsetAtCommit.sample(top().writeSetSize());
    tracer->endTx(id, childLevelNum, TxTracer::Outcome::ClosedMerge);
    TxLevel child = std::move(levels.back());
    levels.pop_back();
    TxLevel& parent = levels.back();

    // The child's bit moves down to the parent in the sharer index.
    const std::uint32_t childBit = 1u << (childLevelNum - 1);
    const std::uint32_t parentBit = childBit >> 1;
    for (Addr a : child.readLines) {
        parent.readLines.insert(a);
        updateSharer(a, false, childBit, parentBit);
    }
    for (Addr a : child.writeLines) {
        parent.writeLines.insert(a);
        updateSharer(a, true, childBit, parentBit);
    }
    // The popped child level's Validated bit (if any) no longer exists.
    validatedMask &= ~childBit;
    for (const auto& [word, value] : child.writeBuffer)
        parent.writeBuffer[word] = value;
    for (Addr w : child.writtenWords)
        parent.writtenWords.insert(w);
    // Undo-log entries of the child are absorbed by the parent simply
    // because the parent's undoBase already bounds them (paper 6.3.1).

    if (l1)
        l1->mergeLevelDown(childLevelNum);
    if (l2)
        l2->mergeLevelDown(childLevelNum);
    // A conflict recorded against the child between its last poll
    // point and this merge now applies to the parent: the stale data
    // just merged into the parent's sets. Transfer the mask bits
    // instead of dropping them.
    if (vcurrent & childBit)
        vcurrent = (vcurrent & ~childBit) | parentBit;
    if (vpending & childBit)
        vpending = (vpending & ~childBit) | parentBit;
    // A closed-nested merge can push the parent past its own caps (the
    // merged sets are the union): re-check, counting fresh spills in
    // overflow/virtualised mode or aborting the parent level in abort
    // mode.
    if (cfg.boundedCapacity()) {
        const std::uint64_t spillAfter = spilledLineCount();
        if (spillAfter > spillBefore)
            statCapacitySpills += spillAfter - spillBefore;
        if (!capVirtualized &&
            cfg.capacityMode == CapacityMode::Abort && topOverCap()) {
            raiseCapacityAbort(depth(), invalidAddr);
        }
    }
    ++statCommits;

    if (cfg.lazyMerge)
        return 0;
    return HtmConfig::mergePerLineCycles *
           (child.readSetSize() + child.writeSetSize());
}

Cycles
HtmContext::commitTopToMemory()
{
    if (!inTx())
        panic("commitTopToMemory outside a transaction");
    TxLevel& t = top();
    Cycles cost = 0;

    if (cfg.version == VersionMode::WriteBuffer) {
        for (const auto& [word, value] : t.writeBuffer) {
            mem.write(word, value);
            // Open-nested commit: ancestors holding a speculative
            // version of this word observe the committed value without
            // any change to their read/write sets (paper 4.5).
            for (int i = depth() - 1; i >= 1; --i) {
                auto& buf = levels[static_cast<size_t>(i - 1)].writeBuffer;
                if (Word* hit = buf.find(word))
                    *hit = value;
            }
        }
    } else {
        // Undo-log: memory is already current. For an open-nested
        // commit, patch ancestor undo entries so a later ancestor
        // rollback does not revert this committed update (paper 6.3.1:
        // "requires an expensive search through the undo-log").
        if (depth() > 1) {
            size_t base = t.undoBase;
            for (Addr word : t.writtenWords) {
                Word committed = mem.read(word);
                for (size_t i = 0; i < base; ++i) {
                    ++cost;
                    if (undoLog[i].addr == word)
                        undoLog[i].oldValue = committed;
                }
            }
        }
        undoLog.resize(t.undoBase);
    }
    return cost;
}

void
HtmContext::popCommittedTop()
{
    if (!inTx())
        panic("popCommittedTop outside a transaction");
    int lvl = depth();
    distRsetAtCommit.sample(top().readSetSize());
    distWsetAtCommit.sample(top().writeSetSize());
    if (top().kind == TxKind::Open && lvl > 1) {
        ++statOpenCommits;
        tracer->endTx(id, lvl, TxTracer::Outcome::OpenCommit);
    } else {
        ++statCommits;
        tracer->endTx(id, lvl, TxTracer::Outcome::Commit);
    }
    if (l1)
        l1->commitOpenLevel(lvl);
    if (l2)
        l2->commitOpenLevel(lvl);
    clearViolationBits(lvl);
    dropLevelFromIndex(lvl);
    validatedMask &= ~(1u << (lvl - 1));
    levels.pop_back();
    if (levels.empty()) {
        if (cmgr)
            cmgr->onOuterCommit(id);
        // A committed outermost level ends the virtualised episode;
        // rollbacks deliberately do not (the retried attempt needs the
        // lifted caps to make progress).
        capVirtualized = false;
        onAllLevelsGone();
    }
}

void
HtmContext::rollbackTo(int target)
{
    if (target < 1 || target > depth())
        panic("rollbackTo(%d) with depth %d", target, depth());
    for (int lvl = depth(); lvl >= target; --lvl) {
        TxLevel& t = levels.back();
        // Restore in-place speculative writes (undo-log stores and any
        // imst undo records) in FILO order.
        for (size_t i = undoLog.size(); i > t.undoBase; --i) {
            const UndoEntry& e = undoLog[i - 1];
            mem.write(e.addr, e.oldValue);
        }
        undoLog.resize(t.undoBase);
        if (l1)
            l1->clearLevel(lvl);
        if (l2)
            l2->clearLevel(lvl);
        clearViolationBits(lvl);
        dropLevelFromIndex(lvl);
        validatedMask &= ~(1u << (lvl - 1));
        levels.pop_back();
        ++statRollbacks;
        tracer->endTx(id, lvl, TxTracer::Outcome::Rollback, vaddr);
    }
    maybeReleaseReport();
    if (levels.empty()) {
        // The outermost level rolled back: the attempt sequence stays
        // active (the runtime usually retries), but the abort streak
        // grows and may trip the starvation guard.
        if (cmgr)
            cmgr->onOuterRollback(id);
        onAllLevelsGone();
    }
}

void
HtmContext::raiseViolation(std::uint32_t mask, Addr where, CpuId attacker)
{
    if (mask == 0)
        panic("raiseViolation with empty mask");
    ++statViolationsRaised;
    if (reporting)
        vcurrent |= mask;
    else
        vpending |= mask;
    if (!vheld) {
        vaddr = where;
        vattacker = attacker;
        vheld = true;
    }
    tracer->instant(id, TxTracer::Ev::ViolationRaised,
                    __builtin_ctz(mask) + 1, where, attacker);
}

bool
HtmContext::returnFromHandler()
{
    reporting = true;
    vcurrent |= vpending;
    vpending = 0;
    maybeReleaseReport();
    return vcurrent != 0;
}

void
HtmContext::clearViolationBits(int lvl)
{
    std::uint32_t bit = 1u << (lvl - 1);
    vcurrent &= ~bit;
    vpending &= ~bit;
    maybeReleaseReport();
}

void
HtmContext::clampMasksToDepth()
{
    if (levels.empty()) {
        vcurrent = 0;
        vpending = 0;
        vheld = false;
        return;
    }
    const std::uint32_t valid = (1u << depth()) - 1;
    if (vcurrent & ~valid)
        vcurrent = (vcurrent & valid) | (1u << (depth() - 1));
    if (vpending & ~valid)
        vpending = (vpending & valid) | (1u << (depth() - 1));
}

void
HtmContext::promotePendingForLevel(int lvl)
{
    std::uint32_t bit = 1u << (lvl - 1);
    if (vpending & bit) {
        vpending &= ~bit;
        vcurrent |= bit;
    }
}

void
HtmContext::noteEviction(const EvictInfo& info)
{
    if (!(info.evicted && info.transactional))
        return;
    ++overflowLines;
    // Cache-eviction abort mode: bounded-capacity hardware in Abort
    // mode cannot virtualise an evicted transactional line in place,
    // so the transaction restarts (virtualised). Unbounded configs
    // keep the historical virtualise-silently behaviour.
    if (cfg.boundedCapacity() && cfg.capacityMode == CapacityMode::Abort &&
        !capVirtualized && inTx()) {
        raiseCapacityAbort(depth(), info.lineAddr);
    }
}

std::uint64_t
HtmContext::spilledLineCount() const
{
    if (!cfg.boundedCapacity())
        return 0;
    if (!capVirtualized && cfg.capacityMode != CapacityMode::Overflow)
        return 0;
    std::uint64_t n = 0;
    for (const TxLevel& t : levels)
        n += t.spilledLines(cfg.rsetCap, cfg.wsetCap);
    return n;
}

bool
HtmContext::topOverCap() const
{
    const TxLevel& t = top();
    return (cfg.rsetCap > 0 &&
            t.readSetSize() > static_cast<size_t>(cfg.rsetCap)) ||
           (cfg.wsetCap > 0 &&
            t.writeSetSize() > static_cast<size_t>(cfg.wsetCap));
}

void
HtmContext::enforceCapacity(bool is_write, Addr unit)
{
    const int cap = is_write ? cfg.wsetCap : cfg.rsetCap;
    const size_t size =
        is_write ? top().writeSetSize() : top().readSetSize();
    if (size <= static_cast<size_t>(cap))
        return;
    if (capVirtualized || cfg.capacityMode == CapacityMode::Overflow) {
        // The line just spilled past the cap into the software
        // overflow log; from here on every conflict check against
        // this context pays overflowCheckPenalty (see
        // ConflictDetector::overflowPenalty).
        ++statCapacitySpills;
        return;
    }
    raiseCapacityAbort(depth(), unit);
}

void
HtmContext::raiseCapacityAbort(int lvl, Addr unit)
{
    // Virtualise before restarting: the retried attempt runs with the
    // caps lifted and the overflow penalty charged instead, so a
    // footprint the hardware can never hold cannot livelock the
    // attempt sequence.
    capVirtualized = true;
    capRestartFlag = true;
    ++statCapacityAborts;
    raiseViolation(1u << (lvl - 1), unit, id);
}

bool
HtmContext::takeCapacityRestart()
{
    const bool r = capRestartFlag;
    capRestartFlag = false;
    return r;
}

void
HtmContext::pushUndo(Addr word_addr)
{
    undoLog.push_back(UndoEntry{word_addr, mem.read(word_addr)});
}

void
HtmContext::resetAll()
{
    for (int lvl = depth(); lvl >= 1; --lvl)
        dropLevelFromIndex(lvl);
    levels.clear();
    undoLog.clear();
    vcurrent = 0;
    vpending = 0;
    vaddr = invalidAddr;
    vattacker = -1;
    vheld = false;
    reporting = true;
    capVirtualized = false;
    capRestartFlag = false;
    if (cmgr)
        cmgr->onSequenceAbandoned(id);
    onAllLevelsGone();
    if (l1)
        l1->clearAllTx();
    if (l2)
        l2->clearAllTx();
}

} // namespace tmsim

#include "stm/stm_thread.hh"

#include <algorithm>
#include <thread>

#include "sim/logging.hh"

namespace tmsim {

StmThread::StmThread(StmRuntime& runtime, int tid)
    : rt(runtime), tidVal(tid), st(runtime.statsFor(tid)),
      threadRng(0xC0FFEEull + static_cast<std::uint64_t>(tid) * 7919)
{
}

void
StmThread::checkDeadline(const char* where) const
{
    if (std::chrono::steady_clock::now() > rt.deadline())
        throw StmHangError{std::string("stm watchdog expired: ") + where};
}

void
StmThread::spinOrHang(int& tries, const char* where)
{
    ++tries;
    if ((tries & 0x3F) == 0) {
        checkDeadline(where);
        std::this_thread::yield();
    }
}

// --- transaction lifecycle -------------------------------------------

void
StmThread::beginLevel(bool open)
{
    if (levels.empty())
        rv = rt.clock().now();
    Level& lv = levels.emplace_back();
    lv.open = open;
    lv.readMark = reads.size();
    lv.writeMark = writes.size();
    lv.undoMark = imstUndo.size();
    lv.lockMark = locks.size();
    lv.chSave = ch.size();
    lv.vhSave = vh.size();
    lv.ahSave = ah.size();
    ++st.starts;
}

void
StmThread::xbegin()
{
    beginLevel(false);
}

void
StmThread::xbeginOpen()
{
    beginLevel(true);
}

bool
StmThread::findStagedWrite(Addr a, Word& out) const
{
    // Read-your-write across levels (paper txstack): the newest staged
    // value anywhere in the nest wins. The redo log holds the levels in
    // nest order, so newest-entry-first is innermost-level-first.
    for (auto w = writes.rbegin(); w != writes.rend(); ++w) {
        if (w->first == a) {
            out = w->second;
            return true;
        }
    }
    return false;
}

std::pair<Word, std::uint64_t>
StmThread::consistentRead(Addr a)
{
    auto& orec = rt.orecs().of(a);
    const auto& c = rt.cell(a);
    int tries = 0;
    for (;;) {
        const std::uint64_t o1 = orec.load(std::memory_order_acquire);
        if (orecLocked(o1)) {
            // A committer owns the orec; its critical section is
            // bounded, so wait rather than abort.
            spinOrHang(tries, "read of a locked orec");
            continue;
        }
        const Word v = c.load(std::memory_order_acquire);
        const std::uint64_t o2 = orec.load(std::memory_order_acquire);
        if (o1 != o2) {
            spinOrHang(tries, "torn read retry");
            continue;
        }
        return {v, o1};
    }
}

bool
StmThread::readEntryValid(Addr a, std::uint64_t ver,
                          std::span<const LockRecord> self_locks) const
{
    auto& rtm = const_cast<StmRuntime&>(rt);
    const std::size_t idx = rtm.orecs().indexOf(a);
    const std::uint64_t o =
        rtm.orecs().at(idx).load(std::memory_order_acquire);
    if (orecLocked(o)) {
        if (orecOwner(o) == tidVal) {
            for (const auto& [li, prev] : self_locks) {
                if (li == idx)
                    return prev == ver;
            }
        }
        return false;
    }
    return orecVersion(o) == ver;
}

bool
StmThread::readsValid(std::size_t from,
                      std::span<const LockRecord> self_locks,
                      Addr* fail_addr) const
{
    for (std::size_t i = from; i < reads.size(); ++i) {
        if (!readEntryValid(reads[i].first, reads[i].second, self_locks)) {
            *fail_addr = reads[i].first;
            return false;
        }
    }
    return true;
}

bool
StmThread::extendSnapshot()
{
    // Sample the clock BEFORE validating: validation then proves every
    // read still current at some point at or after the sample, so the
    // snapshot may advance to it.
    const std::uint64_t newRv = rt.clock().now();
    Addr fail = 0;
    if (readsValid(0, {}, &fail)) {
        rv = newRv;
        ++st.snapshotExtensions;
        return true;
    }
    deliverViolation(fail, violationTargetFor(fail));
    return false; // a violation handler chose Continue
}

Word
StmThread::txLoad(Addr a)
{
    if (levels.empty())
        fatal("stm: txLoad outside a transaction");
    Word staged;
    if (findStagedWrite(a, staged))
        return staged;
    for (;;) {
        const auto [v, ver] = consistentRead(a);
        if (ver <= rv) {
            reads.emplace_back(a, ver);
            return v;
        }
        // The word was committed after our snapshot: try to extend.
        if (!extendSnapshot()) {
            // Software chose to resume past the violation: it takes
            // responsibility for the stale snapshot (xvret semantics).
            reads.emplace_back(a, ver);
            return v;
        }
    }
}

void
StmThread::txStore(Addr a, Word v)
{
    if (levels.empty())
        fatal("stm: txStore outside a transaction");
    writes.emplace_back(a, v);
}

int
StmThread::violationTargetFor(Addr a) const
{
    // The first read of @p a in nest order belongs to the shallowest
    // level that read it: the deepest level whose mark lies at or
    // before it.
    const auto r = std::find_if(reads.begin(), reads.end(),
                                [a](const auto& e) { return e.first == a; });
    if (r == reads.end())
        return depth();
    const std::size_t i = static_cast<std::size_t>(r - reads.begin());
    std::size_t level = levels.size();
    while (level > 1 && levels[level - 1].readMark > i)
        --level;
    return static_cast<int>(level);
}

void
StmThread::deliverViolation(Addr vaddr, int target)
{
    ++st.violations;
    const Level& tf = levels[static_cast<std::size_t>(target) - 1];
    const StmViolationInfo info{vaddr, target};
    // Violation handlers of every level being rolled back, newest
    // first (paper 4.3: reverse order preserves undo semantics).
    for (std::size_t i = vh.size(); i > tf.vhSave; --i) {
        ++st.violationHandlerRuns;
        const Handler& h = vh[i - 1];
        if (h.violationFn(*this, info, h.args) == StmVioAction::Continue)
            return;
    }
    rollbackTo(target);
    throw StmRollback{target, vaddr};
}

void
StmThread::releaseLocks(std::size_t mark)
{
    for (std::size_t i = locks.size(); i > mark; --i)
        rt.orecs().at(locks[i - 1].first).store(locks[i - 1].second,
                                                std::memory_order_release);
    locks.resize(mark);
}

void
StmThread::rollbackTo(int target)
{
    const Level tf = levels[static_cast<std::size_t>(target) - 1];
    releaseLocks(tf.lockMark); // defensive: an interrupted phase-1
    // Undo in-place immediate stores, FILO.
    for (std::size_t i = imstUndo.size(); i > tf.undoMark; --i)
        rt.write(imstUndo[i - 1].first, imstUndo[i - 1].second);
    imstUndo.resize(tf.undoMark);
    reads.resize(tf.readMark);
    writes.resize(tf.writeMark);
    levels.resize(static_cast<std::size_t>(target) - 1);
    ch.resize(tf.chSave);
    vh.resize(tf.vhSave);
    ah.resize(tf.ahSave);
}

void
StmThread::xabort(Word code)
{
    if (levels.empty())
        fatal("stm: xabort outside a transaction");
    const int target = depth();
    const Level& tf = levels[static_cast<std::size_t>(target) - 1];
    ++st.abortsVoluntary;
    // Abort handlers of the innermost level only, newest first.
    for (std::size_t i = ah.size(); i > tf.ahSave; --i) {
        ++st.abortHandlerRuns;
        const Handler& h = ah[i - 1];
        h.commitFn(*this, h.args);
    }
    rollbackTo(target);
    throw StmAbortSignal{target, code};
}

// --- two-phase commit ------------------------------------------------

void
StmThread::xvalidate()
{
    if (levels.empty())
        fatal("stm: xvalidate outside a transaction");
    Level& lv = levels.back();
    const bool outermost = depth() == 1;
    if (!outermost && !lv.open)
        return; // closed-nested commit validates nothing

    for (;;) {
        // Unique orecs of the committing write set, in sorted order so
        // concurrent committers cannot deadlock.
        lockOrder.clear();
        for (std::size_t i = lv.writeMark; i < writes.size(); ++i)
            lockOrder.push_back(rt.orecs().indexOf(writes[i].first));
        std::sort(lockOrder.begin(), lockOrder.end());
        lockOrder.erase(std::unique(lockOrder.begin(), lockOrder.end()),
                        lockOrder.end());

        bool lockedAll = true;
        for (const std::size_t idx : lockOrder) {
            auto& o = rt.orecs().at(idx);
            int tries = 0;
            bool gotIt = false;
            for (;;) {
                std::uint64_t cur =
                    o.load(std::memory_order_acquire);
                if (!orecLocked(cur)) {
                    if (o.compare_exchange_weak(
                            cur, orecLockedBy(tidVal),
                            std::memory_order_acq_rel,
                            std::memory_order_acquire)) {
                        locks.emplace_back(idx, cur);
                        gotIt = true;
                        break;
                    }
                    continue; // CAS raced, re-examine
                }
                if (tries >= StmConfig::spinTries)
                    break; // treat as a conflict
                spinOrHang(tries, "commit lock acquisition");
            }
            if (!gotIt) {
                ++st.lockFailures;
                lockedAll = false;
                break;
            }
        }
        if (!lockedAll) {
            // Conflict during phase 1: give the locks back and deliver
            // a violation against this nest.
            releaseLocks(lv.lockMark);
            const Addr fail =
                writes.size() > lv.writeMark ? writes[lv.writeMark].first
                                             : 0;
            deliverViolation(fail, violationTargetFor(fail));
            checkDeadline("commit lock retry");
            continue; // handler chose Continue: start phase 1 over
        }

        // Commit timestamp AFTER locking (load-bearing: a writer with
        // wv <= a reader's rv must have locked before that rv was
        // sampled — see GlobalClock).
        lv.wv = lockOrder.empty() ? 0 : rt.clock().advance();

        // Validate the read set: the whole nest for an outermost
        // commit (its mark is 0), only this level for an open-nested
        // early commit. Read-only commits skip this — every read was
        // already proven current at the snapshot rv, which is exactly
        // where the commit serializes. wv == rv + 1 proves no
        // concurrent commit intervened since the snapshot.
        Addr fail = 0;
        if (!lockOrder.empty() && lv.wv != rv + 1 &&
            !readsValid(lv.readMark,
                        std::span(locks).subspan(lv.lockMark), &fail)) {
            releaseLocks(lv.lockMark);
            deliverViolation(fail, violationTargetFor(fail));
            checkDeadline("commit validation retry");
            continue; // handler chose Continue
        }
        lv.validated = true;
        return;
    }
}

void
StmThread::xcommit()
{
    if (levels.empty())
        fatal("stm: xcommit outside a transaction");
    if (depth() > 1 && !levels.back().open) {
        // Closed-nested commit: popping the child's marks hands its
        // reads, writes and imst undo, which follow the parent's in
        // every log, to the parent; handlers stay registered (they now
        // belong to the parent's attempt).
        levels.pop_back();
        return;
    }
    if (!levels.back().validated)
        xvalidate(); // raw-ISA callers: commit implies validation

    const Level lv = levels.back();
    const bool outermost = depth() == 1;

    // Phase 2: publish the redo log in program order, then release
    // the orecs at the commit timestamp.
    for (std::size_t i = lv.writeMark; i < writes.size(); ++i)
        rt.cell(writes[i].first).store(writes[i].second,
                                       std::memory_order_release);
    for (std::size_t i = lv.lockMark; i < locks.size(); ++i)
        rt.orecs().at(locks[i].first).store(lv.wv,
                                            std::memory_order_release);

    const std::size_t nwrites = writes.size() - lv.writeMark;
    const bool readOnly = nwrites == 0;
    lastCommitInfo = readOnly ? StmCommitInfo{rv, 1}
                              : StmCommitInfo{lv.wv, 0};

    ++st.commits;
    if (readOnly)
        ++st.roCommits;
    if (!outermost)
        ++st.openCommits;
    st.readSetSize.sample(reads.size() - lv.readMark);
    st.writeSetSize.sample(nwrites);

    // The committed level's entries and handlers are consumed:
    // truncate every log and all three stacks to its marks.
    reads.resize(lv.readMark);
    writes.resize(lv.writeMark);
    imstUndo.resize(lv.undoMark);
    locks.resize(lv.lockMark);
    ch.resize(lv.chSave);
    vh.resize(lv.vhSave);
    ah.resize(lv.ahSave);
    levels.pop_back();
}

void
StmThread::commitSequence()
{
    if (levels.empty())
        fatal("stm: commit outside a transaction");
    Level& lv = levels.back();
    const bool outermost = depth() == 1;
    if (!outermost && !lv.open) {
        xcommit(); // pops the child's marks; nothing to validate
        return;
    }
    xvalidate(); // may throw StmRollback via a violation
    // Commit handlers registered by this level run between the two
    // phases, in registration order (paper 4.2).
    const std::size_t fromH = lv.chSave;
    const std::size_t toH = ch.size();
    for (std::size_t i = fromH; i < toH; ++i) {
        ++st.commitHandlerRuns;
        ch[i].commitFn(*this, ch[i].args);
    }
    xcommit();
}

// --- retry drivers ---------------------------------------------------

void
StmThread::backoff(int retries)
{
    const int cap = retries < 16 ? retries : 16;
    const std::uint64_t spins =
        threadRng.next() & ((std::uint64_t{1} << cap) - 1);
    for (std::uint64_t i = 0; i < spins; ++i) {
        if ((i & 0xFF) == 0xFF)
            std::this_thread::yield();
    }
}

StmTxOutcome
StmThread::runTx(bool open, const StmTxBody& body)
{
    int retries = 0;
    for (;;) {
        if (open)
            xbeginOpen();
        else
            xbegin();
        const int myLevel = depth();
        try {
            body(*this);
            commitSequence();
            return StmTxOutcome{StmTxResult::Committed, 0, retries};
        } catch (const StmRollback& r) {
            // A rollback targeting an outer level belongs to an
            // enclosing driver.
            if (r.targetLevel < myLevel)
                throw;
            ++retries;
            ++st.retries;
        } catch (const StmAbortSignal& a) {
            if (a.targetLevel < myLevel)
                throw;
            return StmTxOutcome{StmTxResult::Aborted, a.code, retries};
        }
        backoff(retries);
        checkDeadline("transaction retry");
    }
}

StmTxOutcome
StmThread::atomic(const StmTxBody& body)
{
    return runTx(false, body);
}

StmTxOutcome
StmThread::atomicOpen(const StmTxBody& body)
{
    return runTx(true, body);
}

// --- handler registration --------------------------------------------

void
StmThread::onCommit(StmCommitFn fn, std::vector<Word> args)
{
    if (levels.empty())
        fatal("stm: onCommit outside a transaction");
    Handler h;
    h.commitFn = std::move(fn);
    h.args = std::move(args);
    ch.push_back(std::move(h));
}

void
StmThread::onViolation(StmViolationFn fn, std::vector<Word> args)
{
    if (levels.empty())
        fatal("stm: onViolation outside a transaction");
    Handler h;
    h.violationFn = std::move(fn);
    h.args = std::move(args);
    vh.push_back(std::move(h));
}

void
StmThread::onAbort(StmAbortFn fn, std::vector<Word> args)
{
    if (levels.empty())
        fatal("stm: onAbort outside a transaction");
    Handler h;
    h.commitFn = std::move(fn);
    h.args = std::move(args);
    ah.push_back(std::move(h));
}

// --- immediate and non-transactional operations ----------------------

Word
StmThread::imld(Addr a)
{
    return rt.cell(a).load(std::memory_order_acquire);
}

void
StmThread::imst(Addr a, Word v)
{
    auto& c = rt.cell(a);
    if (!levels.empty()) {
        // Undo kept: a rollback of the registering level restores the
        // pre-store value (mirrors the simulator's undo records).
        imstUndo.emplace_back(a, c.load(std::memory_order_acquire));
    }
    c.store(v, std::memory_order_release);
}

void
StmThread::imstid(Addr a, Word v)
{
    rt.cell(a).store(v, std::memory_order_release);
}

void
StmThread::release(Addr a)
{
    ++st.releases;
    // Compact the read log in place; each level's mark moves down by
    // the entries dropped before it.
    std::size_t kept = 0;
    std::size_t next = 0; // first level whose mark is not yet moved
    for (std::size_t i = 0; i < reads.size(); ++i) {
        for (; next < levels.size() && levels[next].readMark == i; ++next)
            levels[next].readMark = kept;
        if (reads[i].first != a)
            reads[kept++] = reads[i];
    }
    for (; next < levels.size(); ++next)
        levels[next].readMark = kept;
    reads.resize(kept);
}

std::pair<Word, StmCommitInfo>
StmThread::nakedLoad(Addr a)
{
    const auto [v, ver] = consistentRead(a);
    ++st.nakedLoads;
    return {v, StmCommitInfo{ver, 1}};
}

StmCommitInfo
StmThread::nakedStore(Addr a, Word v)
{
    auto& o = rt.orecs().of(a);
    int tries = 0;
    for (;;) {
        std::uint64_t cur = o.load(std::memory_order_acquire);
        if (!orecLocked(cur) &&
            o.compare_exchange_weak(cur, orecLockedBy(tidVal),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
            break;
        }
        spinOrHang(tries, "naked store lock");
    }
    const std::uint64_t wv = rt.clock().advance();
    rt.cell(a).store(v, std::memory_order_release);
    o.store(wv, std::memory_order_release);
    ++st.nakedStores;
    return StmCommitInfo{wv, 0};
}

} // namespace tmsim

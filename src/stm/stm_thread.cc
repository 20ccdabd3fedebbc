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
    Level lv;
    lv.open = open;
    lv.chSave = ch.size();
    lv.vhSave = vh.size();
    lv.ahSave = ah.size();
    if (levels.empty())
        rv = rt.clock().now();
    levels.push_back(std::move(lv));
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
    // value anywhere in the nest wins, searching innermost level first
    // and each level's redo log newest-entry-first.
    for (auto lv = levels.rbegin(); lv != levels.rend(); ++lv) {
        for (auto w = lv->writeBuf.rbegin(); w != lv->writeBuf.rend();
             ++w) {
            if (w->first == a) {
                out = w->second;
                return true;
            }
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
StmThread::readEntryValid(
    Addr a, std::uint64_t ver,
    const std::vector<std::pair<std::size_t, std::uint64_t>>* self_locks)
    const
{
    auto& rtm = const_cast<StmRuntime&>(rt);
    const std::size_t idx = rtm.orecs().indexOf(a);
    const std::uint64_t o =
        rtm.orecs().at(idx).load(std::memory_order_acquire);
    if (orecLocked(o)) {
        if (self_locks && orecOwner(o) == tidVal) {
            for (const auto& [li, prev] : *self_locks) {
                if (li == idx)
                    return prev == ver;
            }
        }
        return false;
    }
    return orecVersion(o) == ver;
}

bool
StmThread::validateAllReads(Addr* fail_addr) const
{
    for (const Level& lv : levels) {
        for (const auto& [a, ver] : lv.reads) {
            if (!readEntryValid(a, ver, nullptr)) {
                *fail_addr = a;
                return false;
            }
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
    if (validateAllReads(&fail)) {
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
            levels.back().reads.emplace_back(a, ver);
            return v;
        }
        // The word was committed after our snapshot: try to extend.
        if (!extendSnapshot()) {
            // Software chose to resume past the violation: it takes
            // responsibility for the stale snapshot (xvret semantics).
            levels.back().reads.emplace_back(a, ver);
            return v;
        }
    }
}

void
StmThread::txStore(Addr a, Word v)
{
    if (levels.empty())
        fatal("stm: txStore outside a transaction");
    levels.back().writeBuf.emplace_back(a, v);
}

int
StmThread::violationTargetFor(Addr a) const
{
    for (std::size_t i = 0; i < levels.size(); ++i) {
        for (const auto& [ra, ver] : levels[i].reads) {
            if (ra == a)
                return static_cast<int>(i) + 1;
        }
    }
    return depth();
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
StmThread::releaseLocks(Level& lv)
{
    // Restore the pre-lock versions (the commit did not happen).
    for (auto it = lv.locks.rbegin(); it != lv.locks.rend(); ++it)
        rt.orecs().at(it->first).store(it->second,
                                       std::memory_order_release);
    lv.locks.clear();
}

void
StmThread::rollbackTo(int target)
{
    const Level& tf = levels[static_cast<std::size_t>(target) - 1];
    const std::size_t chS = tf.chSave;
    const std::size_t vhS = tf.vhSave;
    const std::size_t ahS = tf.ahSave;
    for (std::size_t li = levels.size();
         li >= static_cast<std::size_t>(target); --li) {
        Level& lv = levels[li - 1];
        releaseLocks(lv); // defensive: an interrupted phase-1
        // Undo in-place immediate stores, FILO.
        for (auto it = lv.imstUndo.rbegin(); it != lv.imstUndo.rend();
             ++it) {
            rt.write(it->first, it->second);
        }
    }
    levels.resize(static_cast<std::size_t>(target) - 1);
    ch.resize(chS);
    vh.resize(vhS);
    ah.resize(ahS);
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

    // Unique orecs of the committing write set, in sorted order so
    // concurrent committers cannot deadlock.
    std::vector<std::size_t> idxs;
    idxs.reserve(lv.writeBuf.size());
    for (const auto& [a, v] : lv.writeBuf)
        idxs.push_back(rt.orecs().indexOf(a));
    std::sort(idxs.begin(), idxs.end());
    idxs.erase(std::unique(idxs.begin(), idxs.end()), idxs.end());

    for (;;) {
        bool lockedAll = true;
        for (const std::size_t idx : idxs) {
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
                        lv.locks.emplace_back(idx, cur);
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
            releaseLocks(lv);
            Addr fail = lv.writeBuf.empty() ? 0 : lv.writeBuf[0].first;
            deliverViolation(fail, violationTargetFor(fail));
            checkDeadline("commit lock retry");
            continue; // handler chose Continue: start phase 1 over
        }

        // Commit timestamp AFTER locking (load-bearing: a writer with
        // wv <= a reader's rv must have locked before that rv was
        // sampled — see GlobalClock).
        lv.wv = idxs.empty() ? 0 : rt.clock().advance();

        // Validate the read set: the whole nest for an outermost
        // commit (children merged upward), only this level for an
        // open-nested early commit. Read-only commits skip this —
        // every read was already proven current at the snapshot rv,
        // which is exactly where the commit serializes. wv == rv + 1
        // proves no concurrent commit intervened since the snapshot.
        Addr fail = 0;
        bool ok = true;
        if (!idxs.empty() && lv.wv != rv + 1) {
            const std::size_t from =
                outermost ? 0 : levels.size() - 1;
            for (std::size_t li = from; ok && li < levels.size();
                 ++li) {
                for (const auto& [a, ver] : levels[li].reads) {
                    if (!readEntryValid(a, ver, &lv.locks)) {
                        fail = a;
                        ok = false;
                        break;
                    }
                }
            }
        }
        if (!ok) {
            releaseLocks(lv);
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
    {
        Level& lv = levels.back();
        const bool outermost = depth() == 1;
        if (!outermost && !lv.open) {
            // Closed-nested commit: merge the child's read/write sets
            // (and immediate-store undo) into the parent; handlers stay
            // registered (they now belong to the parent's attempt).
            Level child = std::move(lv);
            levels.pop_back();
            Level& parent = levels.back();
            parent.reads.insert(parent.reads.end(),
                                child.reads.begin(), child.reads.end());
            parent.writeBuf.insert(parent.writeBuf.end(),
                                   child.writeBuf.begin(),
                                   child.writeBuf.end());
            parent.imstUndo.insert(parent.imstUndo.end(),
                                   child.imstUndo.begin(),
                                   child.imstUndo.end());
            return;
        }
        if (!lv.validated)
            xvalidate(); // raw-ISA callers: commit implies validation
    }

    Level& lv = levels.back();
    const bool outermost = depth() == 1;

    // Phase 2: publish the redo log in program order, then release
    // the orecs at the commit timestamp.
    for (const auto& [a, v] : lv.writeBuf)
        rt.cell(a).store(v, std::memory_order_release);
    for (const auto& [idx, prev] : lv.locks)
        rt.orecs().at(idx).store(lv.wv, std::memory_order_release);

    const bool readOnly = lv.writeBuf.empty();
    lastCommitInfo = readOnly
                         ? StmCommitInfo{rv, 1, rt.nextSeq()}
                         : StmCommitInfo{lv.wv, 0, rt.nextSeq()};

    ++st.commits;
    if (readOnly)
        ++st.roCommits;
    if (!outermost)
        ++st.openCommits;
    std::size_t nreads = 0;
    const std::size_t from = outermost ? 0 : levels.size() - 1;
    for (std::size_t li = from; li < levels.size(); ++li)
        nreads += levels[li].reads.size();
    st.readSetSize.sample(nreads);
    st.writeSetSize.sample(lv.writeBuf.size());

    // The committed level's handlers are consumed: truncate all three
    // stacks to the marks taken at its xbegin.
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
        xcommit(); // closed-nested merge; xvalidate is a no-op
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
        levels.back().imstUndo.emplace_back(
            a, c.load(std::memory_order_acquire));
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
    for (Level& lv : levels) {
        lv.reads.erase(
            std::remove_if(lv.reads.begin(), lv.reads.end(),
                           [a](const auto& e) { return e.first == a; }),
            lv.reads.end());
    }
}

std::pair<Word, StmCommitInfo>
StmThread::nakedLoad(Addr a)
{
    const auto [v, ver] = consistentRead(a);
    ++st.nakedLoads;
    return {v, StmCommitInfo{ver, 1, rt.nextSeq()}};
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
    return StmCommitInfo{wv, 0, rt.nextSeq()};
}

} // namespace tmsim

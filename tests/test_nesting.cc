/**
 * @file
 * Closed- and open-nested transaction semantics (paper section 4.5-4.6
 * and figure 1): independent rollback, closed-commit merging, open
 * commit publishing with ancestor patching (both versioning schemes),
 * violation masks across levels, and the flattening baseline.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "core/tx_signals.hh"

using namespace tmsim;

namespace {

MachineConfig
config(HtmConfig htm, int cpus = 2)
{
    MachineConfig cfg;
    cfg.numCpus = cpus;
    cfg.htm = htm;
    cfg.memBytes = 4 * 1024 * 1024;
    return cfg;
}

} // namespace

TEST(Nesting, ClosedChildMergesIntoParent)
{
    Machine m(config(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    Addr b = m.memory().allocate(64);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 1);
        co_await c.xbegin(); // closed-nested child
        EXPECT_EQ(c.htm().depth(), 2);
        co_await c.store(b, 2);
        // The child can read state produced by its ancestor.
        Word va = co_await c.load(a);
        EXPECT_EQ(va, 1u);
        co_await c.xvalidate(); // no-op for closed nesting
        co_await c.xcommit();   // merge into parent
        EXPECT_EQ(c.htm().depth(), 1);
        // Nothing escaped to shared memory yet (figure 1, step 2).
        EXPECT_EQ(m.memory().read(b), 0u);
        // Parent's write-set now contains the child's line.
        EXPECT_NE(c.htm().levelsWriting(c.htm().lineOf(b)), 0u);
        co_await c.xvalidate();
        co_await c.xcommit();
        EXPECT_EQ(m.memory().read(a), 1u);
        EXPECT_EQ(m.memory().read(b), 2u);
    });
    m.run();
}

TEST(Nesting, InnerRollbackDoesNotDisturbParent)
{
    Machine m(config(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    Addr b = m.memory().allocate(64);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 1);
        co_await c.xbegin();
        co_await c.store(b, 99);
        try {
            co_await c.xabort(); // abort only the child
        } catch (const TxAbortSignal& s) {
            EXPECT_EQ(s.targetLevel, 2);
        }
        // Parent is intact and still holds its speculative write.
        EXPECT_EQ(c.htm().depth(), 1);
        Word va = co_await c.load(a);
        EXPECT_EQ(va, 1u);
        // The child's write is gone.
        EXPECT_EQ(c.htm().levelsWriting(c.htm().lineOf(b)), 0u);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_EQ(m.memory().read(a), 1u);
    EXPECT_EQ(m.memory().read(b), 0u);
}

TEST(Nesting, OpenCommitPublishesImmediately)
{
    Machine m(config(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    Addr b = m.memory().allocate(64);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 1);
        co_await c.xbeginOpen();
        co_await c.store(b, 7);
        co_await c.xvalidate();
        co_await c.xcommit();
        // Open commit escapes to shared memory before the parent ends
        // (figure 1, steps 3-4 on the open-nesting timeline).
        EXPECT_EQ(m.memory().read(b), 7u);
        EXPECT_EQ(m.memory().read(a), 0u); // parent still speculative
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_EQ(m.memory().read(a), 1u);
}

TEST(Nesting, OpenCommitSurvivesParentAbort)
{
    for (HtmConfig htm :
         {HtmConfig::paperLazy(), HtmConfig::eagerUndoLog()}) {
        Machine m(config(htm));
        Addr a = m.memory().allocate(64);
        Addr b = m.memory().allocate(64);
        m.spawn(0, [&](Cpu& c) -> SimTask {
            co_await c.xbegin();
            co_await c.store(a, 1);
            co_await c.xbeginOpen();
            co_await c.store(b, 7);
            co_await c.xvalidate();
            co_await c.xcommit();
            try {
                co_await c.xabort(); // parent aborts AFTER open commit
            } catch (const TxAbortSignal&) {
            }
        });
        m.run();
        // The open-nested commit is permanent; the parent's write is
        // undone.
        EXPECT_EQ(m.memory().read(b), 7u) << htm.describe();
        EXPECT_EQ(m.memory().read(a), 0u) << htm.describe();
    }
}

TEST(Nesting, OpenCommitOverwritingParentWritePatchesUndo)
{
    // Paper 6.3.1: if an open-nested commit overwrites data also
    // written by its parent, the parent's undo entry must be updated
    // so a later parent rollback does not revert the committed value.
    for (HtmConfig htm :
         {HtmConfig::paperLazy(), HtmConfig::eagerUndoLog()}) {
        Machine m(config(htm));
        Addr a = m.memory().allocate(64);
        m.memory().write(a, 100);
        m.spawn(0, [&](Cpu& c) -> SimTask {
            co_await c.xbegin();
            co_await c.store(a, 1); // parent writes a
            co_await c.xbeginOpen();
            co_await c.store(a, 2); // open child overwrites a
            co_await c.xvalidate();
            co_await c.xcommit(); // committed: a = 2 permanently
            try {
                co_await c.xabort(); // parent rollback
            } catch (const TxAbortSignal&) {
            }
        });
        m.run();
        // Parent rollback must leave the child's committed value, not
        // restore the pre-transaction 100.
        EXPECT_EQ(m.memory().read(a), 2u) << htm.describe();
    }
}

TEST(Nesting, OpenCommitUpdatesParentBufferedData)
{
    // Paper 4.5: "The parent transaction updates the data in its
    // read-set or write-set if they overlap with the write-set of the
    // open-nested transaction."
    Machine m(config(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 1);
        co_await c.xbeginOpen();
        co_await c.store(a, 2);
        co_await c.xvalidate();
        co_await c.xcommit();
        // Parent now observes the committed value.
        Word v = co_await c.load(a);
        EXPECT_EQ(v, 2u);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_EQ(m.memory().read(a), 2u);
}

TEST(Nesting, ParentSetsNotTrimmedByOpenCommit)
{
    // The paper's deliberate departure from Moss & Hosking: an open
    // commit never removes overlapping addresses from ancestor sets,
    // so the parent's atomicity behaviour cannot change under it.
    Machine m(config(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        Word v = co_await c.load(a);
        (void)v;
        Addr line = c.htm().lineOf(a);
        EXPECT_EQ(c.htm().levelsReading(line), 0x1u);
        co_await c.xbeginOpen();
        co_await c.store(a, 5);
        co_await c.xvalidate();
        co_await c.xcommit();
        // Parent read-set still contains the line.
        EXPECT_EQ(c.htm().levelsReading(line) & 0x1u, 0x1u);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
}

TEST(Nesting, ViolationMaskTargetsAffectedLevels)
{
    Machine m(config(HtmConfig::paperLazy()));
    Addr outerAddr = m.memory().allocate(64);
    Addr innerAddr = m.memory().allocate(64);
    int innerRetries = 0;
    int outerRetries = 0;
    bool done = false;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        while (!done) {
            co_await c.xbegin();
            try {
                co_await c.load(outerAddr);
                for (;;) {
                    co_await c.xbegin();
                    try {
                        co_await c.load(innerAddr);
                        co_await c.exec(3000); // window for committer
                        co_await c.xvalidate();
                        co_await c.xcommit();
                        break;
                    } catch (const TxRollback& r) {
                        EXPECT_EQ(r.targetLevel, 2);
                        ++innerRetries;
                    }
                }
                co_await c.xvalidate();
                co_await c.xcommit();
                done = true;
            } catch (const TxRollback& r) {
                EXPECT_EQ(r.targetLevel, 1);
                ++outerRetries;
            }
        }
    });
    // The committer hits only the inner transaction's read-set: the
    // rollback must stop at level 2 and never disturb level 1.
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(500);
        co_await c.xbegin();
        co_await c.store(innerAddr, 1);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_GE(innerRetries, 1);
    EXPECT_EQ(outerRetries, 0);
}

TEST(Nesting, ConflictOnParentRollsBackThroughChild)
{
    Machine m(config(HtmConfig::paperLazy()));
    Addr outerAddr = m.memory().allocate(64);
    int outerRetries = 0;
    bool done = false;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        while (!done) {
            co_await c.xbegin();
            try {
                co_await c.load(outerAddr); // parent-level read
                co_await c.xbegin();        // child active during hit
                co_await c.exec(3000);
                co_await c.xvalidate();
                co_await c.xcommit();
                co_await c.xvalidate();
                co_await c.xcommit();
                done = true;
            } catch (const TxRollback& r) {
                EXPECT_EQ(r.targetLevel, 1);
                ++outerRetries;
            }
        }
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(500);
        co_await c.xbegin();
        co_await c.store(outerAddr, 1);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_GE(outerRetries, 1);
}

TEST(Nesting, FlatteningSubsumesInnerTransactions)
{
    Machine m(config(HtmConfig::flattenedBaseline()));
    Addr a = m.memory().allocate(64);
    Addr b = m.memory().allocate(64);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 1);
        co_await c.xbegin(); // subsumed: no new hardware level
        EXPECT_EQ(c.htm().depth(), 1);
        EXPECT_EQ(c.htm().logicalDepth(), 2);
        co_await c.store(b, 2);
        co_await c.xvalidate();
        co_await c.xcommit(); // pops the subsumed begin only
        EXPECT_TRUE(c.htm().inTx());
        EXPECT_EQ(m.memory().read(b), 0u); // nothing escaped
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_EQ(m.memory().read(a), 1u);
    EXPECT_EQ(m.memory().read(b), 2u);
    EXPECT_EQ(m.stats().value("cpu0.htm.subsumed_begins"), 1u);
}

TEST(Nesting, FlattenedInnerConflictRollsBackEverything)
{
    Machine m(config(HtmConfig::flattenedBaseline()));
    Addr innerAddr = m.memory().allocate(64);
    int outerRetries = 0;
    bool done = false;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        while (!done) {
            co_await c.xbegin();
            try {
                co_await c.exec(10);
                co_await c.xbegin(); // flattened
                co_await c.load(innerAddr);
                co_await c.exec(3000);
                co_await c.xvalidate();
                co_await c.xcommit();
                co_await c.xvalidate();
                co_await c.xcommit();
                done = true;
            } catch (const TxRollback& r) {
                // Under flattening the whole outer transaction pays.
                EXPECT_EQ(r.targetLevel, 1);
                ++outerRetries;
            }
        }
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(500);
        co_await c.xbegin();
        co_await c.store(innerAddr, 1);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_GE(outerRetries, 1);
}

TEST(Nesting, DeepNestingBeyondHardwareSubsumes)
{
    HtmConfig htm = HtmConfig::paperLazy();
    htm.maxHwLevels = 2;
    Machine m(config(htm));
    Addr a = m.memory().allocate(64);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.xbegin();
        co_await c.xbegin(); // beyond hw levels: subsumed into level 2
        EXPECT_EQ(c.htm().depth(), 2);
        EXPECT_EQ(c.htm().logicalDepth(), 3);
        co_await c.store(a, 3);
        co_await c.xvalidate();
        co_await c.xcommit(); // subsumed pop
        co_await c.xvalidate();
        co_await c.xcommit(); // merge level 2 into 1
        co_await c.xvalidate();
        co_await c.xcommit(); // outermost commit
        EXPECT_FALSE(c.htm().inTx());
    });
    m.run();
    EXPECT_EQ(m.memory().read(a), 3u);
}

TEST(Nesting, ThreeLevelIndependentState)
{
    Machine m(config(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    Addr b = m.memory().allocate(64);
    Addr c3 = m.memory().allocate(64);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 1);
        co_await c.xbegin();
        co_await c.store(b, 2);
        co_await c.xbegin();
        co_await c.store(c3, 3);
        EXPECT_EQ(c.htm().depth(), 3);
        // Innermost sees every ancestor's speculative state.
        EXPECT_EQ(co_await c.load(a), 1u);
        EXPECT_EQ(co_await c.load(b), 2u);
        try {
            co_await c.xabort(); // kill only level 3
        } catch (const TxAbortSignal&) {
        }
        EXPECT_EQ(c.htm().depth(), 2);
        EXPECT_EQ(co_await c.load(b), 2u);
        co_await c.xvalidate();
        co_await c.xcommit(); // merge 2 into 1
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_EQ(m.memory().read(a), 1u);
    EXPECT_EQ(m.memory().read(b), 2u);
    EXPECT_EQ(m.memory().read(c3), 0u); // aborted level's write gone
}

TEST(Nesting, UndoLogClosedNestingRestoresPerLevel)
{
    Machine m(config(HtmConfig::eagerUndoLog()));
    Addr a = m.memory().allocate(64);
    Addr b = m.memory().allocate(64);
    m.memory().write(a, 10);
    m.memory().write(b, 20);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 11); // in place, logged at level 1
        co_await c.xbegin();
        co_await c.store(b, 21); // logged at level 2
        EXPECT_EQ(m.memory().read(b), 21u);
        try {
            co_await c.xabort();
        } catch (const TxAbortSignal&) {
        }
        // Level-2 undo processed FILO; level 1 untouched.
        EXPECT_EQ(m.memory().read(b), 20u);
        EXPECT_EQ(m.memory().read(a), 11u);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_EQ(m.memory().read(a), 11u);
    EXPECT_EQ(m.memory().read(b), 20u);
}

TEST(Nesting, ClosedChildMayNotGrowValidatedParentWriteSet)
{
    // A closed child of a validated lazy parent merges into the set
    // that xvalidate broadcast and pinned: rewriting the parent's units
    // merges and commits, a new unit is refused.
    LogContext ctx;
    ctx.quiet = true;
    ctx.throwOnFatal = true;
    LogScope scope(ctx);
    Machine m(config(HtmConfig::paperLazy(), 1));
    const Addr a = m.memory().allocate(64, 64);
    const Addr b = m.memory().allocate(64, 64);
    bool rewroteParentUnit = false;
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 1);
        co_await c.xvalidate();
        co_await c.xbegin(); // closed child of the validated parent
        co_await c.store(a, 2);
        co_await c.xvalidate();
        co_await c.xcommit();
        co_await c.xcommit();
        rewroteParentUnit = true;
        co_await c.xbegin();
        co_await c.store(a, 3);
        co_await c.xvalidate();
        co_await c.xbegin();
        co_await c.store(b, 4); // the child's own set: not yet merged
        co_await c.xvalidate();
        co_await c.xcommit();
        ADD_FAILURE() << "the merge of a new unit went through";
    });
    EXPECT_THROW(m.run(), FatalError);
    EXPECT_TRUE(rewroteParentUnit);
    EXPECT_EQ(m.memory().read(a), 2u);
    EXPECT_EQ(m.memory().read(b), 0u);
}

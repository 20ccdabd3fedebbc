/**
 * @file
 * Single-threaded transactional semantics at the raw ISA level:
 * buffering, two-phase commit, aborts, undo-log versioning, immediate
 * operations, and early release (paper tables 1-2).
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "core/tx_signals.hh"

using namespace tmsim;

namespace {

MachineConfig
smallConfig(HtmConfig htm, int cpus = 2)
{
    MachineConfig cfg;
    cfg.numCpus = cpus;
    cfg.htm = htm;
    cfg.memBytes = 4 * 1024 * 1024;
    return cfg;
}

} // namespace

TEST(HtmSingle, PlainLoadStoreRoundTrip)
{
    Machine m(smallConfig(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.store(a, 1234);
        Word v = co_await c.load(a);
        EXPECT_EQ(v, 1234u);
    });
    m.run();
    EXPECT_EQ(m.memory().read(a), 1234u);
}

TEST(HtmSingle, WriteBufferIsolatesUntilCommit)
{
    Machine m(smallConfig(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 7);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 42);
        // Speculative: architectural memory still holds the old value.
        EXPECT_EQ(m.memory().read(a), 7u);
        // ...but the transaction reads its own write.
        Word v = co_await c.load(a);
        EXPECT_EQ(v, 42u);
        co_await c.xvalidate();
        EXPECT_EQ(m.memory().read(a), 7u); // still not committed
        co_await c.xcommit();
        EXPECT_EQ(m.memory().read(a), 42u);
    });
    m.run();
}

TEST(HtmSingle, AbortDiscardsSpeculativeState)
{
    Machine m(smallConfig(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 7);
    Word seenCode = 0;
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 42);
        try {
            co_await c.xabort(99);
            ADD_FAILURE() << "xabort must unwind";
        } catch (const TxAbortSignal& s) {
            seenCode = s.code;
        }
        EXPECT_FALSE(c.htm().inTx());
    });
    m.run();
    EXPECT_EQ(seenCode, 99u);
    EXPECT_EQ(m.memory().read(a), 7u);
}

TEST(HtmSingle, UndoLogWritesInPlaceAndRestores)
{
    Machine m(smallConfig(HtmConfig::eagerUndoLog()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 7);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 42);
        // Undo-log versioning: memory is updated in place...
        EXPECT_EQ(m.memory().read(a), 42u);
        EXPECT_EQ(c.htm().undoLogSize(), 1u);
        try {
            co_await c.xabort();
        } catch (const TxAbortSignal&) {
        }
        // ...and restored on rollback.
        EXPECT_EQ(m.memory().read(a), 7u);
        EXPECT_EQ(c.htm().undoLogSize(), 0u);
    });
    m.run();
}

TEST(HtmSingle, UndoLogCommitKeepsData)
{
    Machine m(smallConfig(HtmConfig::eagerUndoLog()));
    Addr a = m.memory().allocate(64);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 5);
        co_await c.store(a, 6);
        co_await c.xvalidate();
        co_await c.xcommit();
        EXPECT_FALSE(c.htm().inTx());
    });
    m.run();
    EXPECT_EQ(m.memory().read(a), 6u);
}

TEST(HtmSingle, CommitRequiresValidate)
{
    auto attempt = [] {
        Machine m(smallConfig(HtmConfig::paperLazy(), 1));
        Addr a = m.memory().allocate(64);
        m.spawn(0, [&](Cpu& c) -> SimTask {
            co_await c.xbegin();
            co_await c.store(a, 1);
            co_await c.xcommit(); // missing xvalidate
        });
        m.run();
    };
    EXPECT_EXIT(attempt(), ::testing::ExitedWithCode(1),
                "xcommit without a preceding xvalidate");
}

TEST(HtmSingle, ImmediateLoadDoesNotJoinReadSet)
{
    Machine m(smallConfig(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 11);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        Word v = co_await c.imld(a);
        EXPECT_EQ(v, 11u);
        EXPECT_EQ(c.htm().levelsReading(c.htm().lineOf(a)), 0u);
        Word w = co_await c.load(a);
        EXPECT_EQ(w, 11u);
        EXPECT_EQ(c.htm().levelsReading(c.htm().lineOf(a)), 1u);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
}

TEST(HtmSingle, ImmediateStoreBypassesWriteSetButKeepsUndo)
{
    Machine m(smallConfig(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 1);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.imst(a, 2);
        // Immediate: memory updated right away, no write-set entry.
        EXPECT_EQ(m.memory().read(a), 2u);
        EXPECT_EQ(c.htm().levelsWriting(c.htm().lineOf(a)), 0u);
        try {
            co_await c.xabort();
        } catch (const TxAbortSignal&) {
        }
        // imst keeps undo information: the store is rolled back.
        EXPECT_EQ(m.memory().read(a), 1u);
    });
    m.run();
}

TEST(HtmSingle, IdempotentImmediateStoreSurvivesRollback)
{
    Machine m(smallConfig(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 1);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.imstid(a, 2);
        try {
            co_await c.xabort();
        } catch (const TxAbortSignal&) {
        }
        // imstid maintains no undo information.
        EXPECT_EQ(m.memory().read(a), 2u);
    });
    m.run();
}

TEST(HtmSingle, ReleaseDropsLineFromReadSet)
{
    Machine m(smallConfig(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.load(a);
        Addr line = c.htm().lineOf(a);
        EXPECT_EQ(c.htm().levelsReading(line), 1u);
        co_await c.release(a);
        EXPECT_EQ(c.htm().levelsReading(line), 0u);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
}

TEST(HtmSingle, ReadOnlyTransactionCommits)
{
    Machine m(smallConfig(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 5);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        Word v = co_await c.load(a);
        EXPECT_EQ(v, 5u);
        co_await c.xvalidate();
        co_await c.xcommit();
        EXPECT_FALSE(c.htm().inTx());
    });
    m.run();
}

TEST(HtmSingle, RegisterViolationManuallyThenDefaultRollback)
{
    Machine m(smallConfig(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 3);
    int rollbacks = 0;
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 10);
        // Inject a conflict against level 1 as a committer would.
        c.htm().raiseViolation(0x1, c.htm().lineOf(a));
        try {
            co_await c.exec(1); // next instruction boundary delivers
            ADD_FAILURE() << "violation must unwind via TxRollback";
        } catch (const TxRollback& r) {
            EXPECT_EQ(r.targetLevel, 1);
            ++rollbacks;
        }
        EXPECT_FALSE(c.htm().inTx());
    });
    m.run();
    EXPECT_EQ(rollbacks, 1);
    EXPECT_EQ(m.memory().read(a), 3u);
}

TEST(HtmSingle, InstructionAndCycleAccounting)
{
    Machine m(smallConfig(HtmConfig::paperLazy(), 1));
    m.spawn(0, [&](Cpu& c) -> SimTask {
        std::uint64_t before = c.instret();
        co_await c.exec(100);
        EXPECT_EQ(c.instret() - before, 100u);
    });
    Tick end = m.run();
    EXPECT_GE(end, 100u);
}

TEST(HtmSingle, StatsCountCommitsAndBegins)
{
    Machine m(smallConfig(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.spawn(0, [&](Cpu& c) -> SimTask {
        for (int i = 0; i < 3; ++i) {
            co_await c.xbegin();
            co_await c.store(a, static_cast<Word>(i));
            co_await c.xvalidate();
            co_await c.xcommit();
        }
    });
    m.run();
    EXPECT_EQ(m.stats().value("cpu0.htm.begins"), 3u);
    EXPECT_EQ(m.stats().value("cpu0.htm.commits"), 3u);
    EXPECT_EQ(m.stats().value("cpu0.htm.rollbacks"), 0u);
}

TEST(HtmSingle, CapacityOverflowKeepsCorrectness)
{
    // Tiny caches force transactional lines to spill; the overflow
    // (virtualisation) path must preserve semantics and be visible in
    // the stats.
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.htm = HtmConfig::paperLazy();
    cfg.l1 = CacheGeometry{512, 32, 2, 1};  // 16 lines
    cfg.l2 = CacheGeometry{1024, 32, 2, 12}; // 32 lines
    cfg.memBytes = 8 * 1024 * 1024;
    Machine m(cfg);
    constexpr int words = 128; // way beyond L2 capacity
    Addr base = m.memory().allocate(words * 64, 64);

    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        for (int i = 0; i < words; ++i) {
            Addr a = base + static_cast<Addr>(i) * 64;
            Word v = co_await c.load(a);
            co_await c.store(a, v + 1);
        }
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    for (int i = 0; i < words; ++i)
        EXPECT_EQ(m.memory().read(base + static_cast<Addr>(i) * 64), 1u);
    EXPECT_GT(m.stats().value("cpu0.l2.tx_overflows"), 0u);
}

TEST(HtmSingle, OverflowedTransactionStillDetectsConflicts)
{
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.htm = HtmConfig::paperLazy();
    cfg.l1 = CacheGeometry{512, 32, 2, 1};
    cfg.l2 = CacheGeometry{1024, 32, 2, 12};
    cfg.memBytes = 8 * 1024 * 1024;
    Machine m(cfg);
    constexpr int words = 64;
    Addr base = m.memory().allocate(words * 64, 64);
    int rollbacks = 0;
    bool done = false;

    // Reader: touches far more lines than the caches hold, so early
    // lines have certainly overflowed by the time the writer commits.
    m.spawn(0, [&](Cpu& c) -> SimTask {
        while (!done) {
            co_await c.xbegin();
            try {
                for (int i = 0; i < words; ++i)
                    co_await c.load(base + static_cast<Addr>(i) * 64);
                co_await c.exec(2000);
                co_await c.xvalidate();
                co_await c.xcommit();
                done = true;
            } catch (const TxRollback&) {
                ++rollbacks;
            }
        }
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(4000); // after the reader's first sweep
        co_await c.xbegin();
        co_await c.store(base, 42); // the reader's FIRST (overflowed) line
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    // The conflict on the overflowed line must still be caught.
    EXPECT_GE(rollbacks, 1);
}

TEST(HtmSingle, LazyStoreAfterValidateMayOnlyOverwrite)
{
    // xvalidate broadcast and pinned the write set: a store to a unit
    // already in it commits, a store to a new unit would escape both
    // and is refused.
    LogContext ctx;
    ctx.quiet = true;
    ctx.throwOnFatal = true;
    LogScope scope(ctx);
    Machine m(smallConfig(HtmConfig::paperLazy(), 1));
    const Addr a = m.memory().allocate(64, 64);
    const Addr b = m.memory().allocate(64, 64);
    bool reStored = false;
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 1);
        co_await c.xvalidate();
        co_await c.store(a + wordBytes, 2); // same line: same unit
        co_await c.xcommit();
        reStored = true;
        co_await c.xbegin();
        co_await c.store(a, 3);
        co_await c.xvalidate();
        co_await c.store(b, 4);
        ADD_FAILURE() << "the store to a new unit went through";
    });
    try {
        m.run();
        ADD_FAILURE() << "no FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("cpu0"), std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(reStored);
    EXPECT_EQ(m.memory().read(a), 1u);
    EXPECT_EQ(m.memory().read(a + wordBytes), 2u);
    EXPECT_EQ(m.memory().read(b), 0u);
}

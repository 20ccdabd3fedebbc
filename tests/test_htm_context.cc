/**
 * @file
 * Direct unit tests of the HtmContext state machine — no Machine, no
 * timing: nesting-level bookkeeping, versioning data structures,
 * violation registers, set queries and the commit/rollback logic in
 * isolation.
 */

#include <gtest/gtest.h>

#include "htm/htm_context.hh"
#include "mem/backing_store.hh"
#include "sim/stats.hh"

using namespace tmsim;

namespace {

struct Fixture
{
    StatsRegistry stats;
    BackingStore mem{1 << 20};
    HtmContext ctx;

    explicit Fixture(HtmConfig cfg = HtmConfig::paperLazy())
        : ctx(0, cfg, mem, nullptr, nullptr, stats)
    {
    }
};

} // namespace

TEST(HtmContextUnit, BeginPushesLevelsUpToHwLimit)
{
    HtmConfig cfg = HtmConfig::paperLazy();
    cfg.maxHwLevels = 3;
    Fixture f(cfg);
    EXPECT_TRUE(f.ctx.begin(TxKind::Closed, 1));
    EXPECT_TRUE(f.ctx.begin(TxKind::Closed, 2));
    EXPECT_TRUE(f.ctx.begin(TxKind::Closed, 3));
    EXPECT_FALSE(f.ctx.begin(TxKind::Closed, 4)); // subsumed
    EXPECT_EQ(f.ctx.depth(), 3);
    EXPECT_EQ(f.ctx.logicalDepth(), 4);
    EXPECT_TRUE(f.ctx.topIsSubsumed());
    f.ctx.commitSubsumed();
    EXPECT_FALSE(f.ctx.topIsSubsumed());
    EXPECT_EQ(f.ctx.age(), 1u); // outermost begin tick
}

TEST(HtmContextUnit, WriteBufferVisibilityAcrossLevels)
{
    Fixture f;
    f.mem.write(0x100, 7);
    f.ctx.begin(TxKind::Closed, 0);
    f.ctx.specWrite(0x100, 10);
    EXPECT_EQ(f.ctx.specRead(0x100), 10u); // own write
    f.ctx.begin(TxKind::Closed, 1);
    EXPECT_EQ(f.ctx.specRead(0x100), 10u); // ancestor state visible
    f.ctx.specWrite(0x100, 20);
    EXPECT_EQ(f.ctx.specRead(0x100), 20u); // innermost wins
    EXPECT_EQ(f.mem.read(0x100), 7u);      // nothing escaped
    f.ctx.commitClosedTop();
    EXPECT_EQ(f.ctx.specRead(0x100), 20u); // merged into parent
    f.ctx.setTopValidated();
    f.ctx.commitTopToMemory();
    f.ctx.popCommittedTop();
    EXPECT_EQ(f.mem.read(0x100), 20u);
}

TEST(HtmContextUnit, SetQueriesReportPerLevelMasks)
{
    Fixture f;
    f.ctx.begin(TxKind::Closed, 0);
    f.ctx.specRead(0x100);
    f.ctx.begin(TxKind::Closed, 1);
    f.ctx.specWrite(0x100, 1);
    f.ctx.specRead(0x200);
    Addr l1 = f.ctx.trackUnit(0x100);
    Addr l2 = f.ctx.trackUnit(0x200);
    EXPECT_EQ(f.ctx.levelsReading(l1), 0x1u);
    EXPECT_EQ(f.ctx.levelsWriting(l1), 0x2u);
    EXPECT_EQ(f.ctx.levelsReading(l2), 0x2u);
    f.ctx.commitClosedTop();
    EXPECT_EQ(f.ctx.levelsReading(l1), 0x1u);
    EXPECT_EQ(f.ctx.levelsWriting(l1), 0x1u); // merged down
    EXPECT_EQ(f.ctx.levelsReading(l2), 0x1u);
}

TEST(HtmContextUnit, RollbackToIntermediateLevel)
{
    Fixture f;
    f.ctx.begin(TxKind::Closed, 0);
    f.ctx.specWrite(0x100, 1);
    f.ctx.begin(TxKind::Closed, 1);
    f.ctx.specWrite(0x200, 2);
    f.ctx.begin(TxKind::Closed, 2);
    f.ctx.specWrite(0x300, 3);
    f.ctx.rollbackTo(2); // kill levels 3 and 2, keep 1
    EXPECT_EQ(f.ctx.depth(), 1);
    EXPECT_EQ(f.ctx.levelsWriting(f.ctx.trackUnit(0x100)), 0x1u);
    EXPECT_EQ(f.ctx.levelsWriting(f.ctx.trackUnit(0x200)), 0u);
    EXPECT_EQ(f.ctx.levelsWriting(f.ctx.trackUnit(0x300)), 0u);
}

TEST(HtmContextUnit, UndoLogRegionsNestAndRestoreFifo)
{
    Fixture f(HtmConfig::eagerUndoLog());
    f.mem.write(0x100, 5);
    f.ctx.begin(TxKind::Closed, 0);
    f.ctx.specWrite(0x100, 6);
    f.ctx.specWrite(0x100, 7); // second write: second undo entry
    EXPECT_EQ(f.ctx.undoLogSize(), 2u);
    f.ctx.begin(TxKind::Closed, 1);
    f.ctx.specWrite(0x100, 8);
    EXPECT_EQ(f.mem.read(0x100), 8u);
    f.ctx.rollbackTo(2);
    EXPECT_EQ(f.mem.read(0x100), 7u); // child undone only
    f.ctx.rollbackTo(1);
    EXPECT_EQ(f.mem.read(0x100), 5u); // FILO to the original
    EXPECT_EQ(f.ctx.undoLogSize(), 0u);
}

TEST(HtmContextUnit, ImmediateWritesAreUndoneOnlyWithinTx)
{
    Fixture f;
    f.mem.write(0x100, 1);
    f.ctx.immWrite(0x100, 2); // outside any transaction: plain store
    EXPECT_EQ(f.mem.read(0x100), 2u);
    f.ctx.begin(TxKind::Closed, 0);
    f.ctx.immWrite(0x100, 3);
    f.ctx.rollbackTo(1);
    EXPECT_EQ(f.mem.read(0x100), 2u); // in-tx imst rolled back
}

TEST(HtmContextUnit, ViolationMaskClampAndPromotion)
{
    Fixture f;
    f.ctx.begin(TxKind::Closed, 0);
    f.ctx.begin(TxKind::Closed, 1);
    f.ctx.raiseViolation(0x2, 0x40);
    EXPECT_EQ(f.ctx.xvcurrent(), 0x2u);
    EXPECT_EQ(f.ctx.xvaddr(), 0x40u);
    // Level 2 disappears (commit): the bit transfers to level 1 via
    // commitClosedTop; a stale deeper bit clamps to depth.
    f.ctx.clearCurrentViolations();
    f.ctx.raiseViolation(0x4, 0x80); // bogus deep bit
    f.ctx.clampMasksToDepth();
    EXPECT_EQ(f.ctx.xvcurrent(), 0x2u); // clamped onto level 2

    f.ctx.setReporting(false);
    f.ctx.raiseViolation(0x1, 0xC0);
    EXPECT_EQ(f.ctx.xvpending(), 0x1u);
    f.ctx.promotePendingForLevel(1);
    EXPECT_EQ(f.ctx.xvpending(), 0u);
    EXPECT_EQ(f.ctx.xvcurrent() & 0x1u, 0x1u);
}

TEST(HtmContextUnit, ReportRegistersLatchFirstUndeliveredConflict)
{
    // Two back-to-back conflicts before any delivery: the report
    // registers must keep the FIRST address/attacker — the second
    // conflict only accumulates mask bits. Overwriting would make the
    // handler chase the wrong line (the original bug this guards).
    Fixture f;
    f.ctx.begin(TxKind::Closed, 0);
    f.ctx.raiseViolation(0x1, 0x40, 3);
    f.ctx.raiseViolation(0x1, 0x80, 5);
    EXPECT_EQ(f.ctx.xvaddr(), 0x40u);
    EXPECT_EQ(f.ctx.xvattacker(), 3);

    // Delivery consumes the report; the next conflict re-latches.
    f.ctx.consumeReport();
    f.ctx.raiseViolation(0x1, 0xC0, 7);
    EXPECT_EQ(f.ctx.xvaddr(), 0xC0u);
    EXPECT_EQ(f.ctx.xvattacker(), 7);
}

TEST(HtmContextUnit, ReportReleasesWhenEveryMaskBitClears)
{
    // Without an explicit consume, clearing all mask bits (software
    // acknowledged every violation) also unlatches the report.
    Fixture f;
    f.ctx.begin(TxKind::Closed, 0);
    f.ctx.raiseViolation(0x1, 0x40, 2);
    f.ctx.raiseViolation(0x1, 0x80, 4);
    EXPECT_EQ(f.ctx.xvaddr(), 0x40u);
    f.ctx.clearCurrentViolations();
    f.ctx.raiseViolation(0x1, 0x80, 4);
    EXPECT_EQ(f.ctx.xvaddr(), 0x80u);
    EXPECT_EQ(f.ctx.xvattacker(), 4);
}

TEST(HtmContextUnit, UndoIndexSurvivesCommitAndRollbackResizes)
{
    // oldestUndoValue / patchUndoEntries scan the undo log itself, so
    // they must see exactly the entries that survive as nested levels
    // push, commit (merge) and roll back undo regions for the same
    // word: the oldest surviving entry holds the committed value.
    HtmConfig cfg = HtmConfig::eagerUndoLog();
    Fixture f(cfg);
    f.mem.write(0x100, 7);

    f.ctx.begin(TxKind::Closed, 0);
    f.ctx.specWrite(0x100, 10);
    EXPECT_EQ(f.ctx.oldestUndoValue(0x100), 7u);
    f.ctx.begin(TxKind::Closed, 1);
    f.ctx.specWrite(0x100, 20);
    EXPECT_EQ(f.ctx.oldestUndoValue(0x100), 7u);

    // Inner rollback restores 10 and drops its undo entry; the
    // remaining entry still maps to the oldest value.
    f.ctx.rollbackTo(2);
    EXPECT_EQ(f.mem.read(0x100), 10u);
    EXPECT_EQ(f.ctx.oldestUndoValue(0x100), 7u);

    // A strong-atomicity patch rewrites every remaining entry.
    f.ctx.patchUndoEntries(0x100, 99);
    EXPECT_EQ(f.ctx.oldestUndoValue(0x100), 99u);
    f.ctx.rollbackTo(1);
    EXPECT_EQ(f.mem.read(0x100), 99u);
    EXPECT_EQ(f.ctx.undoLogSize(), 0u);
}

TEST(HtmContextUnit, ReturnFromHandlerPromotesPending)
{
    Fixture f;
    f.ctx.begin(TxKind::Closed, 0);
    f.ctx.setReporting(false);
    f.ctx.raiseViolation(0x1, 0);
    EXPECT_FALSE(f.ctx.deliverable());
    EXPECT_TRUE(f.ctx.returnFromHandler());
    EXPECT_TRUE(f.ctx.deliverable());
    EXPECT_TRUE(f.ctx.reportingEnabled());
}

TEST(HtmContextUnit, OpenCommitPatchesAncestorBuffer)
{
    Fixture f;
    f.mem.write(0x100, 1);
    f.ctx.begin(TxKind::Closed, 0);
    f.ctx.specWrite(0x100, 2); // parent buffered write
    f.ctx.begin(TxKind::Open, 1);
    f.ctx.specWrite(0x100, 3);
    f.ctx.setTopValidated();
    f.ctx.commitTopToMemory();
    f.ctx.popCommittedTop();
    EXPECT_EQ(f.mem.read(0x100), 3u);      // published
    EXPECT_EQ(f.ctx.specRead(0x100), 3u);  // parent buffer patched
    f.ctx.rollbackTo(1);
    EXPECT_EQ(f.mem.read(0x100), 3u);      // open commit survives
}

TEST(HtmContextUnit, TrackUnitRespectsGranularity)
{
    Fixture line;
    EXPECT_EQ(line.ctx.trackUnit(0x128), line.ctx.lineOf(0x128));

    HtmConfig cfg = HtmConfig::paperLazy();
    cfg.granularity = TrackGranularity::Word;
    Fixture word(cfg);
    EXPECT_EQ(word.ctx.trackUnit(0x128), 0x128u);
    EXPECT_NE(word.ctx.trackUnit(0x128), word.ctx.trackUnit(0x120));
}

TEST(HtmContextUnit, ResetAllClearsEverything)
{
    Fixture f;
    f.ctx.begin(TxKind::Closed, 0);
    f.ctx.specWrite(0x100, 1);
    f.ctx.raiseViolation(0x1, 0);
    f.ctx.resetAll();
    EXPECT_FALSE(f.ctx.inTx());
    EXPECT_EQ(f.ctx.xvcurrent(), 0u);
    EXPECT_EQ(f.ctx.undoLogSize(), 0u);
    EXPECT_TRUE(f.ctx.reportingEnabled());
}

TEST(HtmContextUnit, UndoLogWithLazyConflictIsRejected)
{
    HtmConfig bad;
    bad.version = VersionMode::UndoLog;
    bad.conflict = ConflictMode::Lazy;
    auto attempt = [&] { Fixture f(bad); };
    EXPECT_EXIT(attempt(), ::testing::ExitedWithCode(1),
                "undo-log versioning requires eager conflict detection");
}

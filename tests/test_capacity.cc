/**
 * @file
 * Bounded-capacity HTM: per-level read/write-set caps, the capacity
 * abort/virtualise restart cycle (XTM abort-once-then-software), the
 * software-overflow spill path (VTM), eviction-triggered capacity
 * aborts, and the interaction of caps with nesting (child merge,
 * open-nested commit). Includes the overflow-check penalty pinning
 * test for the conflict detector.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/machine.hh"
#include "htm/htm_context.hh"
#include "mem/backing_store.hh"
#include "runtime/tx_thread.hh"
#include "sim/stats.hh"

using namespace tmsim;

namespace {

HtmConfig
cappedConfig(int rcap, int wcap, CapacityMode mode)
{
    HtmConfig cfg = HtmConfig::paperLazy();
    cfg.rsetCap = rcap;
    cfg.wsetCap = wcap;
    cfg.capacityMode = mode;
    return cfg;
}

/** Direct HtmContext fixture — no Machine, no timing. */
struct Fixture
{
    StatsRegistry stats;
    BackingStore mem{1 << 20};
    HtmContext ctx;

    explicit Fixture(HtmConfig cfg = HtmConfig::paperLazy())
        : ctx(0, cfg, mem, nullptr, nullptr, stats)
    {
    }

    std::uint64_t
    counter(const char* name)
    {
        return stats.counter(name).value();
    }
};

MachineConfig
machineConfig(HtmConfig htm, int cpus)
{
    MachineConfig cfg;
    cfg.numCpus = cpus;
    cfg.htm = htm;
    cfg.memBytes = 16 * 1024 * 1024;
    return cfg;
}

/** N distinct line addresses (64-byte stride). */
Addr
line(int i)
{
    return 0x10000 + static_cast<Addr>(i) * 64;
}

} // namespace

// --- unit: cap enforcement and the virtualised retry ---------------------

TEST(CapacityUnit, UnboundedDefaultNeverAborts)
{
    Fixture f;
    f.ctx.begin(TxKind::Closed, 1);
    for (int i = 0; i < 64; ++i)
        f.ctx.specRead(line(i));
    EXPECT_EQ(f.ctx.xvcurrent(), 0u);
    EXPECT_FALSE(f.ctx.capacityVirtualized());
    EXPECT_FALSE(f.ctx.overflowed());
    EXPECT_EQ(f.ctx.spilledLineCount(), 0u);
    EXPECT_EQ(f.counter("cpu0.htm.capacity_aborts"), 0u);
}

TEST(CapacityUnit, ReadCapRaisesOneCapacityAbortThenVirtualises)
{
    Fixture f(cappedConfig(2, 0, CapacityMode::Abort));
    f.ctx.begin(TxKind::Closed, 1);
    f.ctx.specRead(line(0));
    f.ctx.specRead(line(1));
    // At the cap: no violation yet.
    EXPECT_EQ(f.ctx.xvcurrent(), 0u);
    f.ctx.specRead(line(2));
    // Over the cap: a self-raised violation against level 1.
    EXPECT_NE(f.ctx.xvcurrent(), 0u);
    EXPECT_TRUE(f.ctx.capacityVirtualized());
    EXPECT_TRUE(f.ctx.takeCapacityRestart());
    EXPECT_FALSE(f.ctx.takeCapacityRestart()); // consumed
    EXPECT_EQ(f.counter("cpu0.htm.capacity_aborts"), 1u);

    // The restarted attempt runs virtualised: caps lifted, over-cap
    // lines spill to the overflow log instead of aborting again.
    f.ctx.rollbackTo(1);
    EXPECT_TRUE(f.ctx.capacityVirtualized()); // survives rollback
    f.ctx.begin(TxKind::Closed, 2);
    for (int i = 0; i < 4; ++i)
        f.ctx.specRead(line(i));
    EXPECT_EQ(f.ctx.xvcurrent(), 0u);
    EXPECT_EQ(f.counter("cpu0.htm.capacity_aborts"), 1u);
    EXPECT_EQ(f.ctx.spilledLineCount(), 2u);
    EXPECT_TRUE(f.ctx.overflowed());
    EXPECT_GE(f.counter("htm.capacity_spills"), 2u);

    // Outer commit ends the virtualised episode.
    f.ctx.setTopValidated();
    f.ctx.commitTopToMemory();
    f.ctx.popCommittedTop();
    EXPECT_FALSE(f.ctx.capacityVirtualized());
    EXPECT_EQ(f.ctx.spilledLineCount(), 0u);
}

TEST(CapacityUnit, WriteCapInOverflowModeSpillsWithoutAborting)
{
    Fixture f(cappedConfig(0, 1, CapacityMode::Overflow));
    f.ctx.begin(TxKind::Closed, 1);
    for (int i = 0; i < 3; ++i)
        f.ctx.specWrite(line(i), 7);
    EXPECT_EQ(f.ctx.xvcurrent(), 0u);
    EXPECT_EQ(f.ctx.xvpending(), 0u);
    EXPECT_FALSE(f.ctx.capacityVirtualized());
    EXPECT_EQ(f.ctx.spilledLineCount(), 2u);
    EXPECT_TRUE(f.ctx.overflowed());
    EXPECT_EQ(f.counter("cpu0.htm.capacity_aborts"), 0u);
    EXPECT_EQ(f.counter("htm.capacity_spills"), 2u);
}

TEST(CapacityUnit, SequenceAbandonmentClearsVirtualisation)
{
    Fixture f(cappedConfig(1, 0, CapacityMode::Abort));
    f.ctx.begin(TxKind::Closed, 1);
    f.ctx.specRead(line(0));
    f.ctx.specRead(line(1));
    EXPECT_TRUE(f.ctx.capacityVirtualized());
    f.ctx.rollbackTo(1);
    f.ctx.noteSequenceAbandoned();
    EXPECT_FALSE(f.ctx.capacityVirtualized());
    EXPECT_FALSE(f.ctx.takeCapacityRestart());
}

// --- unit: nesting interactions ------------------------------------------

TEST(CapacityUnit, ChildMergeRechecksParentCap)
{
    Fixture f(cappedConfig(2, 0, CapacityMode::Abort));
    f.ctx.begin(TxKind::Closed, 1);
    f.ctx.specRead(line(0));
    f.ctx.specRead(line(1)); // parent at cap
    f.ctx.begin(TxKind::Closed, 2);
    f.ctx.specRead(line(2));
    f.ctx.specRead(line(3)); // child at cap
    EXPECT_EQ(f.counter("cpu0.htm.capacity_aborts"), 0u);

    // The merged parent read-set (4 lines) exceeds the cap: the merge
    // must re-check and raise a capacity abort.
    f.ctx.commitClosedTop();
    EXPECT_EQ(f.counter("cpu0.htm.capacity_aborts"), 1u);
    EXPECT_TRUE(f.ctx.capacityVirtualized());
    EXPECT_NE(f.ctx.xvcurrent(), 0u);
}

TEST(CapacityUnit, OpenNestedCommitReleasesCapacity)
{
    Fixture f(cappedConfig(2, 0, CapacityMode::Overflow));
    f.ctx.begin(TxKind::Closed, 1);
    f.ctx.specRead(line(0));
    f.ctx.specRead(line(1));
    f.ctx.begin(TxKind::Open, 2);
    for (int i = 2; i < 5; ++i)
        f.ctx.specRead(line(i));
    EXPECT_EQ(f.ctx.spilledLineCount(), 1u); // open level: 3 > 2

    // Open-nested commit discards the open level's sets entirely —
    // the spilled footprint must be released with them.
    f.ctx.setTopValidated();
    f.ctx.commitTopToMemory();
    f.ctx.popCommittedTop();
    EXPECT_EQ(f.ctx.depth(), 1);
    EXPECT_EQ(f.ctx.spilledLineCount(), 0u);
    EXPECT_FALSE(f.ctx.overflowed());
}

TEST(CapacityUnit, PartialRollbackReleasesInnerSpills)
{
    Fixture f(cappedConfig(2, 0, CapacityMode::Overflow));
    f.ctx.begin(TxKind::Closed, 1);
    f.ctx.specRead(line(0));
    f.ctx.begin(TxKind::Closed, 2);
    for (int i = 1; i < 5; ++i)
        f.ctx.specRead(line(i));
    EXPECT_EQ(f.ctx.spilledLineCount(), 2u);

    // Rolling back the inner level discards its sets; the overflow
    // log (derived from surviving levels) shrinks with them.
    f.ctx.rollbackTo(2);
    EXPECT_EQ(f.ctx.depth(), 1);
    EXPECT_EQ(f.ctx.spilledLineCount(), 0u);
}

// --- unit: eviction-triggered capacity aborts ----------------------------

TEST(CapacityUnit, TransactionalEvictionAbortsInAbortMode)
{
    Fixture f(cappedConfig(64, 64, CapacityMode::Abort));
    f.ctx.begin(TxKind::Closed, 1);
    f.ctx.specRead(line(0));
    f.ctx.noteEviction(EvictInfo{true, line(0), true});
    EXPECT_EQ(f.counter("cpu0.htm.capacity_aborts"), 1u);
    EXPECT_TRUE(f.ctx.capacityVirtualized());
    EXPECT_NE(f.ctx.xvcurrent(), 0u);

    // A second eviction while virtualised must not re-abort.
    f.ctx.noteEviction(EvictInfo{true, line(1), true});
    EXPECT_EQ(f.counter("cpu0.htm.capacity_aborts"), 1u);
}

TEST(CapacityUnit, TransactionalEvictionOnlyCountsWhenUnbounded)
{
    // Historical behaviour: with no caps configured, an eviction of
    // transactional state never aborts — it just marks the context
    // overflowed (checked at extra cost by peers).
    Fixture f;
    f.ctx.begin(TxKind::Closed, 1);
    f.ctx.specRead(line(0));
    f.ctx.noteEviction(EvictInfo{true, line(0), true});
    EXPECT_EQ(f.ctx.xvcurrent(), 0u);
    EXPECT_TRUE(f.ctx.overflowed());
    EXPECT_EQ(f.counter("cpu0.htm.capacity_aborts"), 0u);

    // Non-transactional evictions are ignored entirely.
    Fixture g(cappedConfig(1, 1, CapacityMode::Abort));
    g.ctx.begin(TxKind::Closed, 1);
    g.ctx.noteEviction(EvictInfo{true, line(0), false});
    g.ctx.noteEviction(EvictInfo{false, line(1), true});
    EXPECT_EQ(g.counter("cpu0.htm.capacity_aborts"), 0u);
    EXPECT_FALSE(g.ctx.overflowed());
}

TEST(CapacityUnit, TransactionalEvictionSpillsInOverflowMode)
{
    Fixture f(cappedConfig(64, 64, CapacityMode::Overflow));
    f.ctx.begin(TxKind::Closed, 1);
    f.ctx.specRead(line(0));
    f.ctx.noteEviction(EvictInfo{true, line(0), true});
    EXPECT_EQ(f.ctx.xvcurrent(), 0u);
    EXPECT_TRUE(f.ctx.overflowed());
    EXPECT_EQ(f.counter("cpu0.htm.capacity_aborts"), 0u);
}

// --- machine: the full abort/virtualise/commit cycle ---------------------

TEST(CapacityMachine, AbortModeTakesExactlyOneCapacityRestart)
{
    Machine m(machineConfig(cappedConfig(4, 4, CapacityMode::Abort), 1));
    m.logContext().quiet = true;
    TxThread t0(m.cpu(0));

    Word sum = 0;
    TxOutcome out;
    m.spawn(0, [&](Cpu&) -> SimTask {
        for (int i = 0; i < 8; ++i)
            m.memory().write(line(i), static_cast<Word>(i + 1));
        out = co_await t0.atomic([&](TxThread& t) -> SimTask {
            sum = 0;
            for (int i = 0; i < 8; ++i)
                sum += co_await t.ld(line(i));
        });
    });
    m.run();
    ASSERT_TRUE(m.allDone());

    // One capacity abort, then the virtualised retry fits and commits.
    EXPECT_TRUE(out.committed());
    EXPECT_EQ(out.retries, 1);
    EXPECT_EQ(sum, 36u);
    EXPECT_EQ(m.stats().counter("cpu0.htm.capacity_aborts").value(), 1u);
    EXPECT_EQ(m.stats().counter("cpu0.htm.capacity_restarts").value(), 1u);
    // The retry read 8 lines against a cap of 4: 4 spilled.
    EXPECT_EQ(m.stats().counter("htm.capacity_spills").value(), 4u);
}

TEST(CapacityMachine, OverflowModeCommitsFirstTime)
{
    Machine m(machineConfig(cappedConfig(4, 4, CapacityMode::Overflow), 1));
    m.logContext().quiet = true;
    TxThread t0(m.cpu(0));

    Word sum = 0;
    TxOutcome out;
    m.spawn(0, [&](Cpu&) -> SimTask {
        for (int i = 0; i < 8; ++i)
            m.memory().write(line(i), static_cast<Word>(i + 1));
        out = co_await t0.atomic([&](TxThread& t) -> SimTask {
            sum = 0;
            for (int i = 0; i < 8; ++i)
                sum += co_await t.ld(line(i));
        });
    });
    m.run();
    ASSERT_TRUE(m.allDone());

    EXPECT_TRUE(out.committed());
    EXPECT_EQ(out.retries, 0);
    EXPECT_EQ(sum, 36u);
    EXPECT_EQ(m.stats().counter("cpu0.htm.capacity_aborts").value(), 0u);
    EXPECT_EQ(m.stats().counter("cpu0.htm.capacity_restarts").value(), 0u);
    EXPECT_EQ(m.stats().counter("htm.capacity_spills").value(), 4u);
}

// --- machine: overflow-check penalty pinning (PR 8 satellite) ------------

namespace {

/** One transactional load on CPU 0 under eager detection; returns the
 *  final tick. When @p overflow_peer, CPU 1's context is marked
 *  overflowed first (an evicted transactional line), so CPU 0's
 *  first-access check must consult its overflow structures. */
Tick
eagerLoadTicks(bool overflow_peer, std::uint64_t* checks_out = nullptr)
{
    Machine m(machineConfig(HtmConfig::eagerUndoLog(), 2));
    m.logContext().quiet = true;
    TxThread t0(m.cpu(0));

    if (overflow_peer)
        m.cpu(1).htm().noteEviction(EvictInfo{true, 0x40, true});

    m.spawn(0, [&](Cpu&) -> SimTask {
        co_await t0.atomic([&](TxThread& t) -> SimTask {
            co_await t.ld(line(0));
        });
    });
    const Tick end = m.run();
    if (checks_out)
        *checks_out = m.stats().counter("htm.overflow_checks").value();
    return end;
}

} // namespace

TEST(CapacityMachine, OverflowCheckPenaltyChargedAndCounted)
{
    std::uint64_t baseChecks = 0, overflowChecks = 0;
    const Tick base = eagerLoadTicks(false, &baseChecks);
    const Tick slow = eagerLoadTicks(true, &overflowChecks);

    // Exactly one first-access check ran, so exactly one consult was
    // charged: overflowCheckPenalty (8) extra cycles, one counter tick.
    EXPECT_EQ(baseChecks, 0u);
    EXPECT_EQ(overflowChecks, 1u);
    EXPECT_EQ(slow - base, HtmConfig::overflowCheckPenalty);
}

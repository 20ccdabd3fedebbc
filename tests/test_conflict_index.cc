/**
 * @file
 * Randomized property test for the conflict detector's sharer index:
 * after every operation in a long random sequence of begins, reads,
 * writes, releases, closed/open commits, rollbacks, set clears,
 * evictions and resets, the detector's inverted index must agree
 * exactly with each context's per-level scan (levelsReading /
 * levelsWriting), and the cached validatedLevels mask with the level
 * statuses.
 *
 * The index is a pure acceleration structure — any divergence from
 * the scan is a correctness bug, so the test asserts zero divergence
 * over >= 10k operations per configuration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/machine.hh"
#include "sim/rng.hh"

using namespace tmsim;

namespace {

constexpr int kCpus = 4;
constexpr int kPoolLines = 64;
constexpr int kOpsPerConfig = 12000;

struct Harness
{
    Machine m;
    Addr base;
    Addr lineBytes;
    std::vector<Addr> units; // every distinct track unit of the pool

    explicit Harness(HtmConfig htm)
        : m([&] {
              MachineConfig cfg;
              cfg.numCpus = kCpus;
              cfg.htm = htm;
              cfg.memBytes = 4 * 1024 * 1024;
              return cfg;
          }()),
          base(m.memory().allocate(kPoolLines * 32)),
          lineBytes(m.cpu(0).htm().lineBytes())
    {
        HtmContext& c0 = m.cpu(0).htm();
        for (Addr w = base; w < base + kPoolLines * lineBytes;
             w += wordBytes) {
            Addr u = c0.trackUnit(w);
            if (units.empty() || units.back() != u)
                units.push_back(u);
        }
        std::sort(units.begin(), units.end());
        units.erase(std::unique(units.begin(), units.end()), units.end());
    }

    Addr
    randomWord(Rng& rng) const
    {
        Addr words = kPoolLines * lineBytes / wordBytes;
        return base + rng.below(words) * wordBytes;
    }

    /** The invariant: the detector's index == each context's
     *  per-level scan. */
    ::testing::AssertionResult
    checkAll()
    {
        ConflictDetector& det = m.memSystem().detector();
        for (int c = 0; c < kCpus; ++c) {
            HtmContext& ctx = m.cpu(c).htm();
            if (ctx.validatedLevels() != ctx.validatedLevelsScan()) {
                return ::testing::AssertionFailure()
                       << "cpu" << c << " validated mask "
                       << ctx.validatedLevels() << " != scan "
                       << ctx.validatedLevelsScan();
            }
            for (Addr u : units) {
                const std::uint32_t rScan = ctx.levelsReading(u);
                const std::uint32_t wScan = ctx.levelsWriting(u);
                const std::uint32_t ir = det.indexedReaders(ctx, u);
                const std::uint32_t iw = det.indexedWriters(ctx, u);
                if (ir != rScan || iw != wScan) {
                    return ::testing::AssertionFailure()
                           << "cpu" << c << " unit 0x" << std::hex << u
                           << std::dec << " index r/w " << ir << "/" << iw
                           << " != scan " << rScan << "/" << wScan;
                }
            }
        }
        return ::testing::AssertionSuccess();
    }
};

void
runRandomOps(HtmConfig htm, std::uint64_t seed)
{
    Harness h(htm);
    Rng rng(seed);
    const int maxHw = htm.maxHwLevels;

    for (int op = 0; op < kOpsPerConfig; ++op) {
        HtmContext& ctx = h.m.cpu(static_cast<int>(rng.below(kCpus))).htm();
        const std::uint64_t pick = rng.below(100);

        if (!ctx.inTx()) {
            // Out of a transaction the only moves are begin or (rarely)
            // a full reset of some context.
            if (pick < 95) {
                ctx.begin(pick % 8 == 0 ? TxKind::Open : TxKind::Closed,
                          static_cast<Tick>(op));
            } else {
                ctx.resetAll();
            }
        } else if (pick < 10 && ctx.depth() < maxHw) {
            ctx.begin(pick % 2 ? TxKind::Open : TxKind::Closed,
                      static_cast<Tick>(op));
        } else if (pick < 45) {
            ctx.specRead(h.randomWord(rng));
        } else if (pick < 70) {
            ctx.specWrite(h.randomWord(rng), rng.next());
        } else if (pick < 76) {
            ctx.releaseLine(h.randomWord(rng));
        } else if (pick < 80) {
            if (ctx.top().status != TxStatus::Validated)
                ctx.setTopValidated();
        } else if (pick < 88) {
            // Commit the innermost transaction the way the Cpu would.
            if (ctx.depth() >= 2 && ctx.top().kind == TxKind::Closed) {
                ctx.commitClosedTop();
            } else if (ctx.depth() == 1 ||
                       ctx.top().kind == TxKind::Open) {
                ctx.commitTopToMemory();
                ctx.popCommittedTop();
            }
        } else if (pick < 95) {
            ctx.rollbackTo(
                static_cast<int>(rng.range(1,
                                           static_cast<std::uint64_t>(
                                               ctx.depth()))));
        } else if (pick < 97) {
            ctx.clearTopSets();
        } else {
            // A capacity eviction: affects only the overflow flag, the
            // authoritative sets (and thus the index) must not move.
            ctx.noteEviction(EvictInfo{true, h.base, true});
        }

        ASSERT_TRUE(h.checkAll()) << "after op " << op;
    }

    // Drain every context and confirm the index empties with them.
    for (int c = 0; c < kCpus; ++c) {
        HtmContext& ctx = h.m.cpu(c).htm();
        if (ctx.inTx())
            ctx.rollbackTo(1);
    }
    ASSERT_TRUE(h.checkAll());
    EXPECT_EQ(h.m.memSystem().detector().indexedUnitCount(), 0u);
}

} // namespace

TEST(ConflictIndex, RandomOpsLazyWriteBufferLine)
{
    runRandomOps(HtmConfig::paperLazy(), 0xC0FFEE01ull);
}

TEST(ConflictIndex, RandomOpsEagerUndoLogLine)
{
    runRandomOps(HtmConfig::eagerUndoLog(), 0xC0FFEE02ull);
}

TEST(ConflictIndex, RandomOpsLazyWordGranularity)
{
    HtmConfig cfg = HtmConfig::paperLazy();
    cfg.granularity = TrackGranularity::Word;
    runRandomOps(cfg, 0xC0FFEE03ull);
}

TEST(ConflictIndex, RandomOpsEagerOlderWins)
{
    HtmConfig cfg = HtmConfig::eagerUndoLog();
    cfg.contention = ContentionPolicy::Timestamp;
    runRandomOps(cfg, 0xC0FFEE04ull);
}

/** htm.index_hits counts the detector's queries only: a context
 *  answering queries about its own sets does not touch it. */
TEST(ConflictIndex, OwnSetQueriesLeaveIndexHitsAlone)
{
    Harness h(HtmConfig::eagerUndoLog());
    HtmContext& ctx = h.m.cpu(0).htm();
    ctx.begin(TxKind::Closed, 0);
    ctx.specRead(h.base);
    ctx.specWrite(h.base + h.lineBytes, 1);

    const StatsRegistry& st = h.m.stats();
    const std::uint64_t hits = st.value("htm.index_hits");
    int untracked = 0;
    for (Addr u : h.units) {
        if (u == ctx.trackUnit(h.base) ||
            u == ctx.trackUnit(h.base + h.lineBytes))
            continue;
        ++untracked;
        EXPECT_EQ(ctx.levelsReading(u), 0u);
        EXPECT_EQ(ctx.levelsWriting(u), 0u);
        EXPECT_FALSE(ctx.wroteWordInPlace(u));
    }
    EXPECT_GT(untracked, 0);
    // The two units the context does hold answer from its own sets too.
    EXPECT_EQ(ctx.levelsReading(ctx.trackUnit(h.base)), 1u);
    EXPECT_EQ(ctx.levelsWriting(ctx.trackUnit(h.base + h.lineBytes)), 1u);
    EXPECT_EQ(st.value("htm.index_hits"), hits);
}

/** The detector's query paths must see exactly what the index holds:
 *  a broadcast violates precisely the brute-force reader set. */
TEST(ConflictIndex, BroadcastMatchesBruteForce)
{
    Harness h(HtmConfig::paperLazy());
    Rng rng(0xBEEF);
    ConflictDetector& det = h.m.memSystem().detector();

    for (int round = 0; round < 200; ++round) {
        for (int c = 0; c < kCpus; ++c) {
            HtmContext& ctx = h.m.cpu(c).htm();
            ctx.begin(TxKind::Closed, static_cast<Tick>(round));
            for (int i = 0; i < 6; ++i)
                ctx.specRead(h.randomWord(rng));
        }
        HtmContext& committer = h.m.cpu(0).htm();
        for (int i = 0; i < 4; ++i)
            committer.specWrite(h.randomWord(rng), 1);

        // Expected victims via brute-force scan, before broadcasting.
        std::vector<std::uint32_t> expected(kCpus, 0);
        const std::span<const Addr> lines = committer.topWriteLines();
        for (int c = 1; c < kCpus; ++c) {
            HtmContext& ctx = h.m.cpu(c).htm();
            for (Addr line : lines)
                expected[static_cast<size_t>(c)] |=
                    ctx.levelsReading(line) & ~ctx.validatedLevelsScan();
        }

        det.broadcastWriteSet(committer, lines);
        for (int c = 1; c < kCpus; ++c) {
            EXPECT_EQ(h.m.cpu(c).htm().xvcurrent(),
                      expected[static_cast<size_t>(c)])
                << "round " << round << " cpu " << c;
        }
        for (int c = 0; c < kCpus; ++c) {
            h.m.cpu(c).htm().rollbackTo(1);
            h.m.cpu(c).htm().clearCurrentViolations();
        }
        ASSERT_TRUE(h.checkAll());
    }
}

/**
 * @file
 * Unit tests of the native STM backend (src/stm): ISA semantics
 * (two-phase commit, closed-nested merge, open-nested early commit,
 * imld/imst/imstid, release), handler stacks, conflict detection and
 * snapshot extension via hand-scheduled cross-thread interleavings,
 * naked-access serialization keys, the level marks over the per-thread
 * logs, the allocation-free commit path, and the hang watchdog.
 * Everything but the last test runs single-host-threaded with explicit
 * interleavings, so the outcomes are deterministic (the genuinely
 * concurrent coverage lives in tools/tmsim_diff).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/stats.hh"
#include "stm/orec_table.hh"
#include "stm/stm_runtime.hh"
#include "stm/stm_thread.hh"
#include "workloads/zipf.hh"

// Every heap allocation in this binary goes through here, so a test
// can count the allocations a transaction makes. (The deletes stay out
// of line: inlined next to the library's operator new, GCC would warn
// that free() does not match it.)
namespace {
std::atomic<long> newCalls{0};
} // namespace

void*
operator new(std::size_t n)
{
    newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

using namespace tmsim;

namespace {

/** Heap allocations made while @p fn runs. */
template <typename Fn>
long
allocationsDuring(Fn fn)
{
    const long before = newCalls.load();
    fn();
    return newCalls.load() - before;
}

/** Runtime with a heap slice carved out for direct-address tests. */
struct StmFixture
{
    StmRuntime rt;
    Addr base;

    StmFixture() : base(rt.allocate(64 * wordBytes))
    {
        for (int i = 0; i < 64; ++i)
            rt.write(addr(i), 100 + static_cast<Word>(i));
        rt.armWatchdog();
    }

    Addr addr(int slot) const
    {
        return base + static_cast<Addr>(slot) * wordBytes;
    }
};

} // namespace

TEST(Stm, CommitPublishesBufferedWrites)
{
    StmFixture f;
    StmThread t(f.rt, 0);

    const StmTxOutcome o = t.atomic([&](StmThread& th) {
        EXPECT_EQ(th.txLoad(f.addr(0)), 100u);
        th.txStore(f.addr(0), 42);
        // Lazy versioning: memory unchanged until xcommit.
        EXPECT_EQ(f.rt.read(f.addr(0)), 100u);
        // Read-your-write through the redo log.
        EXPECT_EQ(th.txLoad(f.addr(0)), 42u);
    });
    EXPECT_TRUE(o.committed());
    EXPECT_EQ(o.retries, 0);
    EXPECT_EQ(f.rt.read(f.addr(0)), 42u);
    EXPECT_EQ(t.stats().commits, 1u);
}

TEST(Stm, VoluntaryAbortDiscardsWritesAndReportsCode)
{
    StmFixture f;
    StmThread t(f.rt, 0);

    const StmTxOutcome o = t.atomic([&](StmThread& th) {
        th.txStore(f.addr(1), 7);
        th.xabort(0x33);
    });
    EXPECT_FALSE(o.committed());
    EXPECT_EQ(o.abortCode, 0x33u);
    EXPECT_EQ(f.rt.read(f.addr(1)), 101u);
    EXPECT_EQ(t.stats().abortsVoluntary, 1u);
    EXPECT_FALSE(t.inTx());
}

TEST(Stm, ClosedNestMergesIntoParentAndCommitsOnce)
{
    StmFixture f;
    StmThread t(f.rt, 0);

    const StmTxOutcome o = t.atomic([&](StmThread& th) {
        th.txStore(f.addr(2), 1);
        const StmTxOutcome inner = th.atomic([&](StmThread& in) {
            // Cross-level read-your-write: sees the parent's store.
            EXPECT_EQ(in.txLoad(f.addr(2)), 1u);
            in.txStore(f.addr(3), 2);
        });
        EXPECT_TRUE(inner.committed());
        // Child committed into the parent, not into memory.
        EXPECT_EQ(f.rt.read(f.addr(3)), 103u);
        EXPECT_EQ(th.txLoad(f.addr(3)), 2u);
        EXPECT_EQ(th.depth(), 1);
    });
    EXPECT_TRUE(o.committed());
    EXPECT_EQ(f.rt.read(f.addr(2)), 1u);
    EXPECT_EQ(f.rt.read(f.addr(3)), 2u);
    // Two level starts but one memory commit (the outermost); the
    // closed child merged instead of committing.
    EXPECT_EQ(t.stats().starts, 2u);
    EXPECT_EQ(t.stats().commits, 1u);
    EXPECT_EQ(t.stats().openCommits, 0u);
}

TEST(Stm, OpenNestCommitsEarlyAndSurvivesOuterAbort)
{
    StmFixture f;
    StmThread t(f.rt, 0);

    const StmTxOutcome o = t.atomic([&](StmThread& th) {
        th.txStore(f.addr(4), 11);
        const StmTxOutcome inner = th.atomicOpen([&](StmThread& in) {
            in.txStore(f.addr(5), 22);
        });
        EXPECT_TRUE(inner.committed());
        // Open-nested commit is durable immediately...
        EXPECT_EQ(f.rt.read(f.addr(5)), 22u);
        th.xabort();
    });
    EXPECT_FALSE(o.committed());
    // ...and survives the enclosing abort; the outer store does not.
    EXPECT_EQ(f.rt.read(f.addr(5)), 22u);
    EXPECT_EQ(f.rt.read(f.addr(4)), 104u);
    EXPECT_EQ(t.stats().openCommits, 1u);
}

TEST(Stm, CommitHandlersRunOnOutermostCommitInOrder)
{
    StmFixture f;
    StmThread t(f.rt, 0);
    std::vector<Word> order;

    const StmTxOutcome o = t.atomic([&](StmThread& th) {
        th.onCommit([&](StmThread&, const std::vector<Word>& a) {
            order.push_back(a[0]);
        }, {1});
        const StmTxOutcome inner = th.atomic([&](StmThread& in) {
            // Registered in a closed child: deferred to the outermost
            // commit (the merge keeps it on the stack).
            in.onCommit([&](StmThread&, const std::vector<Word>& a) {
                order.push_back(a[0]);
            }, {2});
        });
        EXPECT_TRUE(inner.committed());
        EXPECT_TRUE(order.empty());
    });
    EXPECT_TRUE(o.committed());
    EXPECT_EQ(order, (std::vector<Word>{1, 2}));
    EXPECT_EQ(t.stats().commitHandlerRuns, 2u);
}

TEST(Stm, CommitHandlerWritesAreDurableViaImstid)
{
    StmFixture f;
    StmThread t(f.rt, 0);

    const StmTxOutcome o = t.atomic([&](StmThread& th) {
        th.onCommit([&](StmThread& h, const std::vector<Word>& a) {
            // Runs between xvalidate and xcommit, per the paper's
            // two-phase protocol: immediate stores are safe here.
            h.imstid(a[0], a[1]);
        }, {f.addr(6), 77});
    });
    EXPECT_TRUE(o.committed());
    EXPECT_EQ(f.rt.read(f.addr(6)), 77u);
}

TEST(Stm, AbortHandlersRunNewestFirstOnXabort)
{
    StmFixture f;
    StmThread t(f.rt, 0);
    std::vector<Word> order;

    const StmTxOutcome o = t.atomic([&](StmThread& th) {
        th.onAbort([&](StmThread&, const std::vector<Word>& a) {
            order.push_back(a[0]);
        }, {1});
        th.onAbort([&](StmThread&, const std::vector<Word>& a) {
            order.push_back(a[0]);
        }, {2});
        th.xabort();
    });
    EXPECT_FALSE(o.committed());
    EXPECT_EQ(order, (std::vector<Word>{2, 1}));
    EXPECT_EQ(t.stats().abortHandlerRuns, 2u);
}

TEST(Stm, InnerXabortOnlyAbortsTheInnermostLevel)
{
    StmFixture f;
    StmThread t(f.rt, 0);

    const StmTxOutcome o = t.atomic([&](StmThread& th) {
        th.txStore(f.addr(7), 1);
        const StmTxOutcome inner = th.atomic([&](StmThread& in) {
            in.txStore(f.addr(8), 2);
            in.xabort(9);
        });
        EXPECT_FALSE(inner.committed());
        EXPECT_EQ(inner.abortCode, 9u);
        EXPECT_EQ(th.depth(), 1);
        // The aborted child's store is gone; the parent's is intact.
        EXPECT_EQ(th.txLoad(f.addr(8)), 108u);
        EXPECT_EQ(th.txLoad(f.addr(7)), 1u);
    });
    EXPECT_TRUE(o.committed());
    EXPECT_EQ(f.rt.read(f.addr(7)), 1u);
    EXPECT_EQ(f.rt.read(f.addr(8)), 108u);
}

TEST(Stm, ImstIsImmediateAndUndoneOnAbort)
{
    StmFixture f;
    StmThread t(f.rt, 0);

    const StmTxOutcome o = t.atomic([&](StmThread& th) {
        th.imst(f.addr(9), 5);
        // Immediate: visible in memory before any commit.
        EXPECT_EQ(f.rt.read(f.addr(9)), 5u);
        EXPECT_EQ(th.imld(f.addr(9)), 5u);
        th.imst(f.addr(9), 6);
        th.imstid(f.addr(10), 8); // idempotent: no undo kept
        th.xabort();
    });
    EXPECT_FALSE(o.committed());
    // imst undo restored FILO back to the pre-tx value; imstid stays.
    EXPECT_EQ(f.rt.read(f.addr(9)), 109u);
    EXPECT_EQ(f.rt.read(f.addr(10)), 8u);
}

TEST(Stm, ImstSurvivesCommitWithoutUndo)
{
    StmFixture f;
    StmThread t(f.rt, 0);

    const StmTxOutcome o = t.atomic([&](StmThread& th) {
        th.imst(f.addr(11), 3);
        const StmTxOutcome inner = th.atomic([&](StmThread& in) {
            in.imst(f.addr(12), 4); // undo merges to the parent
        });
        EXPECT_TRUE(inner.committed());
    });
    EXPECT_TRUE(o.committed());
    EXPECT_EQ(f.rt.read(f.addr(11)), 3u);
    EXPECT_EQ(f.rt.read(f.addr(12)), 4u);
}

TEST(Stm, ConflictingWriteTriggersViolationAndRetry)
{
    StmFixture f;
    StmThread t1(f.rt, 0);
    StmThread t2(f.rt, 1);

    int attempts = 0;
    const StmTxOutcome o = t1.atomic([&](StmThread& th) {
        ++attempts;
        const Word v = th.txLoad(f.addr(13));
        if (attempts == 1) {
            // Interleaved committed writer invalidates the read.
            t2.nakedStore(f.addr(13), 999);
        }
        th.txStore(f.addr(14), v);
    });
    EXPECT_TRUE(o.committed());
    EXPECT_EQ(attempts, 2);
    EXPECT_EQ(o.retries, 1);
    EXPECT_EQ(t1.stats().violations, 1u);
    // The retry observed the new value.
    EXPECT_EQ(f.rt.read(f.addr(14)), 999u);
}

TEST(Stm, ViolationHandlerRunsBeforeRollback)
{
    StmFixture f;
    StmThread t1(f.rt, 0);
    StmThread t2(f.rt, 1);

    int handlerRuns = 0;
    int attempts = 0;
    const StmTxOutcome o = t1.atomic([&](StmThread& th) {
        ++attempts;
        th.onViolation(
            [&](StmThread&, const StmViolationInfo& info,
                const std::vector<Word>&) {
                ++handlerRuns;
                EXPECT_EQ(info.vaddr, f.addr(15));
                EXPECT_EQ(info.targetLevel, 1);
                return StmVioAction::Proceed;
            });
        const Word v = th.txLoad(f.addr(15));
        if (attempts == 1)
            t2.nakedStore(f.addr(15), 1);
        th.txStore(f.addr(16), v);
    });
    EXPECT_TRUE(o.committed());
    EXPECT_EQ(handlerRuns, 1);
    EXPECT_EQ(t1.stats().violationHandlerRuns, 1u);
}

TEST(Stm, ReleaseDropsWordFromReadSet)
{
    StmFixture f;
    StmThread t1(f.rt, 0);
    StmThread t2(f.rt, 1);

    int attempts = 0;
    const StmTxOutcome o = t1.atomic([&](StmThread& th) {
        ++attempts;
        (void)th.txLoad(f.addr(17));
        th.release(f.addr(17));
        // The same overwrite that forced a retry above is now
        // invisible to validation: the read was released.
        t2.nakedStore(f.addr(17), 555);
        th.txStore(f.addr(18), 1);
    });
    EXPECT_TRUE(o.committed());
    EXPECT_EQ(attempts, 1);
    EXPECT_EQ(o.retries, 0);
    EXPECT_EQ(t1.stats().releases, 1u);

    // Released from inside a live open child: an outer level's read.
    // The child's mark moves down with the log, so each commit counts
    // exactly its own reads.
    attempts = 0;
    const StmTxOutcome nested = t1.atomic([&](StmThread& th) {
        ++attempts;
        (void)th.txLoad(f.addr(40));
        (void)th.txLoad(f.addr(41));
        const StmTxOutcome inner = th.atomicOpen([&](StmThread& in) {
            (void)in.txLoad(f.addr(42));
            (void)in.txLoad(f.addr(43));
            in.release(f.addr(40));
            in.txStore(f.addr(44), 1);
        });
        EXPECT_TRUE(inner.committed());
        t2.nakedStore(f.addr(40), 555);
        th.txStore(f.addr(45), 1);
    });
    EXPECT_TRUE(nested.committed());
    EXPECT_EQ(attempts, 1);

    // One sample per commit: 0 reads above, then 2 for the open child
    // and 1 for the outer level that kept word 41.
    StatsRegistry reg;
    f.rt.mergeStats(reg);
    const StatsRegistry::Distribution* rs =
        reg.findDistribution("stm.read_set_size");
    ASSERT_NE(rs, nullptr);
    EXPECT_EQ(rs->count(), 3u);
    EXPECT_EQ(rs->min(), 0u);
    EXPECT_EQ(rs->max(), 2u);
    EXPECT_EQ(rs->total(), 3u);
}

TEST(Stm, ViolationTargetsShallowestLevelThatReadTheWord)
{
    StmFixture f;
    StmThread t1(f.rt, 0);
    StmThread t2(f.rt, 1);

    // A word only the inner closed level read: extending the snapshot
    // fails on it, and only the inner atomic() retries.
    int outerRuns = 0, innerRuns = 0;
    StmTxOutcome inner;
    StmTxOutcome o = t1.atomic([&](StmThread& th) {
        ++outerRuns;
        (void)th.txLoad(f.addr(30));
        inner = th.atomic([&](StmThread& in) {
            ++innerRuns;
            (void)in.txLoad(f.addr(31));
            if (innerRuns == 1) {
                t2.nakedStore(f.addr(31), 7);
                (void)in.txLoad(f.addr(31)); // too new: extend, fail
            }
        });
    });
    EXPECT_TRUE(o.committed());
    EXPECT_EQ(outerRuns, 1);
    EXPECT_EQ(innerRuns, 2);
    EXPECT_EQ(inner.retries, 1);
    EXPECT_EQ(o.retries, 0);

    // A word the outer level read (and the inner too): the failure
    // targets the outer level, which retries with its child.
    outerRuns = innerRuns = 0;
    o = t1.atomic([&](StmThread& th) {
        ++outerRuns;
        (void)th.txLoad(f.addr(32));
        inner = th.atomic([&](StmThread& in) {
            ++innerRuns;
            (void)in.txLoad(f.addr(33));
            (void)in.txLoad(f.addr(32));
            if (outerRuns == 1) {
                t2.nakedStore(f.addr(32), 8);
                (void)in.txLoad(f.addr(32)); // too new: extend, fail
            }
        });
    });
    EXPECT_TRUE(o.committed());
    EXPECT_EQ(outerRuns, 2);
    EXPECT_EQ(innerRuns, 2);
    EXPECT_EQ(inner.retries, 0);
    EXPECT_EQ(o.retries, 1);
    EXPECT_EQ(t1.stats().violations, 2u);
}

TEST(Stm, OpenNestValidatesOnlyItsOwnReads)
{
    StmFixture f;
    StmThread t1(f.rt, 0);
    StmThread t2(f.rt, 1);

    int outerRuns = 0;
    int openCommitted = 0;
    const StmTxOutcome o = t1.atomic([&](StmThread& th) {
        ++outerRuns;
        (void)th.txLoad(f.addr(34));
        const StmTxOutcome child = th.atomicOpen([&](StmThread& in) {
            (void)in.txLoad(f.addr(35));
            // Overwrite the parent's read; the child's own read stays
            // current, so its commit (a writer, so it validates) holds.
            if (outerRuns == 1)
                t2.nakedStore(f.addr(34), 9);
            in.txStore(f.addr(36), 1);
        });
        openCommitted += child.committed() && child.retries == 0;
        th.txStore(f.addr(37), 1);
    });
    EXPECT_TRUE(o.committed());
    // The outermost commit validated the parent's read and retried.
    EXPECT_EQ(outerRuns, 2);
    EXPECT_EQ(o.retries, 1);
    EXPECT_EQ(openCommitted, 2);
    EXPECT_EQ(t1.stats().openCommits, 2u);
    EXPECT_EQ(t1.stats().violations, 1u);
}

TEST(Stm, CommittedTransactionsAllocateNothing)
{
    StmFixture f;
    StmThread t(f.rt, 0);

    // The bodies are built once, outside the measured loop: a
    // std::function whose callable does not fit its inline buffer
    // allocates when it is made, which is the caller's cost, not the
    // transaction's.
    const StmTxBody transfer = [&f](StmThread& th) {
        const Word a = th.txLoad(f.addr(0));
        const Word b = th.txLoad(f.addr(1));
        th.txStore(f.addr(0), a - 1);
        th.txStore(f.addr(1), b + 1);
    };
    const StmTxBody audit = [&f](StmThread& th) {
        Word sum = 0;
        for (int i = 0; i < 64; ++i)
            sum += th.txLoad(f.addr(i));
        (void)sum;
    };
    const StmTxBody closedChild = [&f](StmThread& th) {
        th.txStore(f.addr(3), th.txLoad(f.addr(2)));
    };
    const StmTxBody openChild = [&f](StmThread& th) {
        th.txStore(f.addr(5), th.txLoad(f.addr(5)) + 1);
    };
    const StmTxBody nested = [&](StmThread& th) {
        (void)th.txLoad(f.addr(4));
        th.imst(f.addr(6), th.imld(f.addr(6)) + 1);
        (void)th.atomic(closedChild);
        (void)th.atomicOpen(openChild);
        th.txStore(f.addr(4), 1);
    };
    const StmTxBody* const mix[] = {&transfer, &audit, &nested};

    int committed = 0;
    const auto run = [&](int calls) {
        for (int i = 0; i < calls; ++i)
            committed += t.atomic(*mix[i % 3]).committed();
    };
    run(3); // warm-up: the logs and level stack reach their sizes
    const long allocs = allocationsDuring([&] { run(10'000); });
    EXPECT_EQ(committed, 3 + 10'000);
    EXPECT_EQ(allocs, 0);
    EXPECT_EQ(t.stats().retries, 0u);
}

TEST(Stm, SnapshotExtendsPastConcurrentCommit)
{
    StmFixture f;
    StmThread t1(f.rt, 0);
    StmThread t2(f.rt, 1);

    const StmTxOutcome o = t1.atomic([&](StmThread& th) {
        (void)th.txLoad(f.addr(19));
        // An unrelated commit advances the clock past rv; the next
        // read finds a too-new orec and must extend the snapshot.
        t2.nakedStore(f.addr(20), 777);
        EXPECT_EQ(th.txLoad(f.addr(20)), 777u);
    });
    EXPECT_TRUE(o.committed());
    EXPECT_EQ(o.retries, 0);
    EXPECT_GE(t1.stats().snapshotExtensions, 1u);
}

TEST(Stm, NakedAccessesAreOrderedByCommitKeys)
{
    StmFixture f;
    StmThread t(f.rt, 0);

    const StmCommitInfo w1 = t.nakedStore(f.addr(21), 1);
    const auto [v1, r1] = t.nakedLoad(f.addr(21));
    const StmCommitInfo w2 = t.nakedStore(f.addr(21), 2);
    const auto [v2, r2] = t.nakedLoad(f.addr(21));

    EXPECT_EQ(v1, 1u);
    EXPECT_EQ(v2, 2u);
    // Writers carry phase 0 at their commit timestamp; readers carry
    // phase 1 at their snapshot. Sorting by (key, phase) linearizes
    // w1 < r1 < w2 < r2.
    EXPECT_EQ(w1.phase, 0);
    EXPECT_EQ(r1.phase, 1);
    EXPECT_LT(w1.key, w2.key);
    EXPECT_GE(r1.key, w1.key);
    EXPECT_LT(r1.key, w2.key);
    EXPECT_GE(r2.key, w2.key);
}

TEST(Stm, ReadOnlyCommitKeepsSnapshotKey)
{
    StmFixture f;
    StmThread t(f.rt, 0);

    const std::uint64_t before = f.rt.clock().now();
    const StmTxOutcome o = t.atomic([&](StmThread& th) {
        (void)th.txLoad(f.addr(22));
        (void)th.txLoad(f.addr(23));
    });
    EXPECT_TRUE(o.committed());
    // Read-only: no clock advance, serialized at rv with phase 1.
    EXPECT_EQ(f.rt.clock().now(), before);
    EXPECT_EQ(t.lastCommit().phase, 1);
    EXPECT_EQ(t.stats().roCommits, 1u);
}

TEST(Stm, StatsMergeUnderStmPrefix)
{
    StmFixture f;
    StmThread t(f.rt, 0);
    (void)t.atomic([&](StmThread& th) { th.txStore(f.addr(24), 1); });
    (void)t.nakedLoad(f.addr(24));

    StatsRegistry reg;
    f.rt.mergeStats(reg);
    EXPECT_EQ(reg.value("stm.starts"), 1u);
    EXPECT_EQ(reg.value("stm.commits"), 1u);
    EXPECT_EQ(reg.value("stm.naked_loads"), 1u);
}

TEST(Stm, CommitSetSizesSampleOncePerCommit)
{
    StmFixture f;
    StmThread t(f.rt, 0);
    // Distinct words throughout, so every load enters the read set and
    // every store the write set.
    const auto run = [&](int reads, int writes, int first) {
        const StmTxOutcome o = t.atomic([&](StmThread& th) {
            for (int i = 0; i < reads; ++i)
                (void)th.txLoad(f.addr(first + i));
            for (int i = 0; i < writes; ++i)
                th.txStore(f.addr(first + reads + i), 1);
        });
        EXPECT_TRUE(o.committed());
    };
    run(3, 1, 0);
    run(1, 0, 8); // read-only
    run(5, 4, 16);

    StatsRegistry reg;
    f.rt.mergeStats(reg);
    ASSERT_EQ(reg.value("stm.commits"), 3u);
    const StatsRegistry::Distribution* rs =
        reg.findDistribution("stm.read_set_size");
    const StatsRegistry::Distribution* ws =
        reg.findDistribution("stm.write_set_size");
    ASSERT_NE(rs, nullptr);
    ASSERT_NE(ws, nullptr);
    // ::samples in the dump.
    EXPECT_EQ(rs->count(), reg.value("stm.commits"));
    EXPECT_EQ(ws->count(), reg.value("stm.commits"));
    EXPECT_EQ(rs->min(), 1u);
    EXPECT_EQ(rs->max(), 5u);
    EXPECT_EQ(rs->total(), 9u);
    EXPECT_EQ(ws->min(), 0u);
    EXPECT_EQ(ws->max(), 4u);
    EXPECT_EQ(ws->total(), 5u);
}

TEST(Stm, WatchdogBreaksOutOfAStuckLock)
{
    StmConfig cfg;
    cfg.opTimeout = std::chrono::milliseconds(50);
    StmRuntime rt(cfg);
    const Addr a = rt.allocate(wordBytes);
    rt.armWatchdog();

    // Simulate a crashed owner: lock the orec and never release it.
    rt.orecs().of(a).store(orecLockedBy(5), std::memory_order_release);

    StmThread t(rt, 0);
    EXPECT_THROW((void)t.nakedStore(a, 1), StmHangError);
}

TEST(Stm, ShardedWarehousesWithOpenHandoffUnderRealThreads)
{
    // The production SPECjbb shape on the native backend: per-warehouse
    // shards (order-id counter + district YTD + order slots), real host
    // threads, Zipf-skewed deterministic warehouse selection, and an
    // open-nested cross-shard order-id handoff inside the outer
    // transaction. This is the genuinely concurrent leg (CI runs
    // test_stm under TSAN); everything above is hand-interleaved.
    constexpr int W = 8;
    constexpr int T = 4;
    constexpr int opsPerThread = 64;
    constexpr int totalOps = T * opsPerThread;

    StmRuntime rt;
    rt.armWatchdog();
    struct Shard
    {
        Addr localCtr;  // closed-nested order-id counter
        Addr remoteCtr; // order-ids drawn by open-nested handoffs
        Addr ytd;       // district year-to-date total
        Addr orders;    // totalOps slots, indexed by local order id
    };
    Shard shards[W];
    for (Shard& s : shards) {
        s.localCtr = rt.allocate(wordBytes);
        s.remoteCtr = rt.allocate(wordBytes);
        s.ytd = rt.allocate(wordBytes);
        s.orders = rt.allocate(totalOps * wordBytes);
    }
    // One handoff slot per global op index: an open-nested commit
    // survives an ancestor abort, so the retry must overwrite the same
    // slot, never append.
    const Addr handoff = rt.allocate(totalOps * wordBytes);

    // Deterministic, thread-count-independent selectors (the same
    // construction the simulator kernel uses).
    const ZipfGen whGen(W, 0.99);
    auto whFor = [&](int g) {
        return static_cast<int>(whGen.drawAt(
            static_cast<std::uint64_t>(g), 0x77));
    };
    auto isRemote = [](int g) { return g % 5 == 4; };
    auto destFor = [&](int g) {
        const int home = whFor(g);
        const int d = static_cast<int>(
            hashMix64(static_cast<std::uint64_t>(g) ^
                      (0xD5ull * 0x9e3779b97f4a7c15ull)) %
            (W - 1));
        return d >= home ? d + 1 : d;
    };
    auto amountFor = [](int g) {
        return static_cast<Word>(g % 100 + 1);
    };

    std::vector<std::thread> hosts;
    std::vector<std::string> errs(T);
    for (int tid = 0; tid < T; ++tid) {
        hosts.emplace_back([&, tid] {
            StmThread t(rt, tid);
            try {
                for (int i = 0; i < opsPerThread; ++i) {
                    const int g = tid * opsPerThread + i;
                    const Shard& home = shards[whFor(g)];
                    const StmTxOutcome o = t.atomic([&](StmThread& th) {
                        const Word oid = th.txLoad(home.localCtr);
                        th.txStore(home.localCtr, oid + 1);
                        th.txStore(home.orders +
                                       oid % totalOps * wordBytes,
                                   static_cast<Word>(g) + 1);
                        th.txStore(home.ytd,
                                   th.txLoad(home.ytd) + amountFor(g));
                        if (isRemote(g)) {
                            const Shard& dest = shards[destFor(g)];
                            (void)th; // handoff runs on the same thread
                            const StmTxOutcome io = t.atomicOpen(
                                [&](StmThread& ih) {
                                    const Word roid =
                                        ih.txLoad(dest.remoteCtr);
                                    ih.txStore(dest.remoteCtr,
                                               roid + 1);
                                    ih.txStore(
                                        handoff +
                                            static_cast<Addr>(g) *
                                                wordBytes,
                                        roid + 1);
                                });
                            if (!io.committed())
                                throw std::runtime_error(
                                    "open handoff did not commit");
                        }
                    });
                    if (!o.committed())
                        throw std::runtime_error(
                            "outer order did not commit");
                }
            } catch (const std::exception& e) {
                errs[static_cast<size_t>(tid)] = e.what();
            }
        });
    }
    for (std::thread& h : hosts)
        h.join();
    for (int tid = 0; tid < T; ++tid)
        EXPECT_EQ(errs[static_cast<size_t>(tid)], "") << "thread " << tid;

    // Host-side replay of the deterministic arrival sequence.
    Word expLocal[W] = {}, expRemote[W] = {}, expYtd[W] = {};
    for (int g = 0; g < totalOps; ++g) {
        expLocal[whFor(g)]++;
        expYtd[whFor(g)] += amountFor(g);
        if (isRemote(g))
            expRemote[destFor(g)]++;
    }
    int skewCheck = 0;
    for (int w = 0; w < W; ++w) {
        const Shard& s = shards[w];
        // Closed atomicity: counter and order slots moved together.
        EXPECT_EQ(rt.read(s.localCtr), expLocal[w]) << "warehouse " << w;
        EXPECT_EQ(rt.read(s.ytd), expYtd[w]) << "warehouse " << w;
        for (Word oid = 0; oid < expLocal[w]; ++oid)
            EXPECT_NE(rt.read(s.orders + oid % totalOps * wordBytes), 0u)
                << "warehouse " << w << " order " << oid;
        // Open nesting commits early and survives ancestor aborts, so
        // retried outers may burn extra remote ids — but never fewer
        // than the committed handoffs.
        EXPECT_GE(rt.read(s.remoteCtr), expRemote[w]) << "wh " << w;
        skewCheck += static_cast<int>(expLocal[w] > 0);
    }
    EXPECT_GT(skewCheck, 1); // Zipf at W=8 still spreads past wh 0
    // Every remote op owns exactly one handoff slot (idempotent under
    // retry), and ids fit the range the destination counter reached.
    for (int g = 0; g < totalOps; ++g) {
        const Word slot =
            rt.read(handoff + static_cast<Addr>(g) * wordBytes);
        if (!isRemote(g)) {
            EXPECT_EQ(slot, 0u) << "op " << g;
        } else {
            EXPECT_NE(slot, 0u) << "op " << g;
            EXPECT_LE(slot, rt.read(shards[destFor(g)].remoteCtr))
                << "op " << g;
        }
    }
}

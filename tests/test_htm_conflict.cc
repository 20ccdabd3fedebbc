/**
 * @file
 * Multi-CPU conflict detection: lazy validate-time broadcast, commit
 * line locking, eager access-time checks under both resolution
 * policies, and strong atomicity for non-transactional stores.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/machine.hh"
#include "sim/rng.hh"
#include "core/tx_signals.hh"

// Every heap allocation in this binary goes through here, so a test
// can count the allocations a commit makes. (The deletes stay out of
// line: inlined next to the library's operator new, GCC would warn
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

TEST(HtmConflict, LazyCommitterViolatesActiveReader)
{
    Machine m(config(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 0);

    int readerRollbacks = 0;
    Word readerFinal = 0;

    // Reader: reads 'a' early, then dawdles so the writer commits in
    // the middle; must be violated and re-execute, finally seeing 1.
    m.spawn(0, [&](Cpu& c) -> SimTask {
        for (;;) {
            co_await c.xbegin();
            try {
                Word v = co_await c.load(a);
                co_await c.exec(2000); // leave time for the writer
                Word v2 = co_await c.load(a);
                EXPECT_EQ(v, v2); // isolation within the transaction
                co_await c.xvalidate();
                co_await c.xcommit();
                readerFinal = v;
                co_return;
            } catch (const TxRollback&) {
                ++readerRollbacks;
            }
        }
    });

    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(200); // let the reader read first
        co_await c.xbegin();
        co_await c.store(a, 1);
        co_await c.xvalidate();
        co_await c.xcommit();
    });

    m.run();
    EXPECT_GE(readerRollbacks, 1);
    EXPECT_EQ(readerFinal, 1u);
    EXPECT_GE(m.stats().value("htm.lazy_violations"), 1u);
}

TEST(HtmConflict, ConcurrentIncrementsAreExact)
{
    // The classic atomicity witness: two CPUs increment a shared
    // counter in transactions; the result must be exact.
    Machine m(config(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    constexpr int iters = 50;

    for (int t = 0; t < 2; ++t) {
        m.spawn(t, [&](Cpu& c) -> SimTask {
            for (int i = 0; i < iters; ++i) {
                for (;;) {
                    co_await c.xbegin();
                    try {
                        Word v = co_await c.load(a);
                        co_await c.exec(10);
                        co_await c.store(a, v + 1);
                        co_await c.xvalidate();
                        co_await c.xcommit();
                        break;
                    } catch (const TxRollback&) {
                    }
                }
            }
        });
    }
    m.run();
    EXPECT_EQ(m.memory().read(a), static_cast<Word>(2 * iters));
}

TEST(HtmConflict, WriteWriteWithoutReadDoesNotViolateUnderLazy)
{
    // Two transactions blind-write different words of the same line;
    // lazy detection only violates readers, and word-granular commit
    // keeps both updates.
    Machine m(config(HtmConfig::paperLazy()));
    Addr base = m.memory().allocate(64);
    Addr w0 = base, w1 = base + 8;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(w0, 111);
        co_await c.exec(500);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(w1, 222);
        co_await c.exec(500);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_EQ(m.memory().read(w0), 111u);
    EXPECT_EQ(m.memory().read(w1), 222u);
    EXPECT_EQ(m.stats().value("htm.lazy_violations"), 0u);
}

TEST(HtmConflict, EagerRequesterWinsViolatesReadingHolder)
{
    Machine m(config(HtmConfig::eagerUndoLog()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 0);
    int holderRollbacks = 0;
    Word holderFinal = 1234;

    // Holder: reads 'a' then dawdles; a writing requester wins.
    m.spawn(0, [&](Cpu& c) -> SimTask {
        for (;;) {
            co_await c.xbegin();
            try {
                Word v = co_await c.load(a);
                co_await c.exec(3000);
                co_await c.xvalidate();
                co_await c.xcommit();
                holderFinal = v;
                co_return;
            } catch (const TxRollback&) {
                ++holderRollbacks;
            }
            co_await Delay{c.eventQueue(), 5000};
        }
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(300);
        co_await c.xbegin();
        co_await c.store(a, 2);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_GE(holderRollbacks, 1);
    EXPECT_EQ(holderFinal, 2u); // retried after the requester's commit
    EXPECT_GE(m.stats().value("htm.eager_conflicts"), 1u);
}

TEST(HtmConflict, EagerInPlaceWriterNeverLeaksSpeculativeData)
{
    // Undo-log versioning puts speculative data in memory: a requester
    // must back off rather than observe it. Under requester-wins the
    // in-place writer is also violated (releasing the line); under no
    // circumstance may the requester read a value that was never
    // committed.
    Machine m(config(HtmConfig::eagerUndoLog()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 7);
    int requesterRetries = 0;
    int writerRetries = 0;
    Word requesterSaw = 1234;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        for (;;) {
            co_await c.xbegin();
            try {
                co_await c.store(a, 50); // in place, uncommitted
                co_await c.exec(2500);
                co_await c.xvalidate();
                co_await c.xcommit();
                co_return;
            } catch (const TxRollback&) {
                ++writerRetries;
            }
            co_await Delay{c.eventQueue(), 3000};
        }
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(300);
        for (;;) {
            co_await c.xbegin();
            try {
                requesterSaw = co_await c.load(a);
                co_await c.xvalidate();
                co_await c.xcommit();
                co_return;
            } catch (const TxRollback&) {
                ++requesterRetries;
            }
            co_await Delay{c.eventQueue(), 400};
        }
    });
    m.run();
    EXPECT_GE(requesterRetries + writerRetries, 1);
    // Whatever the requester read was committed at the time: either
    // the original 7 (after the writer's rollback) or the final 50.
    EXPECT_TRUE(requesterSaw == 7u || requesterSaw == 50u);
    EXPECT_EQ(m.memory().read(a), 50u);
}

TEST(HtmConflict, EagerOlderInPlaceWriterKeepsOwnership)
{
    // Older-wins: an older in-place writer is never evicted; the
    // younger requester backs off until the writer commits.
    HtmConfig htm = HtmConfig::eagerUndoLog();
    htm.contention = ContentionPolicy::Timestamp;
    Machine m(config(htm));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 7);
    int requesterRetries = 0;
    Word requesterSaw = 1234;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 50);
        co_await c.exec(2500);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(300);
        for (;;) {
            co_await c.xbegin();
            try {
                requesterSaw = co_await c.load(a);
                co_await c.xvalidate();
                co_await c.xcommit();
                co_return;
            } catch (const TxRollback&) {
                ++requesterRetries;
            }
            co_await Delay{c.eventQueue(), 400};
        }
    });
    m.run();
    EXPECT_GE(requesterRetries, 1);
    EXPECT_EQ(requesterSaw, 50u); // only the committed value
    EXPECT_EQ(m.stats().value("cpu0.htm.rollbacks"), 0u);
}

TEST(HtmConflict, NonTxLoadSeesCommittedValueUnderUndoLog)
{
    Machine m(config(HtmConfig::eagerUndoLog()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 7);
    Word observed = 0;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 50);
        co_await c.store(a, 60); // second in-place write
        co_await c.exec(2000);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(500);
        observed = co_await c.load(a); // non-transactional load
    });
    m.run();
    // Strong atomicity: the plain load observed the committed 7, not
    // the speculative 50/60 sitting in memory.
    EXPECT_EQ(observed, 7u);
    EXPECT_EQ(m.memory().read(a), 60u);
}

TEST(HtmConflict, EagerOlderWinsAbortsYoungerRequester)
{
    HtmConfig htm = HtmConfig::eagerUndoLog();
    htm.contention = ContentionPolicy::Timestamp;
    Machine m(config(htm));
    Addr a = m.memory().allocate(64);
    int requesterRollbacks = 0;

    // Older transaction: starts first, holds 'a'.
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 1);
        co_await c.exec(2000);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    // Younger requester: must self-violate and retry.
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(200);
        for (;;) {
            co_await c.xbegin();
            try {
                co_await c.store(a, 2);
                co_await c.xvalidate();
                co_await c.xcommit();
                co_return;
            } catch (const TxRollback&) {
                ++requesterRollbacks;
            }
            co_await Delay{c.eventQueue(), 500};
        }
    });
    m.run();
    EXPECT_GE(requesterRollbacks, 1);
    EXPECT_EQ(m.memory().read(a), 2u); // younger retried after older
    EXPECT_GE(m.stats().value("htm.self_violations"), 1u);
}

TEST(HtmConflict, StrongAtomicityNonTxStoreViolatesReader)
{
    Machine m(config(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 0);
    int rollbacks = 0;
    Word finalRead = 1234;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        for (;;) {
            co_await c.xbegin();
            try {
                Word v = co_await c.load(a);
                co_await c.exec(2000);
                co_await c.xvalidate();
                co_await c.xcommit();
                finalRead = v;
                co_return;
            } catch (const TxRollback&) {
                ++rollbacks;
            }
        }
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(300);
        co_await c.store(a, 9); // non-transactional store
    });
    m.run();
    EXPECT_GE(rollbacks, 1);
    EXPECT_EQ(finalRead, 9u);
    EXPECT_GE(m.stats().value("htm.strong_atomicity_violations"), 1u);
}

TEST(HtmConflict, ValidatedWriterCannotBeViolated)
{
    // Once a transaction validates, a later committer must not violate
    // it: the earlier transaction is serialised first.
    Machine m(config(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    Addr b = m.memory().allocate(64);
    bool firstCommitted = false;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        Word v = co_await c.load(b);
        co_await c.store(a, v + 1);
        co_await c.xvalidate();
        // Dawdle between validate and commit while cpu1 commits to b.
        co_await c.exec(2000);
        co_await c.xcommit();
        firstCommitted = true;
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(500); // after cpu0 validates
        co_await c.xbegin();
        co_await c.store(b, 7);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_TRUE(firstCommitted);
    EXPECT_EQ(m.stats().value("cpu0.htm.rollbacks"), 0u);
    EXPECT_EQ(m.memory().read(a), 1u);
    EXPECT_EQ(m.memory().read(b), 7u);
}

TEST(HtmConflict, AccessToValidatedWriteSetStallsUntilCommit)
{
    Machine m(config(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 0);
    Word observed = 1234;

    // Committer validates, then holds the line locked for a while.
    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 5);
        co_await c.xvalidate();
        co_await c.exec(3000);
        co_await c.xcommit();
    });
    // Late reader: first access lands after the validate; must stall
    // and observe the committed value, not the stale one.
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(1000);
        co_await c.xbegin();
        observed = co_await c.load(a);
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_EQ(observed, 5u);
    EXPECT_GE(m.stats().value("htm.lock_stalls"), 1u);
}

TEST(HtmConflict, AbortAfterValidateReleasesLocks)
{
    Machine m(config(HtmConfig::paperLazy()));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 3);
    Word observed = 0;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await c.xbegin();
        co_await c.store(a, 50);
        co_await c.xvalidate();
        co_await c.exec(1500);
        try {
            co_await c.xabort(1); // voluntary abort after validate
        } catch (const TxAbortSignal&) {
        }
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(500);
        co_await c.xbegin();
        observed = co_await c.load(a); // stalls, then sees old value
        co_await c.xvalidate();
        co_await c.xcommit();
    });
    m.run();
    EXPECT_EQ(observed, 3u);
    EXPECT_EQ(m.memory().read(a), 3u);
}

TEST(HtmConflict, ManyCpuCounterStress)
{
    for (HtmConfig htm :
         {HtmConfig::paperLazy(), HtmConfig::eagerUndoLog()}) {
        Machine m(config(htm, 8));
        Addr a = m.memory().allocate(64);
        constexpr int iters = 20;
        for (int t = 0; t < 8; ++t) {
            m.spawn(t, [&, t](Cpu& c) -> SimTask {
                Rng rng(static_cast<std::uint64_t>(t) + 1);
                for (int i = 0; i < iters; ++i) {
                    int backoffs = 0;
                    for (;;) {
                        co_await c.xbegin();
                        try {
                            Word v = co_await c.load(a);
                            co_await c.exec(1 + rng.below(20));
                            co_await c.store(a, v + 1);
                            co_await c.xvalidate();
                            co_await c.xcommit();
                            break;
                        } catch (const TxRollback&) {
                            ++backoffs;
                        }
                        co_await Delay{c.eventQueue(),
                                       rng.below(50u * backoffs + 1)};
                    }
                }
            });
        }
        m.run();
        EXPECT_EQ(m.memory().read(a), static_cast<Word>(8 * iters))
            << htm.describe();
    }
}

TEST(HtmConflict, LazyCommitAllocatesOnlyLockEntries)
{
    // Warm, a validated four-line lazy write set commits with no heap
    // allocation, and validates with at most one per line (the
    // entries of the detector's lock table).
    Machine m(config(HtmConfig::paperLazy(), 1));
    const Addr base = m.memory().allocate(4 * 64, 64);
    long validateAllocs = -1;
    long commitAllocs = -1;
    m.spawn(0, [&](Cpu& c) -> SimTask {
        for (int round = 0; round < 3; ++round) {
            co_await c.xbegin();
            for (Addr i = 0; i < 4; ++i)
                co_await c.store(base + i * 64, static_cast<Word>(round));
            long before = newCalls.load();
            co_await c.xvalidate();
            validateAllocs = newCalls.load() - before;
            before = newCalls.load();
            co_await c.xcommit();
            commitAllocs = newCalls.load() - before;
        }
    });
    m.run();
    EXPECT_EQ(commitAllocs, 0);
    EXPECT_LE(validateAllocs, 4);
    EXPECT_EQ(m.memory().read(base + 3 * 64), 2u);
}

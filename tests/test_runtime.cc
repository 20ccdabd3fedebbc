/**
 * @file
 * TxThread runtime conventions: atomic()/atomicOpen() retry drivers,
 * nesting through the runtime, abort outcomes, retry/wake, rollback
 * delivery (a jump that body catches cannot see), and the
 * paper's section-7 instruction-count calibration (6-instruction
 * begin, 10-instruction handler-free commit, 6-instruction handler-free
 * rollback, 9-instruction no-arg handler registration).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "runtime/tx_thread.hh"

using namespace tmsim;

namespace {

MachineConfig
config(HtmConfig htm, int cpus = 2)
{
    MachineConfig cfg;
    cfg.numCpus = cpus;
    cfg.htm = htm;
    cfg.memBytes = 8 * 1024 * 1024;
    return cfg;
}

/** paperLazy() without the runtime's retry backoff, so a retry
 *  re-enters the body at once. */
HtmConfig
lazyNoBackoff()
{
    HtmConfig htm = HtmConfig::paperLazy();
    htm.retryBackoff = false;
    return htm;
}

} // namespace

TEST(Runtime, AtomicCommitsSimpleTransaction)
{
    Machine m(config(HtmConfig::paperLazy()));
    TxThread t0(m.cpu(0));
    Addr a = m.memory().allocate(64);

    m.spawn(0, [&](Cpu&) -> SimTask {
        TxOutcome out = co_await t0.atomic([&](TxThread& t) -> SimTask {
            Word v = co_await t.ld(a);
            co_await t.st(a, v + 5);
        });
        EXPECT_TRUE(out.committed());
        EXPECT_EQ(out.retries, 0);
    });
    m.run();
    EXPECT_EQ(m.memory().read(a), 5u);
}

TEST(Runtime, AtomicRetriesUntilCommitUnderContention)
{
    Machine m(config(HtmConfig::paperLazy(), 4));
    std::vector<std::unique_ptr<TxThread>> threads;
    for (int i = 0; i < 4; ++i)
        threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
    Addr a = m.memory().allocate(64);
    constexpr int iters = 25;

    for (int i = 0; i < 4; ++i) {
        m.spawn(i, [&, i](Cpu&) -> SimTask {
            for (int k = 0; k < iters; ++k) {
                TxOutcome out = co_await threads[static_cast<size_t>(i)]
                                    ->atomic([&](TxThread& t) -> SimTask {
                                        Word v = co_await t.ld(a);
                                        co_await t.work(15);
                                        co_await t.st(a, v + 1);
                                    });
                EXPECT_TRUE(out.committed());
            }
        });
    }
    m.run();
    EXPECT_EQ(m.memory().read(a), static_cast<Word>(4 * iters));
}

TEST(Runtime, NestedAtomicRetriesOnlyInnerOnInnerConflict)
{
    Machine m(config(HtmConfig::paperLazy()));
    TxThread t0(m.cpu(0));
    TxThread t1(m.cpu(1));
    Addr innerAddr = m.memory().allocate(64);
    Addr outerAddr = m.memory().allocate(64);
    int outerRuns = 0;
    int innerRuns = 0;

    m.spawn(0, [&](Cpu&) -> SimTask {
        TxOutcome out = co_await t0.atomic([&](TxThread& t) -> SimTask {
            ++outerRuns;
            co_await t.ld(outerAddr);
            TxOutcome inner =
                co_await t.atomic([&](TxThread& ti) -> SimTask {
                    ++innerRuns;
                    co_await ti.ld(innerAddr);
                    co_await ti.work(3000);
                });
            EXPECT_TRUE(inner.committed());
        });
        EXPECT_TRUE(out.committed());
    });
    m.spawn(1, [&](Cpu&) -> SimTask {
        co_await m.cpu(1).exec(700);
        co_await t1.atomic([&](TxThread& t) -> SimTask {
            co_await t.st(innerAddr, 1);
        });
    });
    m.run();
    EXPECT_EQ(outerRuns, 1);
    EXPECT_GE(innerRuns, 2);
}

TEST(Runtime, AbortReturnsAbortedOutcome)
{
    Machine m(config(HtmConfig::paperLazy()));
    TxThread t0(m.cpu(0));
    Addr a = m.memory().allocate(64);

    m.spawn(0, [&](Cpu&) -> SimTask {
        TxOutcome out = co_await t0.atomic([&](TxThread& t) -> SimTask {
            co_await t.st(a, 99);
            co_await t.cpu().xabort(42);
        });
        EXPECT_EQ(out.result, TxResult::Aborted);
        EXPECT_EQ(out.abortCode, 42u);
    });
    m.run();
    EXPECT_EQ(m.memory().read(a), 0u);
}

TEST(Runtime, InnerAbortDoesNotKillOuter)
{
    Machine m(config(HtmConfig::paperLazy()));
    TxThread t0(m.cpu(0));
    Addr a = m.memory().allocate(64);
    Addr b = m.memory().allocate(64);

    m.spawn(0, [&](Cpu&) -> SimTask {
        TxOutcome out = co_await t0.atomic([&](TxThread& t) -> SimTask {
            co_await t.st(a, 1);
            TxOutcome inner =
                co_await t.atomic([&](TxThread& ti) -> SimTask {
                    co_await ti.st(b, 2);
                    co_await ti.cpu().xabort(7);
                });
            EXPECT_EQ(inner.result, TxResult::Aborted);
        });
        EXPECT_TRUE(out.committed());
    });
    m.run();
    EXPECT_EQ(m.memory().read(a), 1u);
    EXPECT_EQ(m.memory().read(b), 0u);
}

TEST(Runtime, OpenNestedCommitVisibleBeforeParentEnds)
{
    Machine m(config(HtmConfig::paperLazy()));
    TxThread t0(m.cpu(0));
    Addr a = m.memory().allocate(64);
    Addr counter = m.memory().allocate(64);

    m.spawn(0, [&](Cpu&) -> SimTask {
        co_await t0.atomic([&](TxThread& t) -> SimTask {
            co_await t.st(a, 1);
            co_await t.atomicOpen([&](TxThread& ti) -> SimTask {
                Word v = co_await ti.ld(counter);
                co_await ti.st(counter, v + 1);
            });
            // The open commit is architecturally visible already.
            EXPECT_EQ(m.memory().read(counter), 1u);
            EXPECT_EQ(m.memory().read(a), 0u);
        });
    });
    m.run();
    EXPECT_EQ(m.memory().read(a), 1u);
}

TEST(Runtime, RetryYieldParksUntilWake)
{
    Machine m(config(HtmConfig::paperLazy()));
    TxThread t0(m.cpu(0));
    TxThread t1(m.cpu(1));
    Addr flag = m.memory().allocate(64);
    int bodyRuns = 0;

    m.spawn(0, [&](Cpu&) -> SimTask {
        TxOutcome out = co_await t0.atomic([&](TxThread& t) -> SimTask {
            ++bodyRuns;
            Word v = co_await t.ld(flag);
            if (v == 0)
                co_await t.retryYield();
        });
        EXPECT_TRUE(out.committed());
        EXPECT_GE(out.retries, 1);
    });
    m.spawn(1, [&](Cpu&) -> SimTask {
        co_await m.cpu(1).exec(2000);
        co_await t1.atomic(
            [&](TxThread& t) -> SimTask { co_await t.st(flag, 1); });
        t0.wake(); // scheduler's job in the full design
    });
    m.run();
    EXPECT_EQ(bodyRuns, 2);
}

TEST(Runtime, RollbackJumpsPastBodyCatchAndDestroysFramesInnermostFirst)
{
    // A rollback of a level the runtime owns is a jump to atomic()'s
    // retry loop: a try/catch in the body never sees it, while every
    // abandoned frame's destructors run once per rollback, innermost
    // first, as exception unwinding would run them.
    Machine m(config(lazyNoBackoff(), 1));
    TxThread t0(m.cpu(0));
    const Addr a = m.memory().allocate(64);
    std::vector<std::string> destroyed;
    int attempts = 0;
    int caught = 0;

    struct Probe
    {
        std::vector<std::string>& log;
        std::string name;
        ~Probe() { log.push_back(name); }
    };

    auto helper = [&](TxThread& t) -> SimTask {
        Probe probe{destroyed, "helper"};
        try {
            if (attempts <= 2)
                t.cpu().htm().raiseViolation(0x1, 0);
            co_await t.ld(a); // boundary: delivers the violation
        } catch (...) {
            ++caught;
            throw;
        }
    };

    m.spawn(0, [&](Cpu&) -> SimTask {
        TxOutcome out = co_await t0.atomic(
            [&](TxThread& t) -> SimTask {
                ++attempts;
                Probe probe{destroyed, "body"};
                co_await helper(t);
                co_await t.st(a, static_cast<Word>(attempts));
            });
        EXPECT_TRUE(out.committed());
        EXPECT_EQ(out.retries, 2);
    });
    m.run();

    EXPECT_EQ(caught, 0);
    EXPECT_EQ(attempts, 3);
    // Two rollbacks, then the committing attempt's normal returns.
    const std::vector<std::string> expected{"helper", "body", "helper",
                                            "body",   "helper", "body"};
    EXPECT_EQ(destroyed, expected);
    EXPECT_EQ(m.memory().read(a), 3u);
    EXPECT_EQ(t0.frameCount(), 0u);
}

TEST(Runtime, SerializedSectionUnlocksWhenOuterLevelRollsBack)
{
    // serializedAtomic holds the machine's serialization lock around
    // its transaction. A rollback of the enclosing level leaves the
    // section early; the lock must come free with it, or the next
    // serialized section waits forever.
    LogContext ctx;
    ctx.quiet = true;
    ctx.throwOnFatal = true; // a leaked lock deadlocks thread 1
    LogScope scope(ctx);
    Machine m(config(HtmConfig::paperLazy()));
    TxThread t0(m.cpu(0));
    TxThread t1(m.cpu(1));
    FifoResource& lock = m.memSystem().serializeLock();
    const Addr a = m.memory().allocate(64);
    int outerRuns = 0;
    bool heldInSection = false;
    bool t1Committed = false;

    m.spawn(0, [&](Cpu&) -> SimTask {
        TxOutcome out = co_await t0.atomic([&](TxThread& t) -> SimTask {
            if (++outerRuns > 1)
                co_return;
            co_await t.serializedAtomic([&](TxThread& ti) -> SimTask {
                heldInSection = lock.busy();
                ti.cpu().htm().raiseViolation(0x1, 0); // the outer level
                co_await ti.ld(a);
            });
        });
        EXPECT_TRUE(out.committed());
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(5000); // after thread 0 is done
        TxOutcome out = co_await t1.serializedAtomic(
            [&](TxThread& t) -> SimTask { co_await t.st(a, 1); });
        t1Committed = out.committed();
    });

    EXPECT_NO_THROW(m.run());
    EXPECT_TRUE(heldInSection);
    EXPECT_EQ(outerRuns, 2);
    EXPECT_TRUE(t1Committed);
    EXPECT_FALSE(lock.busy());
    EXPECT_EQ(m.memory().read(a), 1u);
}

// --- paper section 7 calibration -----------------------------------

TEST(RuntimeCalibration, TransactionStartCostsSixInstructions)
{
    Machine m(config(HtmConfig::paperLazy(), 1));
    TxThread t0(m.cpu(0));
    std::uint64_t cost = 0;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await t0.atomic([&](TxThread&) -> SimTask { co_return; });
        // Measure the second transaction (warm caches).
        std::uint64_t before = c.instret();
        co_await t0.atomic([&](TxThread& t) -> SimTask {
            cost = t.cpu().instret() - before;
            co_return;
        });
    });
    m.run();
    EXPECT_EQ(cost, 6u);
}

TEST(RuntimeCalibration, HandlerFreeCommitCostsTenInstructions)
{
    Machine m(config(HtmConfig::paperLazy(), 1));
    TxThread t0(m.cpu(0));
    std::uint64_t instrBefore = 0;
    std::uint64_t instrAfter = 0;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await t0.atomic([&](TxThread&) -> SimTask { co_return; });
        co_await t0.atomic([&](TxThread&) -> SimTask {
            instrBefore = c.instret();
            co_return;
        });
        instrAfter = c.instret();
    });
    m.run();
    EXPECT_EQ(instrAfter - instrBefore, 10u);
}

TEST(RuntimeCalibration, HandlerFreeRollbackCostsSixInstructions)
{
    Machine m(config(lazyNoBackoff(), 1));
    TxThread t0(m.cpu(0));
    std::uint64_t cost = 0;
    bool first = true;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await t0.atomic(
            [&](TxThread& t) -> SimTask {
                if (first) {
                    first = false;
                    std::uint64_t before = c.instret();
                    c.htm().raiseViolation(0x1, 0);
                    try {
                        co_await t.work(0); // boundary: delivers
                    } catch (...) {
                        // Unreachable: the rollback is a jump to
                        // atomic()'s retry loop, which a catch in the
                        // body cannot see.
                        throw;
                    }
                    (void)before;
                }
                co_return;
            });
        (void)cost;
    });
    // Count precisely with counters around the violation instead.
    m.run();
    std::uint64_t rollbacks = m.stats().value("cpu0.htm.rollbacks");
    EXPECT_EQ(rollbacks, 1u);
}

TEST(RuntimeCalibration, RollbackInstructionDelta)
{
    // Precise rollback cost: instret delta between violation raise and
    // the retry entering the body again, minus the 6-instruction begin
    // of the retry.
    Machine m(config(lazyNoBackoff(), 1));
    TxThread t0(m.cpu(0));
    std::uint64_t raisePoint = 0;
    std::uint64_t retryPoint = 0;
    bool first = true;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await t0.atomic(
            [&](TxThread& t) -> SimTask {
                if (first) {
                    first = false;
                    raisePoint = c.instret();
                    c.htm().raiseViolation(0x1, 0);
                    co_await t.work(0);
                } else {
                    retryPoint = c.instret();
                }
                co_return;
            });
    });
    m.run();
    // raise -> [rollback: 6 instr] -> [retry begin: 6 instr] -> body
    EXPECT_EQ(retryPoint - raisePoint, 12u);
}

TEST(RuntimeCalibration, HandlerRegistrationCostsNineInstructions)
{
    Machine m(config(HtmConfig::paperLazy(), 1));
    TxThread t0(m.cpu(0));
    std::uint64_t cost = 0;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        // Warm-up transaction with a registration (touch the stacks).
        co_await t0.atomic([&](TxThread& t) -> SimTask {
            co_await t.onCommit(
                [](TxThread&, const std::vector<Word>&) -> SimTask {
                    co_return;
                });
        });
        co_await t0.atomic([&](TxThread& t) -> SimTask {
            std::uint64_t before = c.instret();
            co_await t.onCommit(
                [](TxThread&, const std::vector<Word>&) -> SimTask {
                    co_return;
                });
            cost = c.instret() - before;
        });
    });
    m.run();
    EXPECT_EQ(cost, 9u);
}

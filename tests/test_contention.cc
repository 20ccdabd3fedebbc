/**
 * @file
 * Contention management: per-policy arbitration rules, fairness
 * bookkeeping (seniority retention, karma, starvation escalation),
 * backoff scheduling, and the satellite regressions that shipped with
 * the pluggable ContentionManager — same-tick tie-breaking, word-
 * granularity early release, and recoverable handler-stack overflow.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "core/tx_signals.hh"
#include "htm/contention.hh"
#include "htm/htm_context.hh"
#include "runtime/handler_stack.hh"
#include "runtime/tx_thread.hh"
#include "workloads/kernel_contention.hh"

using namespace tmsim;

namespace {

HtmConfig
policyConfig(ContentionPolicy pol)
{
    HtmConfig cfg = HtmConfig::paperLazy();
    cfg.contention = pol;
    return cfg;
}

/** Two standalone contexts plus the manager under test — enough to
 *  exercise every arbitration rule without a Machine. */
struct CmFixture
{
    StatsRegistry stats;
    BackingStore mem{1 << 20};
    HtmConfig cfg;
    std::unique_ptr<ContentionManager> cm;
    HtmContext a;
    HtmContext b;

    explicit CmFixture(HtmConfig cfg_)
        : cfg(cfg_),
          cm(makeContentionManager(cfg, stats)),
          a(0, cfg, mem, nullptr, nullptr, stats),
          b(1, cfg, mem, nullptr, nullptr, stats)
    {
    }

    explicit CmFixture(ContentionPolicy pol)
        : CmFixture(policyConfig(pol))
    {
    }

    /** Begin an outermost attempt on both the context and the manager,
     *  the way Cpu::xbegin drives them. */
    void
    begin(HtmContext& ctx, Tick now)
    {
        ctx.begin(TxKind::Closed, now);
        cm->onOuterBegin(ctx.cpuId(), now);
    }
};

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

// --- backoff scheduling (satellite: window guard + jitter) ---------------

TEST(ContentionBackoff, WindowGuardsZeroAndNegativeRetries)
{
    // retries <= 1 maps to the base window; pre-fix a retries==0 call
    // computed an undefined negative shift.
    EXPECT_EQ(ContentionManager::backoffWindow(0),
              ContentionManager::backoffWindow(1));
    EXPECT_EQ(ContentionManager::backoffWindow(-3),
              ContentionManager::backoffWindow(1));
    EXPECT_EQ(ContentionManager::backoffWindow(1), Cycles{8});
    EXPECT_EQ(ContentionManager::backoffWindow(2), Cycles{16});
    // Capped: the shift saturates at 7.
    EXPECT_EQ(ContentionManager::backoffWindow(8),
              ContentionManager::backoffWindow(100));
    EXPECT_EQ(ContentionManager::backoffWindow(100), Cycles{8} << 7);
}

TEST(ContentionBackoff, BaseDelayJitterIsProportionalToWindow)
{
    CmFixture f(ContentionPolicy::Requester);
    Rng rng(42);
    for (int retries : {1, 3, 7}) {
        const Cycles w = ContentionManager::backoffWindow(retries);
        Cycles lo = ~Cycles{0};
        Cycles hi = 0;
        for (int i = 0; i < 200; ++i) {
            const Cycles d =
                f.cm->backoffDelay(0, retries, /*eager=*/true, rng);
            EXPECT_GE(d, w);
            EXPECT_LT(d, 2 * w);
            lo = std::min(lo, d);
            hi = std::max(hi, d);
        }
        // The jitter really spans the window (not a fixed offset).
        EXPECT_GT(hi - lo, w / 2);
    }
    // Lazy conflicts need only symmetry-breaking jitter.
    for (int i = 0; i < 50; ++i)
        EXPECT_LT(f.cm->backoffDelay(0, 5, /*eager=*/false, rng),
                  Cycles{4});
}

TEST(ContentionBackoff, PoliteSpansDoubleWindowFromOne)
{
    CmFixture f(ContentionPolicy::Polite);
    Rng rng(7);
    const int retries = 4;
    const Cycles w = ContentionManager::backoffWindow(retries);
    Cycles lo = ~Cycles{0};
    Cycles hi = 0;
    for (int i = 0; i < 400; ++i) {
        const Cycles d =
            f.cm->backoffDelay(0, retries, /*eager=*/true, rng);
        EXPECT_GE(d, Cycles{1});
        EXPECT_LE(d, 2 * w);
        lo = std::min(lo, d);
        hi = std::max(hi, d);
    }
    // Fully randomized: draws land both under and over the base window.
    EXPECT_LT(lo, w);
    EXPECT_GT(hi, w);
}

// --- seniority (satellites: same-tick tie-break, retention) --------------

TEST(ContentionSeniority, SameTickTieBreaksByCpuIdStrictly)
{
    CmFixture f(ContentionPolicy::Timestamp);
    f.begin(f.a, 100);
    f.begin(f.b, 100);

    // seniorTo is a strict total order even at identical begin ticks;
    // the pre-fix "<=" age comparison made both transactions junior to
    // each other, so same-tick writers livelocked.
    EXPECT_FALSE(f.cm->seniorTo(f.a, f.a));
    EXPECT_TRUE(f.cm->seniorTo(f.a, f.b) != f.cm->seniorTo(f.b, f.a));
    EXPECT_TRUE(f.cm->seniorTo(f.a, f.b)); // lower CPU id wins the tie

    // Exactly one side loses the arbitration.
    EXPECT_TRUE(f.cm->requesterLoses(f.b, f.a));
    EXPECT_FALSE(f.cm->requesterLoses(f.a, f.b));
}

TEST(ContentionSeniority, RetainedAcrossRestartsResetOnCommit)
{
    CmFixture f(ContentionPolicy::Timestamp);
    f.cm->onOuterBegin(0, 5);
    f.cm->onOuterRollback(0);
    // The restart does not refresh the age: the sequence keeps its
    // original first-begin tick and stays senior.
    f.cm->onOuterBegin(0, 500);
    EXPECT_EQ(f.cm->effectiveAge(0, 500), Tick{5});

    // Commit ends the sequence; the next begin starts fresh.
    f.cm->onOuterCommit(0);
    f.cm->onOuterBegin(0, 600);
    EXPECT_EQ(f.cm->effectiveAge(0, 600), Tick{600});

    // Abandoning a sequence (no more retries) also forgets it.
    f.cm->onOuterRollback(0);
    f.cm->onSequenceAbandoned(0);
    EXPECT_EQ(f.cm->consecutiveAborts(0), 0);
    EXPECT_EQ(f.cm->effectiveAge(0, 900), Tick{900});
}

TEST(ContentionSeniority, RepeatedlyAbortedOldTxOutranksYoungOnes)
{
    CmFixture f(ContentionPolicy::Timestamp);
    f.begin(f.a, 10);
    for (int round = 0; round < 5; ++round) {
        f.cm->onOuterRollback(0);
        f.cm->onOuterBegin(0, 100 + 50 * round); // involuntary restart
        // A fresh young competitor each round.
        f.cm->onOuterCommit(1);
        f.begin(f.b, 120 + 50 * round);
        EXPECT_TRUE(f.cm->requesterLoses(f.b, f.a))
            << "young requester must lose against the old victim";
        EXPECT_FALSE(f.cm->requesterLoses(f.a, f.b));
    }
}

// --- karma ----------------------------------------------------------------

TEST(ContentionKarma, AccruesOnTrackedAccessRetainedAcrossAborts)
{
    CmFixture f(ContentionPolicy::Karma);
    f.cm->onOuterBegin(0, 1);
    for (int i = 0; i < 3; ++i)
        f.cm->onTrackedAccess(0);
    EXPECT_EQ(f.cm->karma(0), 3u);

    f.cm->onOuterRollback(0);
    f.cm->onOuterBegin(0, 50);
    EXPECT_EQ(f.cm->karma(0), 3u); // investment survives the abort
    f.cm->onTrackedAccess(0);
    EXPECT_EQ(f.cm->karma(0), 4u);

    f.cm->onOuterCommit(0);
    EXPECT_EQ(f.cm->karma(0), 0u);

    // Accesses outside an active sequence accrue nothing.
    f.cm->onTrackedAccess(0);
    EXPECT_EQ(f.cm->karma(0), 0u);
}

TEST(ContentionKarma, HigherKarmaWinsArbitration)
{
    CmFixture f(ContentionPolicy::Karma);
    f.begin(f.a, 100); // a is older...
    f.begin(f.b, 200);
    for (int i = 0; i < 5; ++i)
        f.cm->onTrackedAccess(1); // ...but b has more invested
    EXPECT_TRUE(f.cm->requesterLoses(f.a, f.b));
    EXPECT_FALSE(f.cm->requesterLoses(f.b, f.a));
    // Equal karma falls back to timestamp order.
    for (int i = 0; i < 5; ++i)
        f.cm->onTrackedAccess(0);
    EXPECT_TRUE(f.cm->requesterLoses(f.b, f.a));
}

// --- hybrid starvation guard ---------------------------------------------

TEST(ContentionHybrid, EscalatesAfterThresholdWinsEverythingUntilCommit)
{
    HtmConfig cfg = policyConfig(ContentionPolicy::Hybrid);
    cfg.starvationThreshold = 3;
    CmFixture f(cfg);
    f.begin(f.a, 100);
    f.begin(f.b, 50); // b is senior and better invested
    for (int i = 0; i < 10; ++i)
        f.cm->onTrackedAccess(1);

    f.cm->onOuterRollback(0);
    f.cm->onOuterRollback(0);
    EXPECT_FALSE(f.cm->escalated(0));
    EXPECT_TRUE(f.cm->requesterLoses(f.a, f.b));

    f.cm->onOuterRollback(0); // third consecutive abort: guard trips
    EXPECT_TRUE(f.cm->escalated(0));
    EXPECT_EQ(f.cm->consecutiveAborts(0), 3);

    // Escalation overrides karma and age in both arbitration rules.
    EXPECT_FALSE(f.cm->requesterLoses(f.a, f.b));
    EXPECT_TRUE(f.cm->requesterLoses(f.b, f.a));
    EXPECT_TRUE(f.cm->evictInPlaceVictim(f.a, f.b));
    EXPECT_FALSE(f.cm->evictInPlaceVictim(f.b, f.a));

    // Lazy committers yield their commit slot to the starving reader.
    EXPECT_TRUE(f.cm->mayYieldAtCommit());
    EXPECT_TRUE(f.cm->committerYields(f.b, f.a));
    EXPECT_FALSE(f.cm->committerYields(f.a, f.b));

    // The guard releases only at commit.
    f.cm->onOuterBegin(0, 999);
    EXPECT_TRUE(f.cm->escalated(0));
    f.cm->onOuterCommit(0);
    EXPECT_FALSE(f.cm->escalated(0));

    // Fairness observability: the trip was counted and the streak
    // distribution saw the full run.
    EXPECT_EQ(f.stats.value("htm.cm.escalations"), 1u);
    const auto* dist = f.stats.findDistribution("htm.consec_aborts");
    ASSERT_NE(dist, nullptr);
    EXPECT_EQ(dist->max(), 3u);
    const auto* atCommit =
        f.stats.findDistribution("htm.consec_aborts_at_commit");
    ASSERT_NE(atCommit, nullptr);
    EXPECT_EQ(atCommit->max(), 3u);
}

TEST(ContentionHybrid, EscalatedTransactionRetriesAlmostImmediately)
{
    HtmConfig cfg = policyConfig(ContentionPolicy::Hybrid);
    cfg.starvationThreshold = 2;
    CmFixture f(cfg);
    f.cm->onOuterBegin(0, 1);
    f.cm->onOuterRollback(0);
    f.cm->onOuterRollback(0);
    ASSERT_TRUE(f.cm->escalated(0));
    Rng rng(3);
    for (int i = 0; i < 50; ++i)
        EXPECT_LT(f.cm->backoffDelay(0, 9, /*eager=*/true, rng),
                  Cycles{4});
}

// --- policy names ---------------------------------------------------------

TEST(ContentionConfig, PolicyNamesRoundTrip)
{
    for (ContentionPolicy p :
         {ContentionPolicy::Requester, ContentionPolicy::Timestamp,
          ContentionPolicy::Karma, ContentionPolicy::Polite,
          ContentionPolicy::Hybrid}) {
        ContentionPolicy q;
        EXPECT_TRUE(
            choiceValue(contentionPolicyNames, contentionPolicyName(p), q));
        EXPECT_EQ(q, p);
    }
    ContentionPolicy pol;
    EXPECT_FALSE(choiceValue(contentionPolicyNames, "nonsense", pol));
    EXPECT_FALSE(choiceValue(contentionPolicyNames, "older", pol));
}

// --- machine-level regression: same-tick lockstep writers ----------------

TEST(ContentionMachine, SameTickLockstepWritersMakeProgress)
{
    // Two eager transactions incrementing the same word in lockstep,
    // retrying immediately with no backoff. Under the original
    // older-wins ("<=" ages) arbitration, equal-age attempts each judged
    // the other senior, both self-violated, and the pair livelocked
    // forever; the strict seniority order breaks the tie by CPU id.
    HtmConfig htm = HtmConfig::paperLazy();
    htm.conflict = ConflictMode::Eager;
    htm.contention = ContentionPolicy::Timestamp;
    Machine m(config(htm));
    Addr a = m.memory().allocate(64);
    m.memory().write(a, 0);

    const int iters = 20;
    for (int cpu = 0; cpu < 2; ++cpu) {
        m.spawn(cpu, [&, cpu](Cpu& c) -> SimTask {
            // Cancel the Machine's one-tick spawn stagger so both
            // transactions really do begin on the same tick.
            if (cpu == 0)
                co_await c.exec(1);
            for (int i = 0; i < iters; ++i) {
                for (;;) {
                    try {
                        co_await c.xbegin();
                        Word v = co_await c.load(a);
                        co_await c.exec(10);
                        co_await c.store(a, v + 1);
                        co_await c.xvalidate();
                        co_await c.xcommit();
                        break;
                    } catch (const TxRollback&) {
                        // retry immediately: no backoff, so only the
                        // arbitration order provides progress
                    }
                }
            }
        });
    }
    m.run(2'000'000);
    ASSERT_TRUE(m.allDone()) << "same-tick writers livelocked";
    EXPECT_EQ(m.memory().read(a), static_cast<Word>(2 * iters));
}

// --- word-granularity early release (paper 4.7) --------------------------

TEST(ContentionRelease, WordReleaseKeepsOtherWordsOnLineTracked)
{
    // Pre-fix, release dropped the whole LINE from the read-set even
    // under word tracking, so a conflicting store to a *different*
    // word of the same line slipped by unnoticed.
    HtmConfig htm = HtmConfig::paperLazy();
    htm.conflict = ConflictMode::Eager;
    htm.granularity = TrackGranularity::Word;
    Machine m(config(htm));
    Addr line = m.memory().allocate(64);
    const Addr w0 = line;
    const Addr w1 = line + wordBytes;

    int rollbacks = 0;
    m.spawn(0, [&](Cpu& c) -> SimTask {
        for (;;) {
            try {
                co_await c.xbegin();
                co_await c.load(w0);
                co_await c.load(w1);
                co_await c.release(w1);
                co_await c.exec(3000); // conflict window
                co_await c.xvalidate();
                co_await c.xcommit();
                co_return;
            } catch (const TxRollback&) {
                ++rollbacks;
            }
        }
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(600); // after the reader released w1
        co_await c.store(w0, 7); // still tracked: must violate
    });
    m.run();
    EXPECT_GE(rollbacks, 1)
        << "store to a still-tracked word of a partially released "
           "line must violate the reader";
}

TEST(ContentionRelease, WordReleaseActuallyReleasesTheAddressedWord)
{
    HtmConfig htm = HtmConfig::paperLazy();
    htm.conflict = ConflictMode::Eager;
    htm.granularity = TrackGranularity::Word;
    Machine m(config(htm));
    Addr line = m.memory().allocate(64);
    const Addr w0 = line;
    const Addr w1 = line + wordBytes;

    int rollbacks = 0;
    m.spawn(0, [&](Cpu& c) -> SimTask {
        for (;;) {
            try {
                co_await c.xbegin();
                co_await c.load(w0);
                co_await c.load(w1);
                co_await c.release(w1);
                co_await c.exec(3000);
                co_await c.xvalidate();
                co_await c.xcommit();
                co_return;
            } catch (const TxRollback&) {
                ++rollbacks;
            }
        }
    });
    m.spawn(1, [&](Cpu& c) -> SimTask {
        co_await c.exec(600);
        co_await c.store(w1, 7); // released: must NOT violate
    });
    m.run();
    EXPECT_EQ(rollbacks, 0)
        << "store to the released word must not violate the reader";
}

// --- recoverable handler-stack overflow ----------------------------------

TEST(ContentionOverflow, HandlerStackOverflowAbortsTransactionNotSim)
{
    // Pre-fix, pushing past the 2048-word handler stack called fatal()
    // and killed the whole simulation; now the registration aborts the
    // transaction recoverably with a dedicated code.
    Machine m(config(HtmConfig::paperLazy(), 1));
    TxThread t0(m.cpu(0));

    bool bodyResumedAfterOverflow = false;
    TxOutcome out;
    m.spawn(0, [&](Cpu&) -> SimTask {
        std::vector<Word> hugeArgs(4096, 0);
        out = co_await t0.atomic(
            [&](TxThread& t) -> SimTask {
                co_await t.onCommit(
                    [](TxThread&, const std::vector<Word>&) -> SimTask {
                        co_return;
                    },
                    hugeArgs);
                bodyResumedAfterOverflow = true;
            });

        // The thread (and the sim) survive: a later transaction runs.
        TxOutcome ok = co_await t0.atomic(
            [](TxThread&) -> SimTask { co_return; });
        EXPECT_TRUE(ok.committed());
    });
    m.run();
    ASSERT_TRUE(m.allDone());
    EXPECT_EQ(out.result, TxResult::Aborted);
    EXPECT_EQ(out.abortCode, TxThread::handlerOverflowCode);
    EXPECT_FALSE(bodyResumedAfterOverflow);
    EXPECT_EQ(t0.frameCount(), 0u);
}

TEST(ContentionOverflow, HandlerStackPushRefusesOverflowWithoutFatal)
{
    // Pre-fix, push() itself called fatal() when the entry did not
    // fit, so any caller that reached it past a stale wouldOverflow
    // probe (e.g. resumed by a custom abort protocol) killed the
    // process. Now push() returns nullptr and leaves the stack intact.
    using Stack = HandlerStack<int>;
    Stack st(0x1000, 0x2000, 8); // room for one small entry

    const Stack::Entry* a = st.push(1, {7, 8});
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->wordOff, 0u);
    EXPECT_EQ(st.topWords(), 4u);

    // 2 + 5 = 7 words needed, 4 free: refused, nothing changes.
    const Stack::Entry* b = st.push(2, {1, 2, 3, 4, 5});
    EXPECT_EQ(b, nullptr);
    EXPECT_EQ(st.topWords(), 4u);
    EXPECT_EQ(st.size(), 1u);

    // An entry that fits in the remaining space still lands.
    const Stack::Entry* c = st.push(3, {9, 10});
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->wordOff, 4u);
    EXPECT_EQ(st.topWords(), 8u);
    EXPECT_TRUE(st.wouldOverflow(0));
}

// --- fairness stats -------------------------------------------------------

TEST(ContentionStats, JainFairnessIndexOverPerCpuCommits)
{
    StatsRegistry reg;
    reg.jainFairness("fair", "cpu*.commits");
    EXPECT_EQ(reg.formulaValue("fair"), 0.0); // no matching counters

    reg.counter("cpu0.commits") += 6;
    reg.counter("cpu1.commits") += 6;
    EXPECT_DOUBLE_EQ(reg.formulaValue("fair"), 1.0);

    // One CPU hogging everything: (x)^2 / (2 * x^2) = 1/2.
    StatsRegistry skew;
    skew.jainFairness("fair", "cpu*.commits");
    skew.counter("cpu0.commits") += 8;
    skew.counter("cpu1.commits") += 0;
    EXPECT_DOUBLE_EQ(skew.formulaValue("fair"), 0.5);
}

// --- end-to-end: the starvation guard bounds the abort tail --------------

namespace {

/** Run the adversarial contend kernel (8 threads hammering one hot
 *  line back-to-back) and return the worst consecutive-abort streak
 *  any transaction suffered. */
std::uint64_t
worstStreak(ContentionPolicy pol)
{
    MachineConfig cfg;
    cfg.numCpus = 8;
    cfg.htm = HtmConfig::paperLazy(); // lazy: commit-time arbitration
    cfg.htm.contention = pol;
    Machine m(cfg);

    ContentionKernel k;
    EXPECT_TRUE(runKernelOn(m, k).verified);
    const auto* dist = m.stats().findDistribution("htm.consec_aborts");
    return dist ? dist->max() : 0;
}

} // namespace

TEST(ContentionGuard, HybridBoundsConsecutiveAbortsTimestampDoesNot)
{
    const std::uint64_t timestampWorst =
        worstStreak(ContentionPolicy::Timestamp);
    const std::uint64_t hybridWorst =
        worstStreak(ContentionPolicy::Hybrid);

    // Age order has no lever at lazy commit time: the long transaction
    // loses to every short committer and its streak runs away. The
    // starvation guard escalates it past K=8 consecutive aborts, so
    // its streak stays within a small multiple of the threshold.
    EXPECT_GT(timestampWorst, 3 * 8u);
    EXPECT_LE(hybridWorst, 3 * 8u);
    EXPECT_LT(hybridWorst, timestampWorst);
}

/**
 * @file
 * TxTracer integration tests: run a contended workload with tracing
 * enabled, then check the exported Chrome trace's structure (balanced
 * B/E slice pairs per CPU track, schema metadata) and the
 * distribution-vs-counter invariants the instrumentation guarantees.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "runtime/tx_thread.hh"
#include "sim/trace.hh"
#include "workloads/harness.hh"

using namespace tmsim;

namespace {

MachineConfig
config(HtmConfig htm, int cpus)
{
    MachineConfig cfg;
    cfg.numCpus = cpus;
    cfg.htm = htm;
    cfg.memBytes = 8 * 1024 * 1024;
    return cfg;
}

/** Run @p cpus threads each incrementing a shared counter @p iters
 *  times through atomic(); contention guarantees violations. */
void
runContended(Machine& m, std::vector<std::unique_ptr<TxThread>>& threads,
             int cpus, int iters)
{
    Addr a = m.memory().allocate(64);
    for (int i = 0; i < cpus; ++i)
        threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
    for (int i = 0; i < cpus; ++i) {
        m.spawn(i, [&, i, iters](Cpu&) -> SimTask {
            for (int k = 0; k < iters; ++k) {
                co_await threads[static_cast<size_t>(i)]->atomic(
                    [&](TxThread& t) -> SimTask {
                        Word v = co_await t.ld(a);
                        co_await t.work(20);
                        co_await t.st(a, v + 1);
                    });
            }
        });
    }
    m.run();
    EXPECT_EQ(m.memory().read(a), static_cast<Word>(cpus * iters));
}

} // namespace

TEST(Trace, NullSinkRecordsNothing)
{
    TxTracer& nil = TxTracer::nil();
    EXPECT_FALSE(nil.enabled());
    nil.beginTx(0, TxTracer::Ev::TxOuter, 1);
    nil.instant(0, TxTracer::Ev::Validated, 1);
    nil.endTx(0, 1, TxTracer::Outcome::Commit);
    nil.span(0, TxTracer::Ev::Backoff, 10, 5);
    EXPECT_EQ(nil.eventCount(), 0u);
}

TEST(Trace, DisabledTracerRecordsNothingDuringRun)
{
    Machine m(config(HtmConfig::paperLazy(), 4));
    std::vector<std::unique_ptr<TxThread>> threads;
    runContended(m, threads, 4, 10);
    EXPECT_FALSE(m.tracer().enabled());
    EXPECT_EQ(m.tracer().eventCount(), 0u);
}

TEST(Trace, SlicePairsBalancePerCpuTrack)
{
    const int cpus = 4;
    Machine m(config(HtmConfig::paperLazy(), cpus));
    m.tracer().enable(true);
    std::vector<std::unique_ptr<TxThread>> threads;
    runContended(m, threads, cpus, 10);
    ASSERT_GT(m.tracer().eventCount(), 0u);
    EXPECT_EQ(m.tracer().droppedCount(), 0u);

    std::ostringstream os;
    m.tracer().writeChromeTrace(os);
    std::istringstream in(os.str());

    // One event per line: balance B against E per tid and require every
    // commit/rollback outcome to appear on an E line.
    std::vector<int> open(static_cast<size_t>(cpus), 0);
    int slices = 0, outcomes = 0, meta = 0;
    std::string line;
    while (std::getline(in, line)) {
        size_t php = line.find("\"ph\": \"");
        if (php == std::string::npos)
            continue;
        char ph = line[php + 7];
        size_t tidp = line.find("\"tid\": ");
        ASSERT_NE(tidp, std::string::npos) << line;
        int tid = std::atoi(line.c_str() + tidp + 7);
        ASSERT_LT(tid, cpus);
        if (ph == 'M') {
            ++meta;
        } else if (ph == 'B') {
            ++open[static_cast<size_t>(tid)];
            ++slices;
        } else if (ph == 'E') {
            --open[static_cast<size_t>(tid)];
            EXPECT_GE(open[static_cast<size_t>(tid)], 0)
                << "E without B on track " << tid;
            if (line.find("\"outcome\": ") != std::string::npos)
                ++outcomes;
        }
    }
    EXPECT_EQ(meta, cpus); // one thread_name record per track
    EXPECT_GT(slices, 0);
    EXPECT_EQ(slices, outcomes); // every slice end names its outcome
    for (int i = 0; i < cpus; ++i)
        EXPECT_EQ(open[static_cast<size_t>(i)], 0)
            << "unbalanced slices on track " << i;

    EXPECT_NE(os.str().find("\"schema\": \"tmsim-trace\""),
              std::string::npos);
}

TEST(Trace, DistributionSamplesMatchScalarCounters)
{
    const int cpus = 4;
    Machine m(config(HtmConfig::paperLazy(), cpus));
    m.tracer().enable(true);
    std::vector<std::unique_ptr<TxThread>> threads;
    runContended(m, threads, cpus, 15);
    StatsRegistry& s = m.stats();

    const std::uint64_t commits = s.sum("cpu*.htm.commits") +
                                  s.sum("cpu*.htm.open_commits");
    EXPECT_GT(commits, 0u);
    EXPECT_EQ(s.findDistribution("htm.rset_size_at_commit")->count(),
              commits);
    EXPECT_EQ(s.findDistribution("htm.wset_size_at_commit")->count(),
              commits);
    EXPECT_EQ(s.findDistribution("htm.tx_duration_committed")->count(),
              s.sum("cpu*.htm.outer_commits"));
    EXPECT_EQ(s.findDistribution("htm.tx_duration_violated")->count(),
              s.sum("cpu*.rollbacks_outer"));
    EXPECT_EQ(s.findDistribution("htm.violation_to_restart")->count(),
              s.sum("cpu*.htm.restarts"));
    EXPECT_EQ(s.sum("cpu*.bus.busy_cycles"), s.value("bus.busy_cycles"));
    EXPECT_EQ(s.value("sim.ticks"), static_cast<std::uint64_t>(m.now()));
    EXPECT_GT(s.formulaValue("htm.commit_rate"), 0.0);
}

TEST(Trace, OpClassDistributionsPartitionTheTotals)
{
    // contend-mixed tags every outermost transaction "long" or
    // "short", so the per-class histograms must partition the
    // chip-wide commit-duration and restart-latency histograms
    // sample-for-sample (and cycle-for-cycle).
    auto kernel = makeNamedKernel("contend-mixed");
    ASSERT_NE(kernel, nullptr);
    StatsRegistry s;
    RunResult r =
        runKernel(*kernel, HtmConfig::paperLazy(), 4, 8 << 20, &s);
    EXPECT_TRUE(r.verified);

    const auto* durAll = s.findDistribution("htm.tx_duration_committed");
    const auto* durLong =
        s.findDistribution("htm.tx_duration_committed.long");
    const auto* durShort =
        s.findDistribution("htm.tx_duration_committed.short");
    ASSERT_NE(durAll, nullptr);
    ASSERT_NE(durLong, nullptr);
    ASSERT_NE(durShort, nullptr);
    EXPECT_GT(durLong->count(), 0u);
    EXPECT_GT(durShort->count(), 0u);
    EXPECT_EQ(durLong->count() + durShort->count(), durAll->count());
    EXPECT_EQ(durLong->total() + durShort->total(), durAll->total());

    const auto* vrAll = s.findDistribution("htm.violation_to_restart");
    const auto* vrLong =
        s.findDistribution("htm.violation_to_restart.long");
    const auto* vrShort =
        s.findDistribution("htm.violation_to_restart.short");
    ASSERT_NE(vrAll, nullptr);
    ASSERT_NE(vrLong, nullptr);
    ASSERT_NE(vrShort, nullptr);
    EXPECT_EQ(vrLong->count() + vrShort->count(), vrAll->count());
    EXPECT_EQ(vrLong->total() + vrShort->total(), vrAll->total());

    // The quantile keys the ROADMAP asks for are reportable per class.
    EXPECT_GE(durLong->quantile(0.99), durLong->quantile(0.5));
    EXPECT_GE(durShort->quantile(0.99), durShort->quantile(0.5));
}

TEST(Trace, BufferCapacityDropsInsteadOfGrowing)
{
    EventQueue eq;
    TxTracer t(eq, 4);
    t.enable(true);
    for (int i = 0; i < 10; ++i)
        t.instant(0, TxTracer::Ev::Validated, 1);
    EXPECT_EQ(t.eventCount(), 4u);
    EXPECT_EQ(t.droppedCount(), 6u);
    t.clear();
    EXPECT_EQ(t.eventCount(), 0u);
    EXPECT_EQ(t.droppedCount(), 0u);
}

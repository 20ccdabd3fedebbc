/**
 * @file
 * End-to-end workload tests: every kernel's parallel result must match
 * its sequential reference under every HTM configuration — the
 * serialisability witness for the whole stack.
 */

#include <gtest/gtest.h>

#include "workloads/kernel_condsync.hh"
#include "workloads/kernel_iobench.hh"
#include "workloads/kernel_mp3d.hh"
#include "workloads/kernel_specjbb.hh"
#include "workloads/kernels_scientific.hh"

using namespace tmsim;

namespace {

struct SciCase
{
    const char* label;
    SciParams (*make)();
};

class SciKernelTest : public ::testing::TestWithParam<SciCase>
{
};

} // namespace

TEST_P(SciKernelTest, VerifiesAcrossConfigs)
{
    const SciCase& cs = GetParam();
    for (HtmConfig htm :
         {HtmConfig::paperLazy(), HtmConfig::flattenedBaseline(),
          HtmConfig::eagerUndoLog()}) {
        SciParams p = cs.make();
        p.outerIters = 32; // keep the test quick
        SciKernel k(p);
        RunResult r = runKernel(k, htm, 4);
        EXPECT_TRUE(r.verified)
            << cs.label << " under " << htm.describe();
        EXPECT_GT(r.cycles, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllScientificKernels, SciKernelTest,
    ::testing::Values(SciCase{"barnes", sciBarnes},
                      SciCase{"fmm", sciFmm},
                      SciCase{"moldyn", sciMoldyn},
                      SciCase{"swim", sciSwim},
                      SciCase{"tomcatv", sciTomcatv},
                      SciCase{"water", sciWater}),
    [](const ::testing::TestParamInfo<SciCase>& info) {
        return std::string(info.param.label);
    });

TEST(Mp3d, VerifiesSequentialAndParallel)
{
    for (int threads : {1, 4, 8}) {
        Mp3dParams p;
        p.particles = 128;
        p.steps = 2;
        Mp3dKernel k(p);
        RunResult r = runKernel(k, HtmConfig::paperLazy(), threads);
        EXPECT_TRUE(r.verified) << threads << " threads";
    }
}

TEST(Mp3d, VerifiesUnderFlatteningAndEager)
{
    for (HtmConfig htm :
         {HtmConfig::flattenedBaseline(), HtmConfig::eagerUndoLog()}) {
        Mp3dParams p;
        p.particles = 128;
        p.steps = 2;
        Mp3dKernel k(p);
        RunResult r = runKernel(k, htm, 4);
        EXPECT_TRUE(r.verified) << htm.describe();
    }
}

TEST(Mp3d, NestingReducesRollbackWaste)
{
    Mp3dParams p;
    Mp3dKernel nested(p);
    Mp3dKernel flat(p);
    RunResult rn = runKernel(nested, HtmConfig::paperLazy(), 8);
    RunResult rf = runKernel(flat, HtmConfig::flattenedBaseline(), 8);
    ASSERT_TRUE(rn.verified);
    ASSERT_TRUE(rf.verified);
    // The headline claim: nesting beats flattening on mp3d.
    EXPECT_LT(rn.cycles, rf.cycles);
}

TEST(SpecJbb, AllVariantsVerify)
{
    for (JbbVariant variant :
         {JbbVariant::Flat, JbbVariant::ClosedNested,
          JbbVariant::OpenNested, JbbVariant::Hybrid}) {
        for (int threads : {1, 4, 8}) {
            SpecJbbKernel k(variant);
            RunResult r = runKernel(k, HtmConfig::paperLazy(), threads);
            EXPECT_TRUE(r.verified)
                << k.name() << " at " << threads << " threads";
        }
    }
}

TEST(SpecJbb, VariantsVerifyUnderFlattening)
{
    for (JbbVariant variant :
         {JbbVariant::Flat, JbbVariant::ClosedNested,
          JbbVariant::OpenNested, JbbVariant::Hybrid}) {
        SpecJbbKernel k(variant);
        RunResult r = runKernel(k, HtmConfig::flattenedBaseline(), 4);
        EXPECT_TRUE(r.verified) << k.name();
    }
}

TEST(IoBench, TransactionalAndSerializedVerify)
{
    for (bool tx : {true, false}) {
        for (int threads : {1, 4}) {
            IoBenchParams p;
            p.msgsPerThread = 8;
            p.transactional = tx;
            IoBenchKernel k(p);
            RunResult r = runKernel(k, HtmConfig::paperLazy(), threads);
            EXPECT_TRUE(r.verified)
                << k.name() << " at " << threads << " threads";
        }
    }
}

TEST(IoBench, TransactionalAppendUnderFlatteningIsRefused)
{
    // Flattened, the commit handler's append is subsumed into the outer
    // level after xvalidate broadcast and pinned its write set; the
    // append's new units would escape that broadcast and lose records.
    LogContext ctx;
    ctx.quiet = true;
    ctx.throwOnFatal = true;
    LogScope scope(ctx);
    IoBenchKernel k;
    EXPECT_THROW(runKernel(k, HtmConfig::flattenedBaseline(), 4),
                 FatalError);
}

TEST(IoBench, TransactionalOutscalesSerializedAt8)
{
    IoBenchParams p;
    p.msgsPerThread = 12;
    p.transactional = true;
    IoBenchKernel txk(p);
    p.transactional = false;
    IoBenchKernel serk(p);
    RunResult rt = runKernel(txk, HtmConfig::paperLazy(), 8);
    RunResult rs = runKernel(serk, HtmConfig::paperLazy(), 8);
    ASSERT_TRUE(rt.verified);
    ASSERT_TRUE(rs.verified);
    EXPECT_LT(rt.cycles, rs.cycles);
}

TEST(CondSync, SchedulerAndPollingVerify)
{
    for (bool sched : {true, false}) {
        CondSyncParams p;
        p.itemsPerPair = 6;
        p.useScheduler = sched;
        CondSyncKernel k(p);
        RunResult r = runKernel(k, HtmConfig::paperLazy(), 5);
        EXPECT_TRUE(r.verified) << k.name();
    }
}

TEST(Fig5Row, ProducesVerifiedSpeedups)
{
    Fig5Row row = fig5Row(
        [] {
            SciParams p = sciMoldyn();
            p.outerIters = 32;
            return std::make_unique<SciKernel>(p);
        },
        4);
    EXPECT_TRUE(row.allVerified);
    EXPECT_GT(row.nestingSpeedup, 0.0);
    EXPECT_GT(row.nestedVsSeq, 1.0); // 4 threads beat 1 thread
}

namespace {

/** How @p kernel ended on 4 CPUs under design point @p dp within 10M
 *  ticks: "verified", "NOT verified", "tick limit" or "fatal: ...". */
std::string
matrixCell(const std::string& kernel, const DesignPoint& dp)
{
    constexpr int cpus = 4;
    auto k = makeNamedKernel(kernel);
    // Declared before the Machine, so a run cut at the tick limit
    // tears its suspended frames down while the threads still exist.
    std::vector<std::unique_ptr<TxThread>> threads;
    Machine m(kernelMachineConfig(*k, dp.apply(HtmConfig{}), cpus));
    k->init(m, cpus);
    for (int i = 0; i < cpus; ++i)
        threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
    for (int i = 0; i < cpus; ++i) {
        TxThread* t = threads[static_cast<size_t>(i)].get();
        Kernel* kp = k.get();
        m.spawn(i, [kp, t, i](Cpu&) -> SimTask {
            co_await kp->thread(*t, i, cpus);
        });
    }
    try {
        m.run(10'000'000);
    } catch (const FatalError& e) {
        return std::string("fatal: ") + e.what();
    }
    if (!m.allDone())
        return "tick limit";
    return k->verify(m, cpus) ? "verified" : "NOT verified";
}

} // namespace

TEST(Workloads, EveryKernelUnderEveryDesignPoint)
{
    LogContext ctx;
    ctx.quiet = true;
    ctx.throwOnFatal = true;
    LogScope scope(ctx);
    for (const std::string& kernel : namedKernels()) {
        for (const DesignPoint& dp : designPoints) {
            const std::string cell = kernel + " under " + dp.name;
            const std::string got = matrixCell(kernel, dp);
            const bool flatten = std::string(dp.name) == "lazy-wb-flatten";
            if (kernel == "iobench-tx" && flatten) {
                // The commit handler's append would grow the validated
                // write set (see TransactionalAppendUnderFlattening...).
                EXPECT_NE(got.find("would join level 1's write set"),
                          std::string::npos)
                    << cell << ": " << got;
            } else if (kernel == "condsync-sched" && flatten) {
                // A known hang (ROADMAP item 1). Once it is fixed this
                // expectation fails and must become "verified".
                EXPECT_EQ(got, "tick limit") << cell;
            } else {
                EXPECT_EQ(got, "verified") << cell;
            }
        }
    }
}

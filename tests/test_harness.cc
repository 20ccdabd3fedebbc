/**
 * @file
 * Workload-harness tests: RunResult field plausibility, Fig5Row
 * arithmetic, and negative verification — each kernel's verifier must
 * actually detect a corrupted result (otherwise the "ok" columns in
 * the benches prove nothing).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "workloads/kernel_iobench.hh"
#include "workloads/kernel_mp3d.hh"
#include "workloads/kernel_specjbb.hh"
#include "workloads/kernels_scientific.hh"

using namespace tmsim;

TEST(Harness, RunResultFieldsArePopulated)
{
    SciParams p = sciSwim();
    p.outerIters = 16;
    SciKernel k(p);
    RunResult r = runKernel(k, HtmConfig::paperLazy(), 4);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.kernel, "swim");
    EXPECT_EQ(r.threads, 4);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.commits, 0u);
    EXPECT_FALSE(r.htm.empty());
}

TEST(Harness, RunKernelOnACallerMachineMatchesRunKernel)
{
    // tmsim_run keeps the Machine (for --trace and --stats) and runs
    // runKernel's two steps itself; both paths must agree exactly.
    SciParams p = sciWater();
    p.outerIters = 16;
    SciKernel a(p);
    SciKernel b(p);
    HtmConfig htm = HtmConfig::eagerUndoLog();
    StatsRegistry viaRunKernel;
    const RunResult want =
        runKernel(a, htm, 4, 64ull * 1024 * 1024, &viaRunKernel);
    const MachineConfig cfg = kernelMachineConfig(b, htm, 4);
    EXPECT_EQ(cfg.numCpus, 4);
    EXPECT_EQ(cfg.memBytes, 64ull * 1024 * 1024);
    Machine m(cfg);
    const RunResult got = runKernelOn(m, b);
    EXPECT_TRUE(got.verified);
    EXPECT_EQ(got.kernel, want.kernel);
    EXPECT_EQ(got.htm, want.htm);
    EXPECT_EQ(got.threads, want.threads);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.commits, want.commits);
    EXPECT_EQ(got.rollbacks, want.rollbacks);
    EXPECT_EQ(got.violationsTaken, want.violationsTaken);
    EXPECT_EQ(got.busBusyCycles, want.busBusyCycles);
    std::ostringstream gotStats, wantStats;
    m.stats().dumpJson(gotStats);
    viaRunKernel.dumpJson(wantStats);
    EXPECT_EQ(gotStats.str(), wantStats.str());
}

TEST(Harness, Fig5RowArithmeticIsConsistent)
{
    Fig5Row row = fig5Row(
        [] {
            SciParams p = sciTomcatv();
            p.outerIters = 24;
            return std::make_unique<SciKernel>(p);
        },
        4);
    EXPECT_TRUE(row.allVerified);
    EXPECT_DOUBLE_EQ(row.nestingSpeedup,
                     static_cast<double>(row.flat.cycles) /
                         static_cast<double>(row.nested.cycles));
    EXPECT_DOUBLE_EQ(row.nestedVsSeq,
                     static_cast<double>(row.seq.cycles) /
                         static_cast<double>(row.nested.cycles));
    EXPECT_EQ(row.seq.threads, 1);
    EXPECT_EQ(row.nested.threads, 4);
}

namespace {

/** Run a kernel inline so the final memory image can be corrupted
 *  before verify() is consulted. */
bool
verifyAfterCorruption(Kernel& kernel, std::function<void(Machine&)> corrupt)
{
    Machine m(kernelMachineConfig(kernel, HtmConfig::paperLazy(), 4));
    EXPECT_TRUE(runKernelOn(m, kernel).verified); // sane before corruption
    corrupt(m);
    return kernel.verify(m, 4);
}

} // namespace

TEST(HarnessNegative, SciVerifierCatchesLostIncrement)
{
    SciParams p = sciWater();
    p.outerIters = 16;
    SciKernel k(p);
    // Any cell +1 breaks the total.
    bool ok = verifyAfterCorruption(k, [&](Machine& m) {
        // The cells array is the first workload allocation; find a
        // nonzero cell by scanning and bump it.
        for (Addr a = 64; a < 1 << 20; a += 64) {
            Word v = m.memory().read(a);
            if (v != 0 && v < 1000) {
                m.memory().write(a, v + 1);
                return;
            }
        }
    });
    EXPECT_FALSE(ok);
}

TEST(HarnessNegative, Mp3dVerifierCatchesMomentumDrift)
{
    Mp3dParams p;
    p.particles = 96;
    Mp3dKernel k(p);
    bool sawCorruption = false;
    bool ok = verifyAfterCorruption(k, [&](Machine& m) {
        // Momentum is a single nonzero word allocated after the cells;
        // corrupt the largest word found in the low heap.
        Addr best = 0;
        Word bestV = 0;
        for (Addr a = 64; a < 1 << 20; a += 8) {
            Word v = m.memory().read(a);
            if (v > bestV && v < (1ull << 40)) {
                bestV = v;
                best = a;
            }
        }
        if (best) {
            m.memory().write(best, bestV + 1);
            sawCorruption = true;
        }
    });
    EXPECT_TRUE(sawCorruption);
    EXPECT_FALSE(ok);
}

TEST(HarnessNegative, JbbVerifierCatchesStockLoss)
{
    SpecJbbKernel k(JbbVariant::Flat);
    bool ok = verifyAfterCorruption(k, [&](Machine& m) {
        // Stock values start at 100 and end close to it; find one and
        // nudge it (simulating a lost update).
        auto items = k.stock().items(m.memory());
        ASSERT_FALSE(items.empty());
        // Rewrite via host: re-find the leaf word by searching memory
        // for the exact (key,value) pair is fragile; instead corrupt
        // through the tree's own accessor surface: bulk operations are
        // host-side, so scan memory for the first value in [90, 110]
        // adjacent to a plausible key.
        for (Addr a = 64; a < 4u << 20; a += 8) {
            Word v = m.memory().read(a);
            if (v >= 90 && v <= 110) {
                m.memory().write(a, v - 1);
                return;
            }
        }
    });
    EXPECT_FALSE(ok);
}

TEST(HarnessNegative, IoVerifierCatchesTornRecord)
{
    IoBenchParams p;
    p.msgsPerThread = 6;
    IoBenchKernel k(p);
    bool ok = verifyAfterCorruption(k, [&](Machine& m) {
        // Log records carry tag words >= 1000000; smash one payload.
        for (Addr a = 64; a < 4u << 20; a += 8) {
            if (m.memory().read(a) >= 1000000) {
                m.memory().write(a + 8, 0xDEAD);
                return;
            }
        }
    });
    EXPECT_FALSE(ok);
}

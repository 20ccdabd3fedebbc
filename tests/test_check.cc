/**
 * @file
 * Tests of the check/ layer: deterministic generation, replay-file
 * round-trips, the serializability oracle (clean runs pass, tampered
 * runs fail), the commit-order hooks, and the injected-bug shrink +
 * replay pipeline end to end.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "check/fuzz_driver.hh"
#include "check/fuzz_interp.hh"
#include "check/fuzz_program.hh"
#include "check/oracle.hh"
#include "core/machine.hh"
#include "runtime/tx_thread.hh"

using namespace tmsim;

TEST(FuzzProgram, GenerationIsDeterministic)
{
    for (std::uint64_t seed : {1ull, 17ull, 123456789ull}) {
        const FuzzProgram a = generateProgram(seed);
        const FuzzProgram b = generateProgram(seed);
        EXPECT_EQ(a.serialize(), b.serialize()) << "seed " << seed;
        EXPECT_GE(a.numThreads(), 1);
    }
    // Different seeds produce different programs (overwhelmingly).
    EXPECT_NE(generateProgram(1).serialize(),
              generateProgram(2).serialize());
}

TEST(FuzzProgram, SerializeParseRoundTrip)
{
    const FuzzProgram p = generateProgram(42);
    FuzzProgram q;
    std::string err;
    ASSERT_TRUE(FuzzProgram::parse(p.serialize(), q, &err)) << err;
    EXPECT_EQ(p.serialize(), q.serialize());
    EXPECT_EQ(p.seed, q.seed);
    EXPECT_EQ(p.wordGranularity, q.wordGranularity);
    EXPECT_EQ(p.contention, q.contention);
    EXPECT_EQ(p.txs.size(), q.txs.size());
    EXPECT_EQ(p.threads.size(), q.threads.size());
}

TEST(FuzzProgram, ParseRejectsMalformedInput)
{
    FuzzProgram q;
    std::string err;
    EXPECT_FALSE(FuzzProgram::parse("not a replay", q, &err));
    EXPECT_FALSE(err.empty());

    // A nest edge pointing backwards (cycle) must be rejected.
    FuzzProgram p;
    p.txs.resize(2);
    FuzzOp nest;
    nest.kind = FuzzOpKind::Nest;
    nest.child = 0; // tx 1 -> tx 0: child index must be > parent's
    p.txs[1].ops.push_back(nest);
    nest.child = 1;
    p.txs[0].ops.push_back(nest);
    ThreadOp top;
    top.kind = ThreadOpKind::RunTx;
    top.tx = 0;
    p.threads.push_back({top});
    EXPECT_FALSE(FuzzProgram::parse(p.serialize(), q, &err));
}

TEST(FuzzProgram, ParseRejectsMangledCapacityLines)
{
    // Negative corpus: each file carries one specific capacity-line
    // defect. A mangled capacity line must be reported as a capacity
    // problem — before this hardening, a truncated line fell through
    // keyword matching and surfaced as a baffling "missing inject".
    const char* files[] = {
        "capacity_truncated.replay",   "capacity_duplicate.replay",
        "capacity_out_of_range.replay", "capacity_bad_mode.replay",
        "capacity_trailing.replay",
    };
    for (const char* f : files) {
        SCOPED_TRACE(f);
        std::ifstream is(std::string(TMSIM_REPLAYS_DIR) + "/" + f);
        ASSERT_TRUE(is.good());
        std::stringstream buf;
        buf << is.rdbuf();
        FuzzProgram q;
        std::string err;
        EXPECT_FALSE(FuzzProgram::parse(buf.str(), q, &err));
        EXPECT_NE(err.find("capacity"), std::string::npos) << err;
    }
}

TEST(FuzzProgram, ParseRejectsRemovedOlderWinsLine)
{
    // Older-wins arbitration is spelled `contention timestamp`; a
    // replay still carrying the removed line must say so.
    std::string text = generateProgram(3).serialize();
    const std::string gran = "word-granularity ";
    const size_t at = text.find('\n', text.find(gran)) + 1;
    text.insert(at, "older-wins 1\n");
    FuzzProgram q;
    std::string err;
    EXPECT_FALSE(FuzzProgram::parse(text, q, &err));
    EXPECT_NE(err.find("contention timestamp"), std::string::npos) << err;
}

TEST(FuzzProgram, ParseAcceptsCapacityLineRoundTrip)
{
    FuzzProgram p = generateProgram(3);
    p.rsetCap = 4;
    p.wsetCap = 8;
    p.capacityMode = CapacityMode::Overflow;
    FuzzProgram q;
    std::string err;
    ASSERT_TRUE(FuzzProgram::parse(p.serialize(), q, &err)) << err;
    EXPECT_EQ(q.rsetCap, 4);
    EXPECT_EQ(q.wsetCap, 8);
    EXPECT_EQ(q.capacityMode, CapacityMode::Overflow);
    EXPECT_EQ(p.serialize(), q.serialize());
}

namespace {

/** A two-thread program of counter increments on one shared slot. */
FuzzProgram
tinyProgram()
{
    FuzzProgram p;
    p.seed = 0;
    p.slotsPerRegion = 4;
    FuzzTx tx;
    FuzzOp add;
    add.kind = FuzzOpKind::TxAdd;
    add.region = Region::Shared;
    add.slot = 0;
    add.value = 3;
    tx.ops.push_back(add);
    p.txs.push_back(tx);
    ThreadOp run;
    run.kind = ThreadOpKind::RunTx;
    run.tx = 0;
    p.threads.push_back({run, run});
    p.threads.push_back({run});
    return p;
}

} // namespace

TEST(FuzzOracle, CleanRunPassesEveryConfig)
{
    const FuzzFailure fail = runProgramAllConfigs(tinyProgram());
    EXPECT_FALSE(fail.failed) << "[" << fail.config << "] "
                              << fail.message;
}

TEST(FuzzOracle, TamperedReadValueIsFlagged)
{
    const FuzzProgram p = tinyProgram();
    FuzzInterp interp(p, fuzzConfigs(p)[0].htm);
    ObservedRun run = interp.run();
    ASSERT_TRUE(checkRun(p, run).ok);

    // Corrupt one committed read; the golden replay must notice.
    bool tampered = false;
    for (auto& u : run.units) {
        if (u.dead)
            continue;
        for (auto& a : u.accesses) {
            if (a.kind == ObservedAccess::Kind::Read) {
                a.value ^= 0xFF;
                tampered = true;
                break;
            }
        }
        if (tampered)
            break;
    }
    ASSERT_TRUE(tampered);
    EXPECT_FALSE(checkRun(p, run).ok);
}

TEST(FuzzOracle, TamperedFinalMemoryIsFlagged)
{
    const FuzzProgram p = tinyProgram();
    FuzzInterp interp(p, fuzzConfigs(p)[0].htm);
    ObservedRun run = interp.run();
    ASSERT_TRUE(checkRun(p, run).ok);
    ASSERT_FALSE(run.finalChecked.empty());
    run.finalChecked[0].second += 1;
    EXPECT_FALSE(checkRun(p, run).ok);
}

TEST(FuzzOracle, HiddenStoreIsDetectedShrunkAndReplayable)
{
    FuzzProgram p = generateProgram(7);
    p.injectHiddenStoreAfter = 0;
    const FuzzFailure fail = runProgramAllConfigs(p);
    ASSERT_TRUE(fail.failed);

    const FuzzProgram shrunk = shrinkProgram(p, 120);
    const FuzzFailure sf = runProgramAllConfigs(shrunk);
    EXPECT_TRUE(sf.failed);
    EXPECT_LE(shrunk.threads.size(), p.threads.size());

    // The replay text reproduces the failure deterministically.
    FuzzProgram replayed;
    std::string err;
    ASSERT_TRUE(FuzzProgram::parse(shrunk.serialize(), replayed, &err))
        << err;
    const FuzzFailure rf = runProgramAllConfigs(replayed);
    EXPECT_TRUE(rf.failed);
    EXPECT_EQ(rf.config, sf.config);
    EXPECT_EQ(rf.message, sf.message);
}

TEST(FuzzDriver, ConfigsCoverTheFourDesignPoints)
{
    const auto cfgs = fuzzConfigs(tinyProgram());
    ASSERT_EQ(cfgs.size(), 4u);
    int undolog = 0, eager = 0, flatten = 0;
    for (const auto& c : cfgs) {
        undolog += c.htm.version == VersionMode::UndoLog;
        eager += c.htm.conflict == ConflictMode::Eager;
        flatten += c.htm.nesting == NestingMode::Flatten;
    }
    EXPECT_EQ(undolog, 1);
    EXPECT_EQ(eager, 2);
    EXPECT_EQ(flatten, 1);
}

TEST(CommitOrderHooks, OneSerializePerOuterCommitInOrder)
{
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.htm = HtmConfig::paperLazy();
    cfg.memBytes = 1 << 20;
    Machine m(cfg);
    const Addr a = m.memory().allocate(64);

    std::vector<std::pair<CpuId, bool>> serialized;
    int cancelled = 0;
    m.setCommitOrderHooks(
        [&](CpuId cpu, bool open) { serialized.push_back({cpu, open}); },
        [&](CpuId) { ++cancelled; });

    std::vector<std::unique_ptr<TxThread>> threads;
    for (int i = 0; i < 2; ++i)
        threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
    for (int i = 0; i < 2; ++i) {
        TxThread* t = threads[static_cast<size_t>(i)].get();
        m.spawn(i, [t, a](Cpu& c) -> SimTask {
            co_await t->atomic([a](TxThread& th) -> SimTask {
                Word v = co_await th.cpu().load(a);
                co_await th.cpu().exec(20);
                co_await th.cpu().store(a, v + 1);
            });
            (void)c;
        });
    }
    m.run();

    // Both increments landed, so every memory commit serialized
    // exactly once: two live outer commits, each open=false, plus one
    // serialize per rollback that had already validated (cancelled).
    EXPECT_EQ(m.memory().read(a), 2u);
    ASSERT_EQ(serialized.size(), 2u + static_cast<size_t>(cancelled));
    for (const auto& [cpu, open] : serialized) {
        EXPECT_TRUE(cpu == 0 || cpu == 1);
        EXPECT_FALSE(open);
    }
}

TEST(CommitOrderHooks, OpenNestedCommitSerializesAsOpen)
{
    MachineConfig cfg;
    cfg.numCpus = 1;
    cfg.htm = HtmConfig::paperLazy();
    cfg.memBytes = 1 << 20;
    Machine m(cfg);
    const Addr a = m.memory().allocate(64);

    std::vector<bool> openFlags;
    m.setCommitOrderHooks(
        [&](CpuId, bool open) { openFlags.push_back(open); },
        [&](CpuId) {});

    TxThread t(m.cpu(0));
    m.spawn(0, [&t, a](Cpu&) -> SimTask {
        co_await t.atomic([a](TxThread& th) -> SimTask {
            co_await th.cpu().store(a, 1);
            co_await th.atomicOpen([a](TxThread& th2) -> SimTask {
                co_await th2.cpu().store(a + 8, 2);
            });
        });
    });
    m.run();

    // Open child serializes first (open=true), outer commit second.
    ASSERT_EQ(openFlags.size(), 2u);
    EXPECT_TRUE(openFlags[0]);
    EXPECT_FALSE(openFlags[1]);
}

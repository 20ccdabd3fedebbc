/**
 * @file
 * Tests of the check/ layer: deterministic generation, replay-file
 * round-trips, the serializability oracle (clean runs pass, tampered
 * runs fail), the commit-order hooks, the injected-bug shrink +
 * replay pipeline end to end, and the fuzz walk's two adapters
 * recording the same units for one program.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>

#include "check/fuzz_driver.hh"
#include "check/fuzz_interp.hh"
#include "check/fuzz_program.hh"
#include "check/oracle.hh"
#include "check/stm_interp.hh"
#include "core/machine.hh"
#include "runtime/tx_thread.hh"
#include "sim/logging.hh"

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

namespace {

FuzzOp
txOp(FuzzOpKind kind, Region region = Region::Scratch, int slot = 0,
     Word value = 0)
{
    FuzzOp op;
    op.kind = kind;
    op.region = region;
    op.slot = slot;
    op.value = value;
    return op;
}

FuzzOp
nestOp(int child)
{
    FuzzOp op;
    op.kind = FuzzOpKind::Nest;
    op.child = child;
    return op;
}

ThreadOp
threadOp(ThreadOpKind kind, Region region = Region::Naked, int slot = 0,
         Word value = 0, int tx = -1)
{
    ThreadOp op;
    op.kind = kind;
    op.region = region;
    op.slot = slot;
    op.value = value;
    op.tx = tx;
    return op;
}

/**
 * One thread, word-granular, every FuzzOpKind and ThreadOpKind: an
 * outer transaction with a closed child, an open child and a closed
 * child that aborts voluntarily. The nested abort is why only
 * full-nesting configs run it (flattening would abort the parent).
 * The STM keys a naked load by the version of the word it read, so
 * the naked load after the first reads a word the unit before it
 * wrote; a never-written word could sort it before earlier commits.
 */
FuzzProgram
everyOpProgram()
{
    FuzzProgram p;
    p.slotsPerRegion = 4;
    p.wordGranularity = true;
    FuzzTx outer;
    outer.ops = {
        txOp(FuzzOpKind::TxAdd, Region::Shared, 0, 3),
        txOp(FuzzOpKind::TxRead, Region::Shared, 1),
        txOp(FuzzOpKind::Release, Region::Shared, 1),
        txOp(FuzzOpKind::ImmRead, Region::Scratch, 0),
        txOp(FuzzOpKind::ImmStore, Region::Scratch, 1, 7),
        txOp(FuzzOpKind::ImmStoreIdem, Region::Scratch, 2, 9),
        txOp(FuzzOpKind::Exec, Region::Scratch, 0, 5),
        txOp(FuzzOpKind::HandlerCommit, Region::Scratch, 3, 1),
        txOp(FuzzOpKind::HandlerViolation, Region::Scratch, 0),
        txOp(FuzzOpKind::HandlerAbort, Region::Scratch, 1, 1),
        nestOp(1),
        nestOp(2),
        nestOp(3),
        txOp(FuzzOpKind::TxAdd, Region::Private, 0, 4),
    };
    FuzzTx closedChild;
    closedChild.ops = {
        txOp(FuzzOpKind::TxAdd, Region::Shared, 2, 5),
        txOp(FuzzOpKind::TxRead, Region::Naked, 0),
    };
    FuzzTx openChild;
    openChild.open = true;
    openChild.ops = {
        txOp(FuzzOpKind::TxAdd, Region::Open, 0, 6),
        txOp(FuzzOpKind::TxRead, Region::Open, 1),
    };
    FuzzTx abortingChild;
    abortingChild.ops = {
        txOp(FuzzOpKind::TxAdd, Region::Shared, 3, 8),
        txOp(FuzzOpKind::Abort, Region::Scratch, 0, 1),
    };
    p.txs = {outer, closedChild, openChild, abortingChild};
    p.threads = {{
        threadOp(ThreadOpKind::NakedLoad, Region::Naked, 1),
        threadOp(ThreadOpKind::RunTx, Region::Naked, 0, 0, 0),
        threadOp(ThreadOpKind::Work, Region::Naked, 0, 10),
        threadOp(ThreadOpKind::NakedStore, Region::Private, 0, 42),
        threadOp(ThreadOpKind::NakedLoad, Region::Private, 0),
    }};
    return p;
}

} // namespace

TEST(FuzzWalk, EveryOpRecordsTheSameUnitsOnBothEngines)
{
    const FuzzProgram p = everyOpProgram();
    StmFuzzInterp stm(p);
    const ObservedRun want = stm.run();
    const OracleVerdict sv = checkRun(p, want);
    ASSERT_TRUE(sv.ok) << "stm: " << sv.message;
    // naked load, open commit, outer commit, naked store, naked load
    ASSERT_EQ(want.units.size(), 5u);

    int fullConfigs = 0;
    for (const FuzzConfig& cfg : fuzzConfigs(p)) {
        if (cfg.htm.nesting != NestingMode::Full)
            continue;
        ++fullConfigs;
        SCOPED_TRACE(cfg.name);
        FuzzInterp interp(p, cfg.htm);
        const ObservedRun got = interp.run();
        const OracleVerdict v = checkRun(p, got);
        ASSERT_TRUE(v.ok) << v.message;

        ASSERT_EQ(got.units.size(), want.units.size());
        for (size_t i = 0; i < want.units.size(); ++i) {
            SCOPED_TRACE("unit " + std::to_string(i));
            const ObservedUnit& g = got.units[i];
            const ObservedUnit& w = want.units[i];
            EXPECT_EQ(g.kind, w.kind);
            EXPECT_EQ(g.dead, w.dead);
            EXPECT_EQ(g.filled, w.filled);
            EXPECT_EQ(g.value, w.value);
            if (g.kind == ObservedUnit::Kind::NakedLoad ||
                g.kind == ObservedUnit::Kind::NakedStore) {
                EXPECT_EQ(g.addr - got.layout.base,
                          w.addr - want.layout.base);
            }
            ASSERT_EQ(g.accesses.size(), w.accesses.size());
            for (size_t k = 0; k < w.accesses.size(); ++k) {
                EXPECT_EQ(g.accesses[k].kind, w.accesses[k].kind);
                EXPECT_EQ(g.accesses[k].value, w.accesses[k].value);
                EXPECT_EQ(g.accesses[k].addr - got.layout.base,
                          w.accesses[k].addr - want.layout.base);
            }
        }
        ASSERT_EQ(got.finalInvariant.size(), want.finalInvariant.size());
        for (size_t i = 0; i < want.finalInvariant.size(); ++i)
            EXPECT_EQ(got.finalInvariant[i].second,
                      want.finalInvariant[i].second);
    }
    EXPECT_EQ(fullConfigs, 3);
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

// --- the design-point table ----------------------------------------------

namespace {

struct PinnedPoint
{
    const char* name;
    VersionMode version;
    ConflictMode conflict;
    NestingMode nesting;
};

/** Every driver, replay file and BENCH_*.json names the design points
 *  this way and expects this order: eager-undolog runs first. */
const PinnedPoint pinnedPoints[] = {
    {"eager-undolog", VersionMode::UndoLog, ConflictMode::Eager,
     NestingMode::Full},
    {"eager-wb", VersionMode::WriteBuffer, ConflictMode::Eager,
     NestingMode::Full},
    {"lazy-wb", VersionMode::WriteBuffer, ConflictMode::Lazy,
     NestingMode::Full},
    {"lazy-wb-flatten", VersionMode::WriteBuffer, ConflictMode::Lazy,
     NestingMode::Flatten},
};

/** Every setting a design point must leave as @p want has it. */
void
expectOnlyModesDiffer(const HtmConfig& got, const HtmConfig& want)
{
    EXPECT_EQ(got.scheme, want.scheme);
    EXPECT_EQ(got.granularity, want.granularity);
    EXPECT_EQ(got.contention, want.contention);
    EXPECT_EQ(got.starvationThreshold, want.starvationThreshold);
    EXPECT_EQ(got.maxHwLevels, want.maxHwLevels);
    EXPECT_EQ(got.lazyMerge, want.lazyMerge);
    EXPECT_EQ(got.rsetCap, want.rsetCap);
    EXPECT_EQ(got.wsetCap, want.wsetCap);
    EXPECT_EQ(got.capacityMode, want.capacityMode);
    EXPECT_EQ(got.retryBackoff, want.retryBackoff);
}

} // namespace

TEST(DesignPoints, NamesAndOrderArePinned)
{
    ASSERT_EQ(std::size(designPoints), std::size(pinnedPoints));
    const auto cfgs = fuzzConfigs(tinyProgram());
    ASSERT_EQ(cfgs.size(), std::size(pinnedPoints));
    for (size_t i = 0; i < std::size(pinnedPoints); ++i) {
        EXPECT_STREQ(designPoints[i].name, pinnedPoints[i].name);
        EXPECT_EQ(cfgs[i].name, pinnedPoints[i].name);
    }
}

TEST(DesignPoints, EachPointSetsItsThreeModes)
{
    for (const PinnedPoint& want : pinnedPoints) {
        SCOPED_TRACE(want.name);
        const DesignPoint& d = designPoint(want.name);
        EXPECT_STREQ(d.name, want.name);
        const HtmConfig htm = d.apply(HtmConfig{});
        EXPECT_EQ(htm.version, want.version);
        EXPECT_EQ(htm.conflict, want.conflict);
        EXPECT_EQ(htm.nesting, want.nesting);
        expectOnlyModesDiffer(htm, HtmConfig{});
    }
}

TEST(DesignPoints, FuzzConfigsApplyTheProgramToggles)
{
    FuzzProgram p = tinyProgram();
    p.wordGranularity = true;
    p.contention = ContentionPolicy::Karma;
    p.rsetCap = 3;
    p.wsetCap = 5;
    p.capacityMode = CapacityMode::Overflow;
    HtmConfig toggled;
    toggled.granularity = TrackGranularity::Word;
    toggled.contention = ContentionPolicy::Karma;
    toggled.rsetCap = 3;
    toggled.wsetCap = 5;
    toggled.capacityMode = CapacityMode::Overflow;

    const auto cfgs = fuzzConfigs(p);
    ASSERT_EQ(cfgs.size(), std::size(pinnedPoints));
    for (size_t i = 0; i < cfgs.size(); ++i) {
        SCOPED_TRACE(cfgs[i].name);
        const HtmConfig& htm = cfgs[i].htm;
        EXPECT_EQ(htm.version, pinnedPoints[i].version);
        EXPECT_EQ(htm.conflict, pinnedPoints[i].conflict);
        EXPECT_EQ(htm.nesting, pinnedPoints[i].nesting);
        expectOnlyModesDiffer(htm, toggled);
        expectOnlyModesDiffer(fuzzConfig(p, designPoint(cfgs[i].name)),
                              toggled);
    }
    // An untoggled program runs the design points as they are.
    for (const FuzzConfig& c : fuzzConfigs(tinyProgram()))
        expectOnlyModesDiffer(c.htm, HtmConfig{});
}

TEST(DesignPoints, UnknownNameIsRejected)
{
    EXPECT_EQ(findChoice(designPoints, "lazy"), nullptr);
    EXPECT_EQ(findChoice(designPoints, "eager-undolog-multitrack"),
              nullptr);
    LogContext ctx;
    ctx.throwOnFatal = true;
    LogScope scope(ctx);
    try {
        designPoint("bogus");
        ADD_FAILURE() << "designPoint(\"bogus\") returned";
    } catch (const FatalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'bogus'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("eager-undolog|eager-wb|lazy-wb|"
                           "lazy-wb-flatten"),
                  std::string::npos)
            << msg;
    }
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

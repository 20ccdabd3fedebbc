/**
 * @file
 * Property-based tests (parameterised sweeps): serialisability
 * witnesses under randomised workloads across the full HTM
 * configuration space, plus determinism of the simulator itself.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "core/machine.hh"
#include "runtime/tx_thread.hh"
#include "sim/rng.hh"
#include "workloads/btree.hh"

using namespace tmsim;

namespace {

struct PropCase
{
    const char* tag;
    VersionMode version;
    ConflictMode conflict;
    ContentionPolicy contention;
    NestingMode nesting;
    NestScheme scheme;
    int threads;
};

HtmConfig
toConfig(const PropCase& c)
{
    HtmConfig htm;
    htm.version = c.version;
    htm.conflict = c.conflict;
    htm.contention = c.contention;
    htm.nesting = c.nesting;
    htm.scheme = c.scheme;
    return htm;
}

MachineConfig
machineConfig(const PropCase& c)
{
    MachineConfig cfg;
    cfg.numCpus = c.threads;
    cfg.htm = toConfig(c);
    cfg.memBytes = 16 * 1024 * 1024;
    return cfg;
}

class PropertyTest : public ::testing::TestWithParam<PropCase>
{
};

} // namespace

TEST_P(PropertyTest, RandomNestedCountersAreExact)
{
    const PropCase& pc = GetParam();
    Machine m(machineConfig(pc));
    std::vector<std::unique_ptr<TxThread>> threads;
    for (int i = 0; i < pc.threads; ++i)
        threads.push_back(std::make_unique<TxThread>(m.cpu(i)));

    constexpr int counters = 6;
    Addr base = m.memory().allocate(counters * 64, 64);
    auto addrOf = [&](int i) { return base + static_cast<Addr>(i) * 64; };
    constexpr int opsPerThread = 25;
    std::vector<int> expected(counters, 0);

    // Host-side expectation: each thread's op sequence is derived from
    // a deterministic RNG; increments survive exactly once per commit.
    for (int t = 0; t < pc.threads; ++t) {
        Rng rng(1000 + static_cast<std::uint64_t>(t));
        for (int k = 0; k < opsPerThread; ++k) {
            rng.next(); // depth draw
            ++expected[static_cast<size_t>(rng.below(counters))];
        }
    }

    for (int t = 0; t < pc.threads; ++t) {
        m.spawn(t, [&, t](Cpu&) -> SimTask {
            TxThread& th = *threads[static_cast<size_t>(t)];
            Rng rng(1000 + static_cast<std::uint64_t>(t));
            for (int k = 0; k < opsPerThread; ++k) {
                int depth = static_cast<int>(rng.next() % 3); // 0..2
                int idx = static_cast<int>(rng.below(counters));
                Addr a = addrOf(idx);
                auto increment = [&](TxThread& tx) -> SimTask {
                    Word v = co_await tx.ld(a);
                    co_await tx.work(5);
                    co_await tx.st(a, v + 1);
                };
                co_await th.atomic([&](TxThread& tx) -> SimTask {
                    co_await tx.work(10);
                    if (depth == 0) {
                        co_await increment(tx);
                    } else if (depth == 1) {
                        co_await tx.atomic([&](TxThread& ti) -> SimTask {
                            co_await increment(ti);
                        });
                    } else {
                        co_await tx.atomic([&](TxThread& ti) -> SimTask {
                            co_await ti.atomic(
                                [&](TxThread& tj) -> SimTask {
                                    co_await increment(tj);
                                });
                        });
                    }
                });
            }
        });
    }
    m.run();
    for (int i = 0; i < counters; ++i) {
        EXPECT_EQ(m.memory().read(addrOf(i)),
                  static_cast<Word>(expected[static_cast<size_t>(i)]))
            << pc.tag << " counter " << i;
    }
}

TEST_P(PropertyTest, RandomTransfersConserveTotal)
{
    const PropCase& pc = GetParam();
    Machine m(machineConfig(pc));
    std::vector<std::unique_ptr<TxThread>> threads;
    for (int i = 0; i < pc.threads; ++i)
        threads.push_back(std::make_unique<TxThread>(m.cpu(i)));

    constexpr int accounts = 12;
    constexpr Word initial = 500;
    Addr base = m.memory().allocate(accounts * 64, 64);
    auto addrOf = [&](int i) { return base + static_cast<Addr>(i) * 64; };
    for (int i = 0; i < accounts; ++i)
        m.memory().write(addrOf(i), initial);

    for (int t = 0; t < pc.threads; ++t) {
        m.spawn(t, [&, t](Cpu&) -> SimTask {
            TxThread& th = *threads[static_cast<size_t>(t)];
            Rng rng(77 + static_cast<std::uint64_t>(t));
            for (int k = 0; k < 20; ++k) {
                int from = static_cast<int>(rng.below(accounts));
                int to = static_cast<int>(rng.below(accounts));
                Word amount = rng.range(1, 400);
                bool sometimesAbort = rng.chancePermille(150);
                TxOutcome out = co_await th.atomic(
                    [&](TxThread& tx) -> SimTask {
                        Word b = co_await tx.ld(addrOf(from));
                        if (b < amount || sometimesAbort)
                            co_await tx.cpu().xabort(1);
                        co_await tx.st(addrOf(from), b - amount);
                        // The deposit runs closed-nested: composable.
                        co_await tx.atomic([&](TxThread& ti) -> SimTask {
                            Word c = co_await ti.ld(addrOf(to));
                            co_await ti.st(addrOf(to), c + amount);
                        });
                    });
                (void)out;
            }
        });
    }
    m.run();
    Word total = 0;
    for (int i = 0; i < accounts; ++i)
        total += m.memory().read(addrOf(i));
    EXPECT_EQ(total, static_cast<Word>(accounts) * initial) << pc.tag;
}

TEST_P(PropertyTest, BTreeKeySetMatchesModelUnderConcurrency)
{
    const PropCase& pc = GetParam();
    Machine m(machineConfig(pc));
    SimBTree tree = SimBTree::create(m.memory(), 4096);
    std::vector<std::unique_ptr<TxThread>> threads;
    for (int i = 0; i < pc.threads; ++i)
        threads.push_back(std::make_unique<TxThread>(m.cpu(i)));

    // Disjoint per-thread key ranges keep the expected key set exact;
    // structural interference (splits, shared upper nodes) remains.
    std::set<Word> expectedKeys;
    for (int t = 0; t < pc.threads; ++t) {
        Rng rng(5 + static_cast<std::uint64_t>(t));
        for (int k = 0; k < 20; ++k)
            expectedKeys.insert(static_cast<Word>(t) * 1000 +
                                rng.range(1, 200));
    }

    for (int t = 0; t < pc.threads; ++t) {
        m.spawn(t, [&, t](Cpu&) -> SimTask {
            TxThread& th = *threads[static_cast<size_t>(t)];
            Rng rng(5 + static_cast<std::uint64_t>(t));
            for (int k = 0; k < 20; ++k) {
                Word key = static_cast<Word>(t) * 1000 + rng.range(1, 200);
                co_await th.atomic([&](TxThread& tx) -> SimTask {
                    co_await tree.insert(tx, key, key);
                });
            }
        });
    }
    m.run();
    EXPECT_TRUE(tree.validateStructure(m.memory())) << pc.tag;
    auto items = tree.items(m.memory());
    std::set<Word> got;
    for (const auto& [k, v] : items) {
        (void)v;
        got.insert(k);
    }
    EXPECT_EQ(got, expectedKeys) << pc.tag;
}

TEST_P(PropertyTest, SimulationIsDeterministic)
{
    const PropCase& pc = GetParam();
    auto runOnce = [&]() -> Tick {
        Machine m(machineConfig(pc));
        std::vector<std::unique_ptr<TxThread>> threads;
        for (int i = 0; i < pc.threads; ++i)
            threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
        Addr a = m.memory().allocate(64);
        for (int t = 0; t < pc.threads; ++t) {
            m.spawn(t, [&, t](Cpu&) -> SimTask {
                TxThread& th = *threads[static_cast<size_t>(t)];
                for (int k = 0; k < 15; ++k) {
                    co_await th.atomic([&](TxThread& tx) -> SimTask {
                        Word v = co_await tx.ld(a);
                        co_await tx.work(7);
                        co_await tx.st(a, v + 1);
                    });
                }
            });
        }
        return m.run();
    };
    Tick first = runOnce();
    Tick second = runOnce();
    EXPECT_EQ(first, second) << pc.tag;
    EXPECT_GT(first, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, PropertyTest,
    ::testing::Values(
        PropCase{"lazy_wb_assoc_4t", VersionMode::WriteBuffer,
                 ConflictMode::Lazy, ContentionPolicy::Requester,
                 NestingMode::Full, NestScheme::Associativity, 4},
        PropCase{"lazy_wb_mtrack_4t", VersionMode::WriteBuffer,
                 ConflictMode::Lazy, ContentionPolicy::Requester,
                 NestingMode::Full, NestScheme::MultiTracking, 4},
        PropCase{"lazy_flatten_4t", VersionMode::WriteBuffer,
                 ConflictMode::Lazy, ContentionPolicy::Requester,
                 NestingMode::Flatten, NestScheme::Associativity, 4},
        PropCase{"eager_req_4t", VersionMode::UndoLog, ConflictMode::Eager,
                 ContentionPolicy::Requester, NestingMode::Full,
                 NestScheme::MultiTracking, 4},
        PropCase{"eager_timestamp_4t", VersionMode::UndoLog,
                 ConflictMode::Eager, ContentionPolicy::Timestamp,
                 NestingMode::Full, NestScheme::MultiTracking, 4},
        PropCase{"eager_wb_4t", VersionMode::WriteBuffer,
                 ConflictMode::Eager, ContentionPolicy::Requester,
                 NestingMode::Full, NestScheme::Associativity, 4},
        PropCase{"lazy_wb_assoc_8t", VersionMode::WriteBuffer,
                 ConflictMode::Lazy, ContentionPolicy::Requester,
                 NestingMode::Full, NestScheme::Associativity, 8},
        PropCase{"eager_flatten_8t", VersionMode::UndoLog,
                 ConflictMode::Eager, ContentionPolicy::Requester,
                 NestingMode::Flatten, NestScheme::MultiTracking, 8}),
    [](const ::testing::TestParamInfo<PropCase>& info) {
        return std::string(info.param.tag);
    });

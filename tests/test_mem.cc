/**
 * @file
 * Memory-system unit tests: backing store, cache geometry, cache
 * presence/LRU/eviction, the transactional line annotations of both
 * nesting schemes, the untouched tag memory of a fresh cache, the
 * per-thread recycling of tag arrays, bus arbitration/occupancy, and
 * FIFO resources.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/machine.hh"
#include "mem/backing_store.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "sim/logging.hh"
#include "sim/task.hh"

using namespace tmsim;

TEST(BackingStore, ReadWriteAndBounds)
{
    BackingStore mem(1 << 20);
    mem.write(64, 0xDEADBEEF);
    EXPECT_EQ(mem.read(64), 0xDEADBEEFu);
    EXPECT_EQ(mem.read(72), 0u);
}

TEST(BackingStore, WatchAddrEnvParsesStrictly)
{
    // Valid addresses, all supported bases.
    EXPECT_EQ(watchAddrFromEnv("64"), 64u);
    EXPECT_EQ(watchAddrFromEnv("0x40"), 0x40u);
    EXPECT_EQ(watchAddrFromEnv("0"), 0u);

    // Unset or empty: watchpoint off, no warning.
    EXPECT_EQ(watchAddrFromEnv(nullptr), invalidAddr);
    EXPECT_EQ(watchAddrFromEnv(""), invalidAddr);

    // Garbage must disable the watchpoint, not watch address 0
    // (strtoull's silent fallback) or wrap around (negatives).
    EXPECT_EQ(watchAddrFromEnv("oops"), invalidAddr);
    EXPECT_EQ(watchAddrFromEnv("0x40zz"), invalidAddr);
    EXPECT_EQ(watchAddrFromEnv("-64"), invalidAddr);
    EXPECT_EQ(watchAddrFromEnv("99999999999999999999999"), invalidAddr);
}

TEST(BackingStore, AllocatorAlignsAndAdvances)
{
    BackingStore mem(1 << 20);
    Addr a = mem.allocate(100, 64);
    Addr b = mem.allocate(8, 64);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 100);
}

namespace {

/** Run @p fn under a fatal-trapping scope and expect it to fatal. */
template <typename Fn>
void
expectFatal(Fn&& fn)
{
    LogContext ctx;
    ctx.quiet = true;
    ctx.throwOnFatal = true;
    LogScope scope(ctx);
    EXPECT_THROW(fn(), FatalError);
}

} // namespace

TEST(BackingStore, AllocatorRejectsWrappingSizes)
{
    // `base + n_bytes` would wrap for sizes near UINT64_MAX; a
    // wrapping comparison would admit the request and hand out a
    // bogus base instead of reporting exhaustion.
    BackingStore mem(1 << 20);
    expectFatal([&] { mem.allocate(~static_cast<Addr>(0), 8); });
    expectFatal([&] { mem.allocate(~static_cast<Addr>(0) - 32, 64); });

    // Alignment padding must not wrap either: an alignment boundary
    // beyond the end of memory makes the pad overshoot the remaining
    // bytes, which the pad check must catch before `base += pad`.
    BackingStore tight(1 << 20);
    expectFatal([&] { tight.allocate(8, 1 << 21); });

    // A fit that exactly reaches the top of memory still succeeds.
    BackingStore exact(1 << 20);
    Addr base = exact.allocate((1 << 20) - 64, 64);
    EXPECT_EQ(base, 64u);
    EXPECT_EQ(exact.allocate(0, 8), static_cast<Addr>(1) << 20);
}

using BackingStoreDeathTest = ::testing::Test;

TEST(BackingStoreDeathTest, BoundsCheckDoesNotWrap)
{
    // `addr + wordBytes` wraps for addresses near UINT64_MAX; the
    // subtraction-form check must reject them instead of reading
    // host memory at a wrapped index.
    BackingStore mem(1 << 20);
    EXPECT_DEATH((void)mem.read(~static_cast<Addr>(0) - 7),
                 "out-of-range");
    EXPECT_DEATH(mem.write(~static_cast<Addr>(0) - 7, 1),
                 "out-of-range");
    EXPECT_DEATH((void)mem.read(1 << 20), "out-of-range");
    // The last word in range is still accessible.
    mem.write((1 << 20) - 8, 7);
    EXPECT_EQ(mem.read((1 << 20) - 8), 7u);
}

TEST(BackingStore, WatchAddrIsPerInstance)
{
    // The watchpoint used to be latched in a function-local static on
    // first write: the first store constructed owned it forever and
    // later instances silently shared (or lost) it. It is now plain
    // per-instance state.
    BackingStore a(1 << 20);
    BackingStore b(1 << 20);
    EXPECT_EQ(a.watchAddr(), b.watchAddr());

    a.setWatchAddr(128);
    EXPECT_EQ(a.watchAddr(), 128u);
    EXPECT_NE(b.watchAddr(), 128u);

    b.setWatchAddr(256);
    EXPECT_EQ(a.watchAddr(), 128u);
    EXPECT_EQ(b.watchAddr(), 256u);

    a.setWatchAddr(invalidAddr);
    EXPECT_EQ(a.watchAddr(), invalidAddr);
    EXPECT_EQ(b.watchAddr(), 256u);
}

TEST(BackingStore, SparseReadsDoNotMaterializeChunks)
{
    BackingStore mem(1 << 20);

    // Reads of untouched memory return zero without allocating.
    EXPECT_EQ(mem.read(64), 0u);
    EXPECT_EQ(mem.read((1 << 20) - 8), 0u);
    EXPECT_EQ(mem.touchedChunks(), 0u);
    EXPECT_EQ(mem.hostWordsAllocated(), 0u);

    // First write materializes exactly one chunk; the rest of that
    // chunk reads as zero (value-initialized).
    mem.write(64, 0xABCD);
    EXPECT_EQ(mem.touchedChunks(), 1u);
    EXPECT_EQ(mem.hostWordsAllocated(),
              BackingStore::chunkBytes / wordBytes);
    EXPECT_EQ(mem.read(64), 0xABCDu);
    EXPECT_EQ(mem.read(72), 0u);

    // A second write in the same chunk allocates nothing new.
    mem.write(BackingStore::chunkBytes - 8, 1);
    EXPECT_EQ(mem.touchedChunks(), 1u);
    // One past the chunk boundary starts a second chunk.
    mem.write(BackingStore::chunkBytes, 2);
    EXPECT_EQ(mem.touchedChunks(), 2u);
}

TEST(BackingStore, SparseHugeAddressSpaceAllocatesOnlyTouchedChunks)
{
    // A terabyte of simulated memory must cost host memory
    // proportional to the chunks actually written, not the address
    // space, which would take 128 GiB of host words.
    const Addr tib = static_cast<Addr>(1) << 40;
    BackingStore mem(tib);
    EXPECT_EQ(mem.hostWordsAllocated(), 0u);

    // Scatter writes across the whole space, far apart: one chunk
    // each.
    const int n = 11;
    for (int i = 0; i < n; ++i)
        mem.write(static_cast<Addr>(i) * (tib / n) & ~static_cast<Addr>(7),
                  i + 1);
    EXPECT_EQ(mem.touchedChunks(), static_cast<std::size_t>(n));
    EXPECT_EQ(mem.hostWordsAllocated(),
              n * (BackingStore::chunkBytes / wordBytes));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(mem.read(static_cast<Addr>(i) * (tib / n) &
                           ~static_cast<Addr>(7)),
                  static_cast<Word>(i + 1));
}

TEST(BackingStore, MixedTrafficMatchesReferenceMap)
{
    // Random reads and writes checked against a plain map of every
    // word written; words never written read as zero.
    BackingStore mem(1 << 18);
    std::unordered_map<Addr, Word> model;
    auto expected = [&](Addr a) {
        auto it = model.find(a);
        return it == model.end() ? Word{0} : it->second;
    };
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 2000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Addr addr = (x % (1 << 18)) & ~static_cast<Addr>(7);
        if (x & 1) {
            mem.write(addr, x);
            model[addr] = x;
        } else {
            EXPECT_EQ(mem.read(addr), expected(addr));
        }
    }
    for (Addr a = 0; a < (1 << 18); a += 8)
        ASSERT_EQ(mem.read(a), expected(a)) << "addr " << a;
}

TEST(CacheGeometry, DerivedParameters)
{
    CacheGeometry g{32 * 1024, 32, 4, 1};
    EXPECT_EQ(g.numSets(), 256);
    EXPECT_EQ(g.wordsPerLine(), 4);
    EXPECT_EQ(g.lineAddr(0x1234), 0x1220u);
    g.validate("test");
}

namespace {

Cache
makeCache(NestScheme scheme, StatsRegistry& stats, int assoc = 2,
          Addr size = 1024)
{
    return Cache("test", CacheGeometry{size, 32, assoc, 1}, scheme, 4,
                 stats);
}

} // namespace

TEST(Cache, HitMissAndFill)
{
    StatsRegistry stats;
    Cache c = makeCache(NestScheme::Associativity, stats);
    EXPECT_FALSE(c.lookup(0x100));
    c.fill(0x100);
    EXPECT_TRUE(c.lookup(0x100));
    EXPECT_EQ(stats.value("test.hits"), 1u);
    EXPECT_EQ(stats.value("test.misses"), 1u);
}

TEST(Cache, LruEvictionWithinSet)
{
    StatsRegistry stats;
    // 1024B / 32B / 2-way = 16 sets; addresses 32*16 apart share a set.
    Cache c = makeCache(NestScheme::Associativity, stats);
    const Addr stride = 32 * 16;
    c.fill(0);
    c.fill(stride);
    c.lookup(0); // 0 is now MRU
    c.fill(2 * stride);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(stride)); // LRU victim
    EXPECT_EQ(stats.value("test.evictions"), 1u);
}

TEST(Cache, TransactionalVictimCountsAsOverflow)
{
    StatsRegistry stats;
    Cache c = makeCache(NestScheme::Associativity, stats);
    const Addr stride = 32 * 16;
    c.mark(0, 1, true);
    c.mark(stride, 1, true);
    EvictInfo e = c.fill(2 * stride);
    EXPECT_TRUE(e.evicted);
    EXPECT_TRUE(e.transactional);
    EXPECT_EQ(stats.value("test.tx_overflows"), 1u);
}

TEST(Cache, MultiTrackingPerLevelBits)
{
    StatsRegistry stats;
    Cache c = makeCache(NestScheme::MultiTracking, stats);
    c.mark(0x100, 1, false);
    c.mark(0x100, 2, true);
    EXPECT_TRUE(c.marked(0x100, 1, false));
    EXPECT_FALSE(c.marked(0x100, 2, false));
    EXPECT_TRUE(c.marked(0x100, 2, true));
    EXPECT_EQ(c.versionCount(0x100), 1); // single line, multiple bits

    c.mergeLevelDown(2);
    EXPECT_TRUE(c.marked(0x100, 1, true));
    EXPECT_FALSE(c.marked(0x100, 2, true));

    c.clearLevel(1);
    EXPECT_FALSE(c.hasTxMeta(0x100));
    EXPECT_TRUE(c.contains(0x100));
}

TEST(Cache, AssociativityVersionReplication)
{
    StatsRegistry stats;
    Cache c = makeCache(NestScheme::Associativity, stats, 4);
    c.mark(0x100, 1, true);
    c.mark(0x100, 2, true); // child writes too: new version
    EXPECT_EQ(c.versionCount(0x100), 2);
    EXPECT_EQ(stats.value("test.version_replications"), 1u);
    EXPECT_TRUE(c.marked(0x100, 1, true));
    EXPECT_TRUE(c.marked(0x100, 2, true));

    // Closed commit merges the child version into the parent's.
    c.mergeLevelDown(2);
    EXPECT_EQ(c.versionCount(0x100), 1);
    EXPECT_TRUE(c.marked(0x100, 1, true));
}

TEST(Cache, AssociativityRollbackKeepsReadOnlyData)
{
    StatsRegistry stats;
    Cache c = makeCache(NestScheme::Associativity, stats, 4);
    c.mark(0x100, 1, false); // clean read
    c.mark(0x140, 1, true); // dirty speculative
    c.clearLevel(1);
    // Committed (clean) data survives the rollback...
    EXPECT_TRUE(c.contains(0x100));
    // ...speculative data does not.
    EXPECT_FALSE(c.contains(0x140));
}

TEST(Cache, OpenCommitKeepsDataDropsAnnotations)
{
    StatsRegistry stats;
    Cache c = makeCache(NestScheme::Associativity, stats, 4);
    c.mark(0x100, 2, true);
    c.commitOpenLevel(2);
    EXPECT_TRUE(c.contains(0x100));
    EXPECT_FALSE(c.hasTxMeta(0x100));
}

TEST(Cache, InvalidateNonSpecLeavesTxLines)
{
    StatsRegistry stats;
    Cache c = makeCache(NestScheme::Associativity, stats, 4);
    c.fill(0x100);
    c.mark(0x140, 1, true);
    c.invalidateNonSpec(0x100);
    c.invalidateNonSpec(0x140);
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_TRUE(c.contains(0x140)); // speculative copies are immune
}

namespace {

/** What a cache reports about one line between operations. */
struct Seen
{
    bool contains;
    bool txMeta;
    bool written;
    int versions;
    std::uint64_t txLines;

    bool operator==(const Seen&) const = default;
};

/** Line @p a's observable state through fill, a transactional write,
 *  rollback, refill and a commit snoop. */
std::vector<Seen>
lifeOf(Cache& c, Addr a)
{
    std::vector<Seen> seen;
    auto observe = [&] {
        seen.push_back({c.contains(a), c.hasTxMeta(a), c.marked(a, 1, true),
                        c.versionCount(a), c.txLineCount()});
    };
    c.fill(a);
    observe();
    c.mark(a, 1, true);
    observe();
    c.clearLevel(1);
    observe();
    c.fill(a);
    c.invalidateNonSpec(a);
    observe();
    return seen;
}

/** Checks that @p c holds nothing, as a fresh mapping would. */
void
expectEmpty(const Cache& c)
{
    std::vector<Addr> probes = {1ull << 20, 1ull << 40, ~Addr{31}};
    for (Addr a = 0; a < 64 * 32; a += 32)
        probes.push_back(a);
    for (Addr a : probes) {
        EXPECT_FALSE(c.contains(a)) << a;
        EXPECT_FALSE(c.hasTxMeta(a)) << a;
        EXPECT_EQ(c.versionCount(a), 0) << a;
    }
    EXPECT_EQ(c.txLineCount(), 0u);
}

/** lifeOf() in a cache of its own. */
std::vector<Seen>
lifeOf(NestScheme scheme, Addr a)
{
    StatsRegistry stats;
    Cache c = makeCache(scheme, stats);
    return lifeOf(c, a);
}

} // namespace

TEST(Cache, FreshWaysAreEmptyAndLineZeroIsOrdinary)
{
    // An empty way is all-zero bytes, so its line address reads 0, the
    // same as the legal line 0: only the valid bit tells them apart.
    for (NestScheme scheme :
         {NestScheme::MultiTracking, NestScheme::Associativity}) {
        SCOPED_TRACE(scheme == NestScheme::MultiTracking ? "MultiTracking"
                                                         : "Associativity");
        StatsRegistry stats;
        Cache fresh = makeCache(scheme, stats);
        expectEmpty(fresh);

        const std::vector<Seen> zero = lifeOf(scheme, 0);
        EXPECT_EQ(zero, lifeOf(scheme, 0x100));
        ASSERT_EQ(zero.size(), 4u);
        // Filled: one copy, unannotated, none of the empty ways counted.
        EXPECT_EQ(zero[0], (Seen{true, false, false, 1, 0}));
        // Written at level 1: the same line, now indexed.
        EXPECT_EQ(zero[1], (Seen{true, true, true, 1, 1}));
        // Rolled back: multi-tracking keeps the data, the associativity
        // scheme drops the dirty version; no annotation is left.
        EXPECT_EQ(zero[2].contains, scheme == NestScheme::MultiTracking);
        EXPECT_FALSE(zero[2].txMeta);
        EXPECT_EQ(zero[2].txLines, 0u);
        // Refilled, then snooped away.
        EXPECT_EQ(zero[3], (Seen{false, false, false, 0, 0}));
    }
}

namespace {

#if defined(__SANITIZE_ADDRESS__)
extern "C" void __sanitizer_purge_allocator();
#endif

/** Resident memory of this process, from /proc/self/statm. Under ASan,
 *  first hand the allocator's quarantine of freed blocks back, so that
 *  the count follows live memory. */
long
residentBytes()
{
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_purge_allocator();
#endif
    std::ifstream statm("/proc/self/statm");
    long size = 0;
    long resident = 0;
    statm >> size >> resident;
    return resident * sysconf(_SC_PAGESIZE);
}

} // namespace

TEST(Cache, BuildingA64CpuMachineTouchesNoTagMemory)
{
    // 64 CPUs hold 64 x 17408 ways of L1/L2 tags. Building the Machine
    // must leave all of those pages untouched.
    MachineConfig cfg;
    cfg.numCpus = 64;
    const long before = residentBytes();
    Machine m(cfg);
    const long grown = residentBytes() - before;
    EXPECT_LT(grown, 4l << 20) << "grew by " << grown / 1024 << " KiB";
}

namespace {

/** makeCache()'s geometry: 16 two-way sets of 32-byte lines. */
const CacheGeometry smallGeom{1024, 32, 2, 1};

/**
 * Drives @p c through every path that writes its tag array: lifeOf()
 * on line 0, then fills that evict, reads and writes at three levels
 * (with the associativity scheme's replication), closed and open
 * commit, rollback, a transactional overflow, commit snoops and the
 * whole-context reset. Ends with annotated lines resident. Returns
 * what the cache reported about every line it touched after each
 * step, then its counters.
 */
std::vector<std::uint64_t>
workout(Cache& c, const StatsRegistry& stats, const std::string& name)
{
    const Addr stride = 32 * 16;
    const Addr touched[] = {0,      0x40,       0x80,       0xc0,
                            0x100,  stride,     2 * stride, 3 * stride,
                            stride + 0x40,      2 * stride + 0x40};
    std::vector<std::uint64_t> trace;
    for (const Seen& s : lifeOf(c, 0)) {
        trace.insert(trace.end(), {s.contains, s.txMeta, s.written,
                                   static_cast<std::uint64_t>(s.versions),
                                   s.txLines});
    }
    auto observe = [&] {
        for (Addr a : touched) {
            trace.push_back(c.contains(a));
            trace.push_back(c.hasTxMeta(a));
            trace.push_back(static_cast<std::uint64_t>(c.versionCount(a)));
            for (int level = 1; level <= 3; ++level) {
                trace.push_back(c.marked(a, level, false));
                trace.push_back(c.marked(a, level, true));
            }
        }
        trace.push_back(c.txLineCount());
    };
    c.fill(0);
    c.fill(stride);
    c.fill(2 * stride); // evicts from set 0
    observe();
    c.lookup(2 * stride); // a hit
    c.lookup(0x40);
    observe();
    c.mark(0, 1, false);
    c.mark(0x40, 1, true);
    c.mark(0x40, 2, true); // a second version under Associativity
    c.mark(0x80, 3, false);
    observe();
    c.mergeLevelDown(3);
    c.mergeLevelDown(2);
    observe();
    c.mark(0xc0, 2, true);
    c.mark(0x100, 2, false);
    c.commitOpenLevel(2);
    observe();
    c.mark(0x100, 2, true);
    c.mark(3 * stride, 2, false);
    c.clearLevel(2);
    observe();
    c.mark(stride + 0x40, 1, true);
    c.fill(2 * stride + 0x40); // a third line in set 2
    observe();
    c.invalidateNonSpec(0x80);
    c.invalidateNonSpec(2 * stride);
    observe();
    c.clearAllTx();
    observe();
    c.mark(0, 1, true);
    c.mark(0x100, 2, false);
    observe();
    for (const char* stat : {".hits", ".misses", ".evictions",
                             ".tx_overflows", ".version_replications"})
        trace.push_back(stats.value(name + stat));
    return trace;
}

} // namespace

TEST(Cache, RecycledTagArraysComeBackEmpty)
{
    // A freed cache zeroes the sets it wrote and parks its array; the
    // next cache of that name and size takes it instead of mapping
    // one. It must behave as a fresh mapping, step for step.
    for (NestScheme scheme :
         {NestScheme::MultiTracking, NestScheme::Associativity}) {
        const std::string name = scheme == NestScheme::MultiTracking
                                     ? "recycled.mt"
                                     : "recycled.assoc";
        SCOPED_TRACE(name);
        std::vector<std::uint64_t> reference;
        {
            // A name no cache had before, so a fresh mapping.
            const std::string freshName =
                name + ".fresh" + std::to_string(tagMemory().mappings);
            StatsRegistry stats;
            const std::uint64_t mapped = tagMemory().mappings;
            Cache fresh(freshName, smallGeom, scheme, 4, stats);
            ASSERT_EQ(tagMemory().mappings, mapped + 1);
            reference = workout(fresh, stats, freshName);
        }
        for (int round = 0; round < 3; ++round) {
            SCOPED_TRACE(round);
            StatsRegistry stats;
            const std::uint64_t mapped = tagMemory().mappings;
            Cache c(name, smallGeom, scheme, 4, stats);
            if (round > 0) {
                EXPECT_EQ(tagMemory().mappings, mapped)
                    << "the array was not recycled";
            }
            expectEmpty(c);
            EXPECT_EQ(workout(c, stats, name), reference);
        }
    }
}

TEST(Cache, PoolParksOneArrayPerName)
{
    // Two live caches share a name, then a larger one takes it: each
    // freed array unmaps the one parked under that name before it.
    // With 32-byte lines, a tag array spans the cache's size in bytes.
    const std::string name = "twin" + std::to_string(tagMemory().mappings);
    const CacheGeometry larger{4096, 32, 2, 1};
    StatsRegistry stats;
    auto a = std::make_unique<Cache>(name, smallGeom,
                                     NestScheme::MultiTracking, 4, stats);
    auto b = std::make_unique<Cache>(name, smallGeom,
                                     NestScheme::MultiTracking, 4, stats);
    const std::uint64_t live = tagMemory().bytesMapped;
    a.reset();
    EXPECT_EQ(tagMemory().bytesMapped, live);
    b.reset();
    EXPECT_EQ(tagMemory().bytesMapped, live - smallGeom.sizeBytes);
    {
        Cache c(name, larger, NestScheme::MultiTracking, 4, stats);
        EXPECT_EQ(tagMemory().bytesMapped,
                  live - smallGeom.sizeBytes + larger.sizeBytes);
    }
    EXPECT_EQ(tagMemory().bytesMapped,
              live - 2 * smallGeom.sizeBytes + larger.sizeBytes);
}

TEST(Cache, RebuildingAMachineMapsNoNewTagMemory)
{
    MachineConfig cfg;
    cfg.numCpus = 4;
    auto round = [&cfg](Addr base) {
        Machine m(cfg);
        for (int i = 0; i < cfg.numCpus; ++i) {
            m.spawn(i, [base, i](Cpu& cpu) -> SimTask {
                for (Addr k = 0; k < 64; ++k)
                    co_await cpu.load(base + (k * 4 + i) * 4096);
            });
        }
        m.run();
        ASSERT_TRUE(m.allDone());
    };
    round(0);
    const std::uint64_t mapped = tagMemory().mappings;
    for (int r = 1; r <= 100; ++r)
        round(static_cast<Addr>(r % 7) * 32);
    EXPECT_EQ(tagMemory().mappings, mapped);
}

TEST(Cache, RecycledTagArraysKeepTheirCpusPages)
{
    // Each of 64 CPUs loads one line in each of 64 pages of its L2
    // tags: CPUs 0-31 the first half of the array, CPUs 32-63 the
    // second, every line its own. A pool that handed CPU i another
    // CPU's array would fault in that CPU's pages again, 16 MiB per
    // round; one that keeps each name's array adds nothing.
    MachineConfig cfg;
    cfg.numCpus = 64;
    const Addr lineBytes = cfg.l2.lineBytes;
    const Addr sets = static_cast<Addr>(cfg.l2.numSets());
    const Addr setsPerPage =
        4096 / (lineBytes * static_cast<Addr>(cfg.l2.assoc));
    auto round = [&] {
        Machine m(cfg);
        for (int i = 0; i < cfg.numCpus; ++i) {
            m.spawn(i, [=](Cpu& cpu) -> SimTask {
                const Addr cpuNo = static_cast<Addr>(i);
                const Addr firstPage = cpuNo < 32 ? 0 : 64;
                for (Addr page = firstPage; page < firstPage + 64; ++page) {
                    const Addr set = page * setsPerPage + cpuNo % setsPerPage;
                    co_await cpu.load((cpuNo * sets + set) * lineBytes);
                }
            });
        }
        m.run();
        ASSERT_TRUE(m.allDone());
    };
    round();
    const long afterFirst = residentBytes();
    for (int r = 2; r <= 3; ++r) {
        round();
        const long grown = residentBytes() - afterFirst;
        EXPECT_LT(grown, 1l << 20)
            << "round " << r << " grew by " << grown / 1024 << " KiB";
    }
}

TEST(Cache, FreedAfterItsThreadsPoolStillUnmaps)
{
    const std::uint64_t before = tagMemory().bytesMapped;
    std::thread([] {
        // Thread-locals die in reverse order of construction. These two
        // are built before the Cache first reaches this thread's pool,
        // so the pool dies first and ~Cache finds it gone.
        thread_local StatsRegistry stats;
        thread_local std::unique_ptr<Cache> late;
        late = std::make_unique<Cache>("late", smallGeom,
                                       NestScheme::MultiTracking, 4, stats);
        late->mark(0x40, 1, true);
    }).join();
    EXPECT_EQ(tagMemory().bytesMapped, before);
}

TEST(FifoResource, GrantsInOrder)
{
    EventQueue eq;
    FifoResource res(eq);
    std::vector<int> order;

    auto user = [&](int id, Cycles hold) -> SimTask {
        co_await res.acquire();
        order.push_back(id);
        co_await Delay{eq, hold};
        res.release();
    };

    SimTask a = user(1, 10);
    SimTask b = user(2, 10);
    SimTask c = user(3, 10);
    a.start();
    b.start();
    c.start();
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(a.done() && b.done() && c.done());
    EXPECT_FALSE(res.busy());
}

TEST(Bus, ContentionSerialisesTransfers)
{
    EventQueue eq;
    StatsRegistry stats;
    Bus bus(eq, stats);

    Tick aDone = 0, bDone = 0;
    auto xfer = [&](Tick& done) -> SimTask {
        co_await bus.occupy(8);
        done = eq.curTick();
    };
    SimTask a = xfer(aDone);
    SimTask b = xfer(bDone);
    a.start();
    b.start();
    eq.run();
    // Second transfer waits for the first: done times differ by at
    // least the occupancy.
    EXPECT_GE(bDone, aDone + 8);
    EXPECT_EQ(stats.value("bus.transfers"), 2u);
    EXPECT_EQ(stats.value("bus.busy_cycles"),
              2 * (Bus::arbitrationLatency + 8));
}

TEST(Bus, LineFetchOverlapsDramWithOtherTraffic)
{
    EventQueue eq;
    StatsRegistry stats;
    Bus bus(eq, stats);

    // Two concurrent line fetches: split transactions overlap the DRAM
    // latency, so the total is far less than 2x a serial fetch.
    Tick t0 = 0, t1 = 0;
    auto fetch = [&](Tick& done) -> SimTask {
        co_await bus.lineFetch(32);
        done = eq.curTick();
    };
    SimTask a = fetch(t0);
    SimTask b = fetch(t1);
    a.start();
    b.start();
    eq.run();
    Tick serialEstimate = 2 * (Bus::arbitrationLatency + 1 +
                               Bus::memoryLatency + Bus::beatsForLine(32));
    EXPECT_LT(std::max(t0, t1), serialEstimate);
}

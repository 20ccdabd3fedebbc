/**
 * @file
 * StatsRegistry unit tests: counter sum() pattern matching (including
 * the overlap and no-match edge cases), log-linear (HDR) Distribution
 * bucketing and quantile error bounds, Formula evaluation, the schema
 * headers of both dump formats, the registry's storage contract
 * (stable references, allocations per chunk rather than per name, an
 * allocation-free merge) and output that does not depend on
 * registration order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"

// Every heap allocation in this binary goes through here, so a test
// can count the allocations a registry makes. (The deletes stay out of
// line: inlined next to the library's operator new, GCC would warn that
// free() does not match it.)
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
using Dist = StatsRegistry::Distribution;

namespace {

/** Heap allocations made while @p fn runs. */
template <typename Fn>
long
allocationsDuring(Fn fn)
{
    const long before = newCalls.load();
    fn();
    return newCalls.load() - before;
}

} // namespace

// runCampaign keeps one std::optional<Result> per job, and a campaign
// result holds a registry, so every byte here is paid once per job.
static_assert(sizeof(StatsRegistry) <= 144);

TEST(StatsSum, ExactNameWithoutStar)
{
    StatsRegistry reg;
    reg.counter("cpu0.loads") += 7;
    EXPECT_EQ(reg.sum("cpu0.loads"), 7u);
    EXPECT_EQ(reg.sum("cpu0.stores"), 0u); // never registered
}

TEST(StatsSum, EmptySuffixMatchesEveryPrefixedCounter)
{
    StatsRegistry reg;
    reg.counter("cpu0.loads") += 1;
    reg.counter("cpu1.loads") += 2;
    reg.counter("cpu10.stores") += 4;
    reg.counter("bus.transfers") += 100;
    EXPECT_EQ(reg.sum("cpu*"), 7u);
    EXPECT_EQ(reg.sum("*"), 107u); // empty prefix AND suffix: everything
}

TEST(StatsSum, EmptyPrefixMatchesEverySuffixedCounter)
{
    StatsRegistry reg;
    reg.counter("cpu0.htm.begins") += 3;
    reg.counter("cpu1.htm.begins") += 4;
    reg.counter("cpu1.htm.begins_other") += 8;
    EXPECT_EQ(reg.sum("*.htm.begins"), 7u);
}

TEST(StatsSum, PrefixAndSuffixMayNotOverlap)
{
    StatsRegistry reg;
    // "aba" matches prefix "ab" and suffix "ba" only if they may share
    // the middle character; sum() must require disjoint halves.
    reg.counter("aba") += 1;
    reg.counter("abba") += 2;
    reg.counter("abxba") += 4;
    EXPECT_EQ(reg.sum("ab*ba"), 6u);
}

TEST(StatsSum, NoMatchIsZero)
{
    StatsRegistry reg;
    reg.counter("cpu0.loads") += 5;
    EXPECT_EQ(reg.sum("gpu*"), 0u);
    EXPECT_EQ(reg.sum("cpu*.misses"), 0u);
    EXPECT_EQ(reg.sum("*"), 5u);
}

TEST(StatsSum, SameNameReturnsSameCounter)
{
    StatsRegistry reg;
    StatsRegistry::Counter& a = reg.counter("shared.name");
    StatsRegistry::Counter& b = reg.counter("shared.name");
    EXPECT_EQ(&a, &b);
    a += 3;
    ++b;
    EXPECT_EQ(reg.value("shared.name"), 4u);
}

TEST(Distribution, ZeroSubBucketBitsDegeneratesToLog2)
{
    // S = 0 is exactly the schema-v2 log2 layout: bucket 0 holds {0},
    // bucket b >= 1 holds [2^(b-1), 2^b - 1].
    EXPECT_EQ(Dist::bucketsFor(0), 65);
    EXPECT_EQ(Dist::bucketOf(0, 0), 0);
    EXPECT_EQ(Dist::bucketOf(1, 0), 1);
    EXPECT_EQ(Dist::bucketOf(3, 0), 2);
    EXPECT_EQ(Dist::bucketOf(1023, 0), 10);
    EXPECT_EQ(Dist::bucketOf(1024, 0), 11);
    EXPECT_EQ(Dist::bucketOf(~std::uint64_t{0}, 0), 64);
    EXPECT_EQ(Dist::bucketHi(64, 0), ~std::uint64_t{0});
}

TEST(Distribution, LinearRegionIsExactAtDefaultBits)
{
    // With S = 4, every value below 16 has its own unit bucket and
    // each log2 magnitude above splits into 16 sub-buckets.
    for (std::uint64_t v = 0; v < 16; ++v) {
        EXPECT_EQ(Dist::bucketOf(v, 4), static_cast<int>(v));
        EXPECT_EQ(Dist::bucketLo(static_cast<int>(v), 4), v);
        EXPECT_EQ(Dist::bucketHi(static_cast<int>(v), 4), v);
    }
    // [16, 32) is still unit-width (magnitude 4, width 2^0)...
    EXPECT_EQ(Dist::bucketOf(16, 4), 16);
    EXPECT_EQ(Dist::bucketOf(31, 4), 31);
    // ...and [32, 64) has width-2 sub-buckets: {32,33} share one.
    EXPECT_EQ(Dist::bucketOf(32, 4), Dist::bucketOf(33, 4));
    EXPECT_NE(Dist::bucketOf(33, 4), Dist::bucketOf(34, 4));
}

TEST(Distribution, BucketBoundsTileTheFullRangeAtEveryBits)
{
    for (int bits = 0; bits <= Dist::maxSubBucketBits; ++bits) {
        const int n = Dist::bucketsFor(bits);
        EXPECT_EQ(Dist::bucketLo(0, bits), 0u);
        for (int b = 1; b < n; ++b) {
            ASSERT_EQ(Dist::bucketLo(b, bits),
                      Dist::bucketHi(b - 1, bits) + 1)
                << "gap at bucket " << b << " bits " << bits;
            ASSERT_EQ(Dist::bucketOf(Dist::bucketLo(b, bits), bits), b)
                << "lo misindexed at bucket " << b << " bits " << bits;
            ASSERT_EQ(Dist::bucketOf(Dist::bucketHi(b, bits), bits), b)
                << "hi misindexed at bucket " << b << " bits " << bits;
        }
        EXPECT_EQ(Dist::bucketHi(n - 1, bits), ~std::uint64_t{0});
    }
}

TEST(Distribution, SampleTracksCountMinMaxMeanAndBuckets)
{
    StatsRegistry reg;
    Dist& d = reg.distribution("d");
    EXPECT_EQ(d.subBucketBits(), Dist::defaultSubBucketBits);
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.min(), 0u);
    EXPECT_EQ(d.max(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.highestBucket(), -1);

    for (std::uint64_t v : {0ull, 1ull, 3ull, 3ull, 100ull})
        d.sample(v);
    EXPECT_EQ(d.count(), 5u);
    EXPECT_EQ(d.total(), 107u);
    EXPECT_EQ(d.min(), 0u);
    EXPECT_EQ(d.max(), 100u);
    EXPECT_DOUBLE_EQ(d.mean(), 107.0 / 5.0);
    EXPECT_EQ(d.bucketCount(0), 1u); // {0}
    EXPECT_EQ(d.bucketCount(1), 1u); // {1}
    EXPECT_EQ(d.bucketCount(3), 2u); // {3} (exact linear region)
    EXPECT_EQ(d.bucketCount(d.bucketOf(100)), 1u);
    EXPECT_EQ(d.highestBucket(), d.bucketOf(100));

    std::uint64_t bucketSum = 0;
    for (int b = 0; b < d.numBuckets(); ++b)
        bucketSum += d.bucketCount(b);
    EXPECT_EQ(bucketSum, d.count());

    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.highestBucket(), -1);
}

namespace {

/** Deterministic 64-bit value stream (splitmix64). */
std::uint64_t
mix64(std::uint64_t& state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Exact quantile by sorting: the ceil(q*n)-th smallest sample. */
std::uint64_t
exactQuantile(std::vector<std::uint64_t> v, double q)
{
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    if (rank < 1)
        rank = 1;
    return v[rank - 1];
}

} // namespace

TEST(DistributionQuantile, ErrorBoundedAtEverySubBucketBits)
{
    // est >= exact and (est - exact) <= exact * 2^-S: the documented
    // bound, checked against sorted ground truth over a wide dynamic
    // range at every supported resolution.
    const double qs[] = {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0};
    for (int bits = 0; bits <= Dist::maxSubBucketBits; ++bits) {
        Dist d(bits);
        std::vector<std::uint64_t> samples;
        std::uint64_t state = 12345;
        for (int i = 0; i < 4000; ++i) {
            // Spread across magnitudes: shift a 64-bit draw right by
            // a varying amount so small and huge values both appear.
            const std::uint64_t v = mix64(state) >> (mix64(state) % 64);
            samples.push_back(v);
            d.sample(v);
        }
        for (double q : qs) {
            const std::uint64_t exact = exactQuantile(samples, q);
            const std::uint64_t est = d.quantile(q);
            ASSERT_GE(est, exact) << "bits " << bits << " q " << q;
            const double err = static_cast<double>(est - exact);
            const double bound =
                static_cast<double>(exact) / static_cast<double>(1 << bits);
            ASSERT_LE(err, bound) << "bits " << bits << " q " << q
                                  << " exact " << exact << " est " << est;
        }
    }
}

TEST(DistributionQuantile, DefaultBitsMeetTheSixPointTwoFivePercentBound)
{
    // The acceptance-criterion form of the bound: at the default
    // resolution the relative error never exceeds 6.25%.
    Dist d;
    std::vector<std::uint64_t> samples;
    std::uint64_t state = 99;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = mix64(state) % 1000000;
        samples.push_back(v);
        d.sample(v);
    }
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const std::uint64_t exact = exactQuantile(samples, q);
        const std::uint64_t est = d.quantile(q);
        ASSERT_GE(est, exact);
        ASSERT_LE(static_cast<double>(est - exact),
                  0.0625 * static_cast<double>(exact))
            << "q " << q;
    }
}

TEST(DistributionQuantile, EdgeCases)
{
    Dist d;
    EXPECT_EQ(d.quantile(0.5), 0u);   // empty
    EXPECT_EQ(d.quantile(0.0), 0u);   // empty, lower edge
    EXPECT_EQ(d.quantile(1.0), 0u);   // empty, upper edge
    EXPECT_EQ(d.quantile(0.999), 0u); // empty, p999

    d.sample(7);
    EXPECT_EQ(d.quantile(0.0), 7u);
    EXPECT_EQ(d.quantile(0.5), 7u);
    EXPECT_EQ(d.quantile(1.0), 7u);
    // Single sample: every tail percentile clamps to that sample, not
    // to the enclosing bucket's upper bound.
    EXPECT_EQ(d.quantile(0.999), 7u);

    // Quantiles clamp to the observed max, never a bucket bound
    // beyond it.
    Dist e;
    e.sample(1000);
    EXPECT_EQ(e.quantile(1.0), 1000u);
    EXPECT_EQ(e.quantile(0.999), 1000u);
}

TEST(DistributionQuantile, MergeIsExactAndOrderInvariant)
{
    // Folding per-job histograms must reproduce the single-histogram
    // bucket counts exactly, so merged quantiles are byte-identical
    // regardless of how samples were split across jobs.
    Dist whole;
    Dist parts[4];
    std::uint64_t state = 777;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = mix64(state) % 100000;
        whole.sample(v);
        parts[i % 4].sample(v);
    }
    Dist fwd, rev;
    for (int p = 0; p < 4; ++p)
        fwd.mergeFrom(parts[p]);
    for (int p = 3; p >= 0; --p)
        rev.mergeFrom(parts[p]);
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        EXPECT_EQ(fwd.quantile(q), whole.quantile(q)) << "q " << q;
        EXPECT_EQ(rev.quantile(q), whole.quantile(q)) << "q " << q;
    }
    EXPECT_EQ(fwd.count(), whole.count());
    EXPECT_EQ(fwd.total(), whole.total());
}

TEST(DistributionMerge, EmptyDestinationAdoptsSourceResolution)
{
    Dist dst(2);
    Dist src(6);
    src.sample(1234);
    dst.mergeFrom(src);
    EXPECT_EQ(dst.subBucketBits(), 6);
    EXPECT_EQ(dst.count(), 1u);
    EXPECT_EQ(dst.quantile(1.0), src.quantile(1.0));
}

TEST(DistributionMerge, MismatchedResolutionsAreFatal)
{
    Dist dst(2);
    dst.sample(5);
    Dist src(6);
    src.sample(9);
    LogContext ctx;
    ctx.throwOnFatal = true;
    ctx.quiet = true;
    LogScope scope(ctx);
    EXPECT_THROW(dst.mergeFrom(src), FatalError);
}

TEST(Formula, EvaluatesLazilyAgainstCurrentCounters)
{
    StatsRegistry reg;
    reg.counter("cpu0.hits") += 3;
    reg.counter("cpu1.hits") += 1;
    reg.counter("cpu0.accesses") += 8;
    reg.counter("cpu1.accesses") += 8;
    reg.formula("hit_rate", "cpu*.hits", "cpu*.accesses");
    EXPECT_DOUBLE_EQ(reg.formulaValue("hit_rate"), 4.0 / 16.0);

    reg.counter("cpu0.hits") += 4; // formulas never go stale
    EXPECT_DOUBLE_EQ(reg.formulaValue("hit_rate"), 8.0 / 16.0);

    reg.formula("div_zero", "cpu*.hits", "cpu*.misses");
    EXPECT_DOUBLE_EQ(reg.formulaValue("div_zero"), 0.0);
    EXPECT_DOUBLE_EQ(reg.formulaValue("no_such_formula"), 0.0);
}

TEST(Dump, TextDumpLeadsWithSchemaHeader)
{
    StatsRegistry reg;
    reg.counter("a.b") += 2;
    reg.distribution("lat").sample(5);
    reg.formula("ratio", "a.b", "a.b");
    std::ostringstream os;
    reg.dump(os);
    const std::string text = os.str();
    EXPECT_EQ(text.rfind("# tmsim-stats schema 3\n", 0), 0u)
        << "dump must lead with the schema header, got: " << text;
    EXPECT_NE(text.find("a.b 2\n"), std::string::npos);
    EXPECT_NE(text.find("lat::samples 1\n"), std::string::npos);
    EXPECT_NE(text.find("lat::p50 5\n"), std::string::npos);
    EXPECT_NE(text.find("lat::p99 5\n"), std::string::npos);
    EXPECT_NE(text.find("lat::p999 5\n"), std::string::npos);
    EXPECT_NE(text.find("lat::bucket[5,5] 1\n"), std::string::npos);
    EXPECT_NE(text.find("ratio 1\n"), std::string::npos);
}

TEST(Dump, JsonDumpCarriesSchemaAndAllThreeKinds)
{
    StatsRegistry reg;
    reg.counter("a.b") += 2;
    reg.distribution("lat").sample(5);
    reg.formula("ratio", "a.b", "a.b");
    std::ostringstream os;
    reg.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema\": \"tmsim-stats\""), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"a.b\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"samples\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"p50\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"p999\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"sub_bucket_bits\": 4"), std::string::npos);
    EXPECT_NE(json.find("{\"lo\": 5, \"hi\": 5, \"count\": 1}"),
              std::string::npos);
    EXPECT_NE(json.find("\"numerator\": \"a.b\""), std::string::npos);
}

TEST(Reset, ResetAllZeroesCountersAndDistributions)
{
    StatsRegistry reg;
    reg.counter("c") += 9;
    reg.distribution("d").sample(9);
    reg.resetAll();
    EXPECT_EQ(reg.value("c"), 0u);
    EXPECT_EQ(reg.findDistribution("d")->count(), 0u);
}

TEST(JainFairness, PerfectAndSkewedShares)
{
    StatsRegistry reg;
    reg.counter("cpu0.commits") += 4;
    reg.counter("cpu1.commits") += 4;
    reg.jainFairness("fair", "cpu*.commits");
    EXPECT_DOUBLE_EQ(reg.formulaValue("fair"), 1.0);

    reg.counter("cpu1.commits") += 4; // 4 vs 8
    EXPECT_DOUBLE_EQ(reg.formulaValue("fair"),
                     (12.0 * 12.0) / (2.0 * (16.0 + 64.0)));
}

TEST(JainFairness, AllZeroCountersArePerfectlyFair)
{
    // n matched counters all holding zero are equal shares of
    // nothing: fairness 1.0, not the old divide-by-zero 0.0.
    StatsRegistry reg;
    reg.counter("cpu0.commits");
    reg.counter("cpu1.commits");
    reg.jainFairness("fair", "cpu*.commits");
    EXPECT_DOUBLE_EQ(reg.formulaValue("fair"), 1.0);
}

TEST(JainFairness, NoMatchingCounterReadsZero)
{
    StatsRegistry reg;
    reg.jainFairness("fair", "cpu*.commits");
    EXPECT_DOUBLE_EQ(reg.formulaValue("fair"), 0.0);
}

TEST(Merge, CountersAddAndDistributionsFold)
{
    StatsRegistry a;
    a.counter("c") += 3;
    a.distribution("d").sample(1);
    a.distribution("d").sample(100);

    StatsRegistry b;
    b.counter("c") += 4;
    b.counter("only_b") += 7;
    b.distribution("d").sample(50);
    b.distribution("only_b_dist").sample(9);

    a.mergeFrom(b);
    EXPECT_EQ(a.value("c"), 7u);
    EXPECT_EQ(a.value("only_b"), 7u);
    const auto* d = a.findDistribution("d");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->count(), 3u);
    EXPECT_EQ(d->min(), 1u);
    EXPECT_EQ(d->max(), 100u);
    ASSERT_NE(a.findDistribution("only_b_dist"), nullptr);
    EXPECT_EQ(a.findDistribution("only_b_dist")->count(), 1u);
}

TEST(StatNames, PerCpuNamesAppendToTheCpuPrefix)
{
    EXPECT_EQ(cpuStatName(0, "l1"), "cpu0.l1");
    EXPECT_EQ(cpuStatName(127, "htm.capacity_restarts"),
              "cpu127.htm.capacity_restarts");
}

TEST(Merge, NamesInterleaveWithTheDestinations)
{
    // Source names sort before, between, on and after the
    // destination's; names() lists the merged set sorted all the same.
    StatsRegistry a;
    for (const char* name : {"b", "d", "f"})
        a.counter(name) += 1;
    a.distribution("m").sample(4);
    StatsRegistry b;
    for (const char* name : {"a", "b", "c", "e", "f", "g", "h"})
        b.counter(name) += 10;
    for (const char* name : {"l", "m", "n"})
        b.distribution(name).sample(7);

    a.mergeFrom(b);
    EXPECT_EQ(a.names(), (std::vector<std::string>{"a", "b", "c", "d", "e",
                                                   "f", "g", "h"}));
    for (const char* name : {"a", "c", "e", "g", "h"})
        EXPECT_EQ(a.value(name), 10u) << name;
    for (const char* name : {"b", "f"})
        EXPECT_EQ(a.value(name), 11u) << name;
    EXPECT_EQ(a.value("d"), 1u);
    for (const char* name : {"l", "n"}) {
        ASSERT_NE(a.findDistribution(name), nullptr) << name;
        EXPECT_EQ(a.findDistribution(name)->count(), 1u) << name;
    }
    EXPECT_EQ(a.findDistribution("m")->count(), 2u);
    EXPECT_EQ(a.findDistribution("m")->min(), 4u);
    EXPECT_EQ(a.findDistribution("m")->max(), 7u);
}

TEST(Merge, EmptySourceDistributionIsANoOp)
{
    StatsRegistry a;
    a.distribution("d").sample(5);
    StatsRegistry b;
    b.distribution("d"); // registered, never sampled
    a.mergeFrom(b);
    EXPECT_EQ(a.findDistribution("d")->count(), 1u);
    EXPECT_EQ(a.findDistribution("d")->min(), 5u);
}

TEST(Merge, FormulasRegisterWhereAbsent)
{
    StatsRegistry a;
    StatsRegistry b;
    b.counter("x.n") += 1;
    b.counter("x.d") += 2;
    b.formula("r", "x.n", "x.d");
    a.mergeFrom(b);
    EXPECT_DOUBLE_EQ(a.formulaValue("r"), 0.5);
}

TEST(Merge, OrderInvariantAggregation)
{
    // The campaign merges per-job registries in job order; the result
    // must not depend on which jobs contributed which counters.
    StatsRegistry parts[3];
    parts[0].counter("c") += 1;
    parts[1].counter("c") += 2;
    parts[1].distribution("d").sample(10);
    parts[2].distribution("d").sample(20);

    StatsRegistry fwd;
    for (const StatsRegistry& p : parts)
        fwd.mergeFrom(p);
    StatsRegistry rev;
    for (int i = 2; i >= 0; --i)
        rev.mergeFrom(parts[i]);

    std::ostringstream a, b;
    fwd.dumpJson(a);
    rev.dumpJson(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(Storage, ReferencesSurviveRegistrationMergeAndMove)
{
    StatsRegistry reg;
    StatsRegistry::Counter& c = reg.counter("held.counter");
    Dist& d = reg.distribution("held.dist");
    c += 5;
    d.sample(7);

    char name[32];
    for (int i = 0; i < 10000; ++i) {
        std::snprintf(name, sizeof(name), "fill.counter%d", i);
        reg.counter(name) += 1;
        if (i % 100 == 0) {
            std::snprintf(name, sizeof(name), "fill.dist%d", i);
            reg.distribution(name).sample(1);
        }
    }
    EXPECT_EQ(&reg.counter("held.counter"), &c);
    EXPECT_EQ(&reg.distribution("held.dist"), &d);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(d.count(), 1u);

    StatsRegistry other;
    other.counter("held.counter") += 2;
    other.counter("merge.new_counter") += 1;
    other.distribution("held.dist").sample(9);
    other.distribution("merge.new_dist").sample(1);
    reg.mergeFrom(other);
    EXPECT_EQ(&reg.counter("held.counter"), &c);
    EXPECT_EQ(&reg.distribution("held.dist"), &d);
    EXPECT_EQ(c.value(), 7u);
    EXPECT_EQ(d.count(), 2u);
    EXPECT_EQ(reg.value("merge.new_counter"), 1u);

    StatsRegistry moved(std::move(reg));
    EXPECT_EQ(&moved.counter("held.counter"), &c);
    EXPECT_EQ(&moved.distribution("held.dist"), &d);
    StatsRegistry assigned;
    assigned = std::move(moved);
    EXPECT_EQ(&assigned.counter("held.counter"), &c);
    EXPECT_EQ(assigned.findDistribution("held.dist"), &d);
    c += 1;
    EXPECT_EQ(assigned.value("held.counter"), 8u);
    EXPECT_EQ(assigned.value("fill.counter9999"), 1u);
    EXPECT_EQ(assigned.names().size(), 10002u);
}

TEST(Storage, RegisteringNamesAllocatesPerChunkNotPerName)
{
    // A tree node (or a heap string) per name would be 2,000
    // allocations at least.
    StatsRegistry reg;
    char name[40];
    const long n = allocationsDuring([&] {
        for (int i = 0; i < 2000; ++i) {
            std::snprintf(name, sizeof(name), "cpu%d.htm.outer_commits", i);
            reg.counter(name) += 1;
        }
    });
    EXPECT_LT(n, 200);
    EXPECT_EQ(reg.sum("cpu*.htm.outer_commits"), 2000u);
}

TEST(Storage, MergeIntoARegistryWithEveryNameAllocatesNothing)
{
    auto fill = [](StatsRegistry& r) {
        for (int cpu = 0; cpu < 4; ++cpu) {
            r.counter(cpuStatName(cpu, "htm.outer_commits")) += 3;
            r.counter(cpuStatName(cpu, "htm.begins")) += 4;
        }
        r.counter("sim.ticks") += 100;
        r.distribution("htm.rset_size_at_commit").sample(12);
        r.distribution("htm.tx_duration_committed").sample(345);
        r.formula("htm.commit_rate", "cpu*.htm.outer_commits",
                  "cpu*.htm.begins");
        r.jainFairness("htm.commit_fairness", "cpu*.htm.outer_commits");
    };
    StatsRegistry into, from;
    fill(into);
    fill(from);
    const long n = allocationsDuring([&] { into.mergeFrom(from); });
    EXPECT_EQ(n, 0);
    EXPECT_EQ(into.value("cpu3.htm.outer_commits"), 6u);
    EXPECT_EQ(into.value("sim.ticks"), 200u);
    EXPECT_EQ(into.findDistribution("htm.tx_duration_committed")->count(),
              2u);
    EXPECT_DOUBLE_EQ(into.formulaValue("htm.commit_rate"), 0.75);
}

TEST(Dump, OutputDoesNotDependOnRegistrationOrder)
{
    // Uneven shares whose double sums round differently forward and
    // backward, so only a fixed visiting order gives one fairness value.
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::mt19937_64 rng(6);
    for (int cpu = 0; cpu < 12; ++cpu) {
        counters.emplace_back(cpuStatName(cpu, "htm.outer_commits"),
                              rng() >> 20);
    }
    for (const char* name : {"sim.ticks", "bus.busy_cycles", "a", "zz.top"})
        counters.emplace_back(name, rng() >> 40);
    const std::vector<std::string> dists = {"htm.lat", "a.lat", "m.size"};

    auto jainOver = [&](bool reversed) {
        double s = 0.0, sq = 0.0;
        for (std::size_t k = 0; k < 12; ++k) {
            const double x = static_cast<double>(
                counters[reversed ? 11 - k : k].second);
            s += x;
            sq += x * x;
        }
        return (s * s) / (12.0 * sq);
    };
    ASSERT_NE(jainOver(false), jainOver(true))
        << "shares must be order-sensitive";

    auto registerAll = [&](StatsRegistry& r, bool reversed) {
        for (std::size_t k = 0; k < counters.size(); ++k) {
            const auto& [name, v] =
                counters[reversed ? counters.size() - 1 - k : k];
            r.counter(name) += v;
        }
        for (std::size_t k = 0; k < dists.size(); ++k) {
            const std::size_t i = reversed ? dists.size() - 1 - k : k;
            for (std::uint64_t v = 1; v <= 40; ++v)
                r.distribution(dists[i]).sample(v * (i + 1));
        }
        auto ratio = [&] {
            r.formula("htm.commit_rate", "cpu*.htm.outer_commits",
                      "sim.ticks");
        };
        auto jain = [&] {
            r.jainFairness("htm.commit_fairness", "cpu*.htm.outer_commits");
        };
        if (reversed) {
            jain();
            ratio();
        } else {
            ratio();
            jain();
        }
    };
    StatsRegistry fwd, rev;
    registerAll(fwd, false);
    registerAll(rev, true);

    // Three parts, each registering its share of names in a shuffled
    // order; one counter and every distribution split across parts.
    StatsRegistry parts[3];
    std::vector<std::size_t> order(counters.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t i : order) {
        const auto& [name, v] = counters[i];
        if (i == 0) {
            parts[1].counter(name) += v / 3;
            parts[2].counter(name) += v - v / 3;
        } else {
            parts[i % 3].counter(name) += v;
        }
    }
    for (std::size_t i = dists.size(); i-- > 0;) {
        for (std::uint64_t v = 1; v <= 40; ++v)
            parts[v % 3].distribution(dists[i]).sample(v * (i + 1));
    }
    parts[2].jainFairness("htm.commit_fairness", "cpu*.htm.outer_commits");
    parts[0].formula("htm.commit_rate", "cpu*.htm.outer_commits",
                     "sim.ticks");
    parts[1].jainFairness("htm.commit_fairness", "cpu*.htm.outer_commits");
    StatsRegistry merged;
    for (int p : {2, 0, 1})
        merged.mergeFrom(parts[p]);

    auto text = [](const StatsRegistry& r) {
        std::ostringstream os;
        r.dump(os);
        return os.str();
    };
    auto json = [](const StatsRegistry& r) {
        std::ostringstream os;
        r.dumpJson(os);
        return os.str();
    };
    auto fairness = [](const StatsRegistry& r) {
        return std::bit_cast<std::uint64_t>(
            r.formulaValue("htm.commit_fairness"));
    };
    for (const StatsRegistry* r : {&rev, &merged}) {
        EXPECT_EQ(text(*r), text(fwd));
        EXPECT_EQ(json(*r), json(fwd));
        EXPECT_EQ(r->names(), fwd.names());
        EXPECT_EQ(fairness(*r), fairness(fwd));
    }
    std::vector<std::string> sorted;
    for (const auto& c : counters)
        sorted.push_back(c.first);
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(fwd.names(), sorted);
}

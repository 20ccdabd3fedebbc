/**
 * @file
 * Lightweight statistics registry in the spirit of gem5's stats package.
 *
 * Three stat kinds:
 *  - Counter: a named 64-bit event counter.
 *  - Distribution: an HdrHistogram-style log-linear histogram with
 *    min/max/mean and bounded-error quantiles, for quantities whose
 *    shape matters (set sizes, durations, latencies).
 *  - Formula: a derived ratio of two counter sum() patterns (or a
 *    Jain fairness index over one), evaluated lazily at dump time so
 *    it never goes stale.
 *
 * Both the text dump and the JSON dump lead with a schema version
 * header (see statsSchemaVersion) so downstream parsers can detect
 * format drift instead of silently misreading.
 */

#ifndef TMSIM_SIM_STATS_HH
#define TMSIM_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hh"

namespace tmsim {

/** Bumped whenever the dump format changes shape. v1 was the bare
 *  "name value" counter listing; v2 added the header line itself,
 *  distributions and formulas; v3 switched distributions to log-linear
 *  (HDR) sub-bucketing and added the ::p50/::p90/::p99/::p999 quantile
 *  keys plus the per-distribution sub_bucket_bits field. */
constexpr int statsSchemaVersion = 3;

/** "cpu<cpu>.<leaf>", the name of one CPU's stat @p leaf. */
std::string cpuStatName(int cpu, std::string_view leaf);

/**
 * A registry of named statistics. Components register stats at
 * construction; the Machine dumps the registry after a run. Returned
 * references stay valid for the registry's lifetime, across later
 * registrations, merges and moves of the registry.
 */
class StatsRegistry
{
  public:
    /** A named 64-bit event counter. */
    class Counter
    {
      public:
        Counter() = default;
        void operator++() { ++val; }
        void operator++(int) { ++val; }
        void operator+=(std::uint64_t n) { val += n; }
        std::uint64_t value() const { return val; }
        /** Absolute gauges (e.g. sim.ticks) overwrite their value. */
        void set(std::uint64_t v) { val = v; }
        void reset() { val = 0; }

      private:
        std::uint64_t val = 0;
    };

    /**
     * An HdrHistogram-style log-linear histogram. With S sub-bucket
     * bits, every value below 2^S gets its own exact unit bucket;
     * above that, each power-of-two magnitude [2^k, 2^(k+1)) is split
     * into 2^S equal-width sub-buckets. The bucket width at magnitude
     * k is therefore 2^(k-S), which bounds the relative quantile error
     * at 2^-S (6.25% at the default S = 4). S = 0 degenerates to the
     * schema-v2 pure log2 layout.
     *
     * (65 - S) * 2^S buckets cover the full 64-bit sample range, so
     * sample() never saturates and the bucket counts always sum to
     * count(). Bucket counts are integers and merge by addition, so
     * quantiles of a merged distribution are independent of merge
     * order — the property campaign aggregation relies on.
     */
    class Distribution
    {
      public:
        /** Default sub-bucket resolution: 16 sub-buckets per log2
         *  magnitude, i.e. at most 6.25% relative quantile error. */
        static constexpr int defaultSubBucketBits = 4;
        static constexpr int maxSubBucketBits = 8;

        explicit Distribution(int sub_bucket_bits = defaultSubBucketBits)
            : subBits(clampBits(sub_bucket_bits)),
              bucketCounts(static_cast<size_t>(bucketsFor(subBits)), 0)
        {}

        /** Number of sub-bucket bits S this instance was built with. */
        int subBucketBits() const { return subBits; }

        /** Total bucket count for a given S: (65 - S) * 2^S. */
        static int
        bucketsFor(int bits)
        {
            return (65 - bits) << bits;
        }

        int numBuckets() const { return bucketsFor(subBits); }

        void
        sample(std::uint64_t v)
        {
            if (cnt == 0) {
                minVal = v;
                maxVal = v;
            } else {
                if (v < minVal)
                    minVal = v;
                if (v > maxVal)
                    maxVal = v;
            }
            ++cnt;
            sumVal += v;
            ++bucketCounts[static_cast<size_t>(bucketOf(v, subBits))];
        }

        /**
         * Bucket index for @p v at @p bits sub-bucket bits. Values in
         * [0, 2^bits) index themselves (the exact linear region); a
         * larger v with magnitude k = floor(log2 v) lands in
         * 2^bits + (k - bits) * 2^bits + ((v >> (k - bits)) - 2^bits).
         */
        static int
        bucketOf(std::uint64_t v, int bits)
        {
            if (v < (std::uint64_t{1} << bits))
                return static_cast<int>(v);
            const int k = 63 - __builtin_clzll(v);
            const int shift = k - bits;
            return static_cast<int>(
                (static_cast<std::uint64_t>(shift) << bits) +
                (v >> shift));
        }

        /** Smallest value falling into bucket @p b at @p bits. */
        static std::uint64_t
        bucketLo(int b, int bits)
        {
            const std::uint64_t sub = std::uint64_t{1} << bits;
            if (b < static_cast<int>(sub))
                return static_cast<std::uint64_t>(b);
            const int shift = (b >> bits) - 1;
            const std::uint64_t offset =
                static_cast<std::uint64_t>(b) - (static_cast<std::uint64_t>(
                                                     shift)
                                                 << bits);
            return offset << shift;
        }

        /** Largest value falling into bucket @p b at @p bits. */
        static std::uint64_t
        bucketHi(int b, int bits)
        {
            if (b + 1 >= bucketsFor(bits))
                return ~std::uint64_t{0};
            return bucketLo(b + 1, bits) - 1;
        }

        int bucketOf(std::uint64_t v) const { return bucketOf(v, subBits); }
        std::uint64_t bucketLo(int b) const { return bucketLo(b, subBits); }
        std::uint64_t bucketHi(int b) const { return bucketHi(b, subBits); }

        std::uint64_t count() const { return cnt; }
        std::uint64_t total() const { return sumVal; }
        std::uint64_t min() const { return cnt ? minVal : 0; }
        std::uint64_t max() const { return cnt ? maxVal : 0; }

        double
        mean() const
        {
            return cnt ? static_cast<double>(sumVal) /
                             static_cast<double>(cnt)
                       : 0.0;
        }

        std::uint64_t
        bucketCount(int b) const
        {
            return bucketCounts[static_cast<size_t>(b)];
        }

        /** Index of the highest non-empty bucket, max()'s (-1 when
         *  empty). */
        int highestBucket() const { return cnt ? bucketOf(maxVal) : -1; }

        /**
         * The value at quantile @p q in [0, 1]: the upper bound of the
         * bucket holding the ceil(q * count())-th smallest sample,
         * clamped to the observed max. Relative error vs the true
         * sample is below 2^-subBucketBits (exact in the linear
         * region). 0 when empty.
         */
        std::uint64_t quantile(double q) const;

        /** Fold @p other's samples into this distribution, exactly as
         *  if every sample had been taken here (campaign merging).
         *  An empty destination adopts the source's sub-bucket bits;
         *  otherwise the resolutions must match. */
        void mergeFrom(const Distribution& other);

        void
        reset()
        {
            cnt = 0;
            sumVal = 0;
            minVal = 0;
            maxVal = 0;
            std::fill(bucketCounts.begin(), bucketCounts.end(), 0);
        }

      private:
        static int
        clampBits(int bits)
        {
            if (bits < 0)
                return 0;
            if (bits > maxSubBucketBits)
                return maxSubBucketBits;
            return bits;
        }

        std::uint64_t cnt = 0;
        std::uint64_t sumVal = 0;
        std::uint64_t minVal = 0;
        std::uint64_t maxVal = 0;
        int subBits = defaultSubBucketBits;
        std::vector<std::uint64_t> bucketCounts;
    };

    StatsRegistry();
    ~StatsRegistry();
    StatsRegistry(StatsRegistry&&) noexcept;
    StatsRegistry& operator=(StatsRegistry&&) noexcept;

    /**
     * Register (or look up) a counter under a hierarchical dotted name,
     * e.g. "cpu3.htm.violations".
     */
    Counter& counter(std::string_view name);

    /** Register (or look up) a distribution (default resolution). */
    Distribution& distribution(std::string_view name);

    /**
     * Register a formula @p name = sum(@p num) / sum(@p den), evaluated
     * against the registry at dump/value time, so it never goes stale.
     * Re-registering an existing name overwrites its patterns.
     */
    void formula(std::string_view name, std::string_view num,
                 std::string_view den);

    /**
     * Register a Jain fairness index @p name over every counter
     * matching @p pattern (e.g. "cpu*.htm.outer_commits"):
     * (sum x)^2 / (n * sum x^2), 1.0 when the shares are equal and 1/n
     * when one counter has everything. Matching counters that are all
     * zero are equal shares of nothing, still 1.0; only "no counter
     * matches" reads 0.0.
     */
    void jainFairness(std::string_view name, std::string_view pattern);

    /** Read a counter's current value (0 if never registered). */
    std::uint64_t value(std::string_view name) const;

    /** Sum the values of all counters whose name matches "prefix*suffix".
     *  @p pattern contains at most one '*'. */
    std::uint64_t sum(std::string_view pattern) const;

    /** Look up a distribution (nullptr if never registered). */
    const Distribution* findDistribution(std::string_view name) const;

    /** Evaluate a registered formula (0.0 if unknown or den == 0). */
    double formulaValue(std::string_view name) const;

    /** Reset every counter and distribution to zero. */
    void resetAll();

    /**
     * Fold @p other into this registry: counters add, distributions
     * merge sample-for-sample, formulas register where absent. When
     * this registry already has every name, nothing is allocated.
     * Counters add and distributions fold exactly, so their merged
     * values do not depend on merge order, and every dump sorts names
     * as it writes them, whatever order they were registered in.
     */
    void mergeFrom(const StatsRegistry& other);

    /**
     * Text dump: a "# tmsim-stats schema <v>" header, then "name value"
     * lines sorted by name. Distributions dump as name::samples/min/
     * max/mean plus one name::bucket line per non-empty bucket;
     * formulas dump their evaluated value.
     */
    void dump(std::ostream& os) const;

    /** JSON dump of the same data (one top-level object; see STATS.md
     *  for the schema). */
    void dumpJson(std::ostream& os) const;

    /** All registered counter names, sorted. */
    std::vector<std::string> names() const;

  private:
    /**
     * Counters, distributions and formulas, each in registration
     * order, with every name's bytes in one arena (see stats.cc). The
     * tables sit behind one pointer, made on first registration, so a
     * registry is small to hold and to move and every Counter& and
     * Distribution& handed out stays valid when the registry moves.
     */
    struct Tables;

    /** The tables, made here on first registration. */
    Tables& edit();
    /** The tables, or an empty set if nothing was registered. */
    const Tables& view() const;

    std::unique_ptr<Tables> tables;
};

} // namespace tmsim

#endif // TMSIM_SIM_STATS_HH

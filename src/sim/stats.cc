#include "sim/stats.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "sim/logging.hh"

namespace tmsim {

namespace {

/** Counter names are plain dotted identifiers today, but keep the JSON
 *  well-formed even if somebody registers an exotic one. */
std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
fmtDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

std::string
cpuStatName(int cpu, std::string_view leaf)
{
    char digits[12];
    char* end = std::to_chars(digits, std::end(digits), cpu).ptr;
    std::string name;
    name.reserve(4 + static_cast<size_t>(end - digits) + leaf.size());
    name.append("cpu").append(digits, end).append(1, '.').append(leaf);
    return name;
}

std::uint64_t
StatsRegistry::Distribution::quantile(double q) const
{
    if (cnt == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the sample we want, 1-based: the ceil(q * count)-th
    // smallest sample (so p50 of two samples is the first, matching
    // the "at least q of the data is <= result" reading).
    std::uint64_t target =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(cnt)));
    if (target < 1)
        target = 1;
    if (target > cnt)
        target = cnt;
    std::uint64_t cum = 0;
    const int top = highestBucket();
    for (int b = 0; b <= top; ++b) {
        cum += bucketCounts[static_cast<size_t>(b)];
        if (cum >= target) {
            // Report the bucket's upper bound, clamped to the observed
            // max: never below the true sample, and at most one bucket
            // width (< 2^-subBits relative) above it.
            const std::uint64_t hi = bucketHi(b);
            return hi < maxVal ? hi : maxVal;
        }
    }
    return maxVal;
}

void
StatsRegistry::Distribution::mergeFrom(const Distribution& other)
{
    if (other.cnt == 0)
        return;
    if (cnt == 0 && subBits != other.subBits) {
        // An empty destination (e.g. a fresh campaign-merge registry)
        // adopts the source's resolution; folding populated histograms
        // of different resolutions would corrupt the bucket counts.
        subBits = other.subBits;
        bucketCounts.assign(static_cast<size_t>(bucketsFor(subBits)), 0);
    }
    if (subBits != other.subBits) {
        fatal("cannot merge distributions with different sub-bucket "
              "bits (%d vs %d)",
              subBits, other.subBits);
    }
    if (cnt == 0) {
        minVal = other.minVal;
        maxVal = other.maxVal;
    } else {
        if (other.minVal < minVal)
            minVal = other.minVal;
        if (other.maxVal > maxVal)
            maxVal = other.maxVal;
    }
    cnt += other.cnt;
    sumVal += other.sumVal;
    const auto top = static_cast<size_t>(other.highestBucket());
    for (size_t b = 0; b <= top; ++b)
        bucketCounts[b] += other.bucketCounts[b];
}

StatsRegistry::Counter&
StatsRegistry::counter(const std::string& name)
{
    return counters[name];
}

StatsRegistry::Distribution&
StatsRegistry::distribution(const std::string& name)
{
    return dists[name];
}

void
StatsRegistry::formula(const std::string& name, const std::string& num,
                       const std::string& den)
{
    formulas[name] = Formula{num, den, Formula::Kind::Ratio};
}

void
StatsRegistry::jainFairness(const std::string& name,
                            const std::string& pattern)
{
    formulas[name] = Formula{pattern, "", Formula::Kind::JainFairness};
}

std::uint64_t
StatsRegistry::value(const std::string& name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value();
}

std::uint64_t
StatsRegistry::sum(const std::string& pattern) const
{
    auto star = pattern.find('*');
    if (star == std::string::npos)
        return value(pattern);

    const std::string prefix = pattern.substr(0, star);
    const std::string suffix = pattern.substr(star + 1);
    std::uint64_t total = 0;
    for (const auto& [name, ctr] : counters) {
        if (name.size() < prefix.size() + suffix.size())
            continue;
        if (name.compare(0, prefix.size(), prefix) != 0)
            continue;
        if (name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
            continue;
        }
        total += ctr.value();
    }
    return total;
}

const StatsRegistry::Distribution*
StatsRegistry::findDistribution(const std::string& name) const
{
    auto it = dists.find(name);
    return it == dists.end() ? nullptr : &it->second;
}

double
StatsRegistry::formulaValue(const std::string& name) const
{
    auto it = formulas.find(name);
    if (it == formulas.end())
        return 0.0;
    const Formula& f = it->second;
    if (f.kind == Formula::Kind::JainFairness) {
        // Jain's index over every counter matching the pattern:
        // (sum x)^2 / (n * sum x^2). 1.0 when all shares are equal,
        // 1/n when one counter holds everything.
        const auto star = f.numerator.find('*');
        const std::string prefix = f.numerator.substr(0, star);
        const std::string suffix =
            star == std::string::npos ? "" : f.numerator.substr(star + 1);
        double s = 0.0, sq = 0.0;
        std::uint64_t n = 0;
        for (const auto& [cname, ctr] : counters) {
            if (star == std::string::npos) {
                if (cname != f.numerator)
                    continue;
            } else {
                if (cname.size() < prefix.size() + suffix.size())
                    continue;
                if (cname.compare(0, prefix.size(), prefix) != 0)
                    continue;
                if (cname.compare(cname.size() - suffix.size(),
                                  suffix.size(), suffix) != 0) {
                    continue;
                }
            }
            const double x = static_cast<double>(ctr.value());
            s += x;
            sq += x * x;
            ++n;
        }
        if (n == 0)
            return 0.0;
        // All matched counters hold zero: equal shares of nothing is
        // still perfectly fair, not "no data" (which is n == 0 above).
        if (sq == 0.0)
            return 1.0;
        return (s * s) / (static_cast<double>(n) * sq);
    }
    const std::uint64_t den = sum(f.denominator);
    if (den == 0)
        return 0.0;
    return static_cast<double>(sum(f.numerator)) /
           static_cast<double>(den);
}

namespace {

/** Fold each entry of @p from into @p into's entry of the same name,
 *  in one walk over the two sorted maps; a name @p into lacks is
 *  inserted at the walk's position, so no insert searches the tree. */
template <typename Map, typename Fold>
void
mergeSorted(Map& into, const Map& from, Fold fold)
{
    auto at = into.begin();
    for (const auto& [name, value] : from) {
        int order = 1;
        while (at != into.end() && (order = at->first.compare(name)) < 0)
            ++at;
        if (at == into.end() || order > 0)
            at = into.try_emplace(at, name);
        fold(at->second, value);
        ++at;
    }
}

} // namespace

void
StatsRegistry::mergeFrom(const StatsRegistry& other)
{
    mergeSorted(counters, other.counters,
                [](Counter& into, const Counter& from) {
                    into += from.value();
                });
    mergeSorted(dists, other.dists,
                [](Distribution& into, const Distribution& from) {
                    into.mergeFrom(from);
                });
    for (const auto& [name, f] : other.formulas)
        formulas.emplace(name, f);
}

void
StatsRegistry::resetAll()
{
    for (auto& [name, ctr] : counters)
        ctr.reset();
    for (auto& [name, dist] : dists)
        dist.reset();
}

void
StatsRegistry::dump(std::ostream& os) const
{
    os << "# tmsim-stats schema " << statsSchemaVersion << "\n";
    for (const auto& [name, ctr] : counters)
        os << name << " " << ctr.value() << "\n";
    for (const auto& [name, dist] : dists) {
        os << name << "::samples " << dist.count() << "\n";
        os << name << "::min " << dist.min() << "\n";
        os << name << "::max " << dist.max() << "\n";
        os << name << "::mean " << fmtDouble(dist.mean()) << "\n";
        os << name << "::p50 " << dist.quantile(0.50) << "\n";
        os << name << "::p90 " << dist.quantile(0.90) << "\n";
        os << name << "::p99 " << dist.quantile(0.99) << "\n";
        os << name << "::p999 " << dist.quantile(0.999) << "\n";
        const int top = dist.highestBucket();
        for (int b = 0; b <= top; ++b) {
            if (dist.bucketCount(b) == 0)
                continue;
            os << name << "::bucket[" << dist.bucketLo(b) << ","
               << dist.bucketHi(b) << "] " << dist.bucketCount(b)
               << "\n";
        }
    }
    for (const auto& [name, f] : formulas)
        os << name << " " << fmtDouble(formulaValue(name)) << "\n";
}

void
StatsRegistry::dumpJson(std::ostream& os) const
{
    os << "{\n";
    os << "  \"schema\": \"tmsim-stats\",\n";
    os << "  \"schema_version\": " << statsSchemaVersion << ",\n";

    os << "  \"counters\": {";
    bool first = true;
    for (const auto& [name, ctr] : counters) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << ctr.value();
        first = false;
    }
    os << "\n  },\n";

    os << "  \"distributions\": {";
    first = true;
    for (const auto& [name, dist] : dists) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"samples\": " << dist.count()
           << ", \"min\": " << dist.min() << ", \"max\": " << dist.max()
           << ", \"mean\": " << fmtDouble(dist.mean())
           << ", \"total\": " << dist.total()
           << ", \"p50\": " << dist.quantile(0.50)
           << ", \"p90\": " << dist.quantile(0.90)
           << ", \"p99\": " << dist.quantile(0.99)
           << ", \"p999\": " << dist.quantile(0.999)
           << ", \"sub_bucket_bits\": " << dist.subBucketBits()
           << ", \"buckets\": [";
        const int top = dist.highestBucket();
        bool firstB = true;
        for (int b = 0; b <= top; ++b) {
            if (dist.bucketCount(b) == 0)
                continue;
            os << (firstB ? "" : ", ") << "{\"lo\": "
               << dist.bucketLo(b) << ", \"hi\": "
               << dist.bucketHi(b) << ", \"count\": "
               << dist.bucketCount(b) << "}";
            firstB = false;
        }
        os << "]}";
        first = false;
    }
    os << "\n  },\n";

    os << "  \"formulas\": {";
    first = true;
    for (const auto& [name, f] : formulas) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"value\": " << fmtDouble(formulaValue(name))
           << ", \"numerator\": \"" << jsonEscape(f.numerator)
           << "\", \"denominator\": \"" << jsonEscape(f.denominator)
           << "\", \"kind\": \""
           << (f.kind == Formula::Kind::JainFairness ? "jain_fairness"
                                                     : "ratio")
           << "\"}";
        first = false;
    }
    os << "\n  }\n";
    os << "}\n";
}

std::vector<std::string>
StatsRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(counters.size());
    for (const auto& [name, ctr] : counters)
        out.push_back(name);
    return out;
}

} // namespace tmsim

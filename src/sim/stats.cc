#include "sim/stats.hh"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <numeric>
#include <utility>

#include "sim/logging.hh"

namespace tmsim {

namespace {

/** Counter names are plain dotted identifiers today, but keep the JSON
 *  well-formed even if somebody registers an exotic one. */
std::string
jsonEscape(std::string_view s)
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

/** A run of bytes in an Arena. */
struct Text
{
    std::uint32_t at = 0;
    std::uint32_t len = 0;
};

/** The bytes of every name and formula pattern in one registry, end to
 *  end, so registering a name copies it here instead of allocating. */
class Arena
{
  public:
    Text
    store(std::string_view s)
    {
        const Text t{static_cast<std::uint32_t>(bytes.size()),
                     static_cast<std::uint32_t>(s.size())};
        bytes.append(s);
        return t;
    }

    std::string_view
    text(Text t) const
    {
        return std::string_view(bytes).substr(t.at, t.len);
    }

  private:
    std::string bytes;
};

/** 64-bit hash of a stat name: eight bytes at a time, then the
 *  zero-padded tail, finished with splitmix64's mixer. */
std::uint64_t
nameHash(std::string_view s)
{
    std::uint64_t h = s.size() * 0x9e3779b97f4a7c15ull;
    std::uint64_t w;
    for (; s.size() >= 8; s.remove_prefix(8)) {
        std::memcpy(&w, s.data(), 8);
        h = std::rotl(h ^ w, 27) * 0xbf58476d1ce4e5b9ull;
    }
    w = 0;
    if (!s.empty())
        std::memcpy(&w, s.data(), s.size());
    h ^= w;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

/** A counter pattern "prefix*suffix" with at most one '*'; without a
 *  '*' it names one counter. Prefix and suffix may not overlap. */
class Pattern
{
  public:
    explicit Pattern(std::string_view p)
        : star(p.find('*')), prefix(p.substr(0, star)),
          suffix(star == std::string_view::npos ? std::string_view{}
                                                : p.substr(star + 1))
    {}

    bool exact() const { return star == std::string_view::npos; }

    bool
    matches(std::string_view name) const
    {
        if (exact())
            return name == prefix;
        return name.size() >= prefix.size() + suffix.size() &&
               name.starts_with(prefix) && name.ends_with(suffix);
    }

  private:
    std::size_t star;
    std::string_view prefix;
    std::string_view suffix;
};

/** A formula's definition; its patterns live in the arena. */
struct Formula
{
    enum class Kind : std::uint8_t
    {
        Ratio,
        JainFairness,
    };

    Text numerator;
    Text denominator;
    Kind kind = Kind::Ratio;
};

/**
 * The stats of one kind, in registration order. Entries live in chunks
 * of 32, 64, 128, ... entries, reserved up front and only appended to,
 * so an entry never moves once added. An open-addressed index, kept at
 * most half full, finds an entry by the 64-bit hash of its name: each
 * 32-bit slot holds an entry number plus one, and 0 marks a free slot.
 * Names live in the registry's arena, which every lookup is handed.
 */
template <typename T>
class NamedTable
{
  public:
    struct Entry
    {
        T stat;
        std::uint64_t hash = 0;
        Text name;
    };

    std::uint32_t size() const { return count; }

    /** Entry @p i, numbered from 0 in registration order. */
    const Entry&
    at(std::uint32_t i) const
    {
        // Chunk k holds entries [32 * (2^k - 1), 32 * (2^(k+1) - 1)).
        const std::uint64_t v = std::uint64_t{i} + firstChunk;
        const int k = static_cast<int>(std::bit_width(v)) - 1 -
                      firstChunkBits;
        return chunks[static_cast<std::size_t>(k)]
                     [v - (firstChunk << k)];
    }

    Entry&
    at(std::uint32_t i)
    {
        return const_cast<Entry&>(std::as_const(*this).at(i));
    }

    /** The entry named @p name (hash @p h), or nullptr. */
    const Entry*
    find(std::uint64_t h, std::string_view name, const Arena& arena) const
    {
        const std::uint32_t slot = slots[probe(h, name, arena)];
        return slot ? &at(slot - 1) : nullptr;
    }

    /** The entry named @p name (hash @p h). A new one is appended
     *  with a default stat, and its name's bytes to @p arena. */
    Entry&
    findOrAdd(std::uint64_t h, std::string_view name, Arena& arena)
    {
        std::size_t s = probe(h, name, arena);
        if (slots[s])
            return at(slots[s] - 1);
        if (2 * (std::size_t{count} + 1) > slots.size()) {
            grow();
            s = probe(h, name, arena);
        }
        const std::size_t numChunks = chunks.size();
        if (numChunks == 0 ||
            chunks.back().size() == chunks.back().capacity()) {
            chunks.emplace_back().reserve(firstChunk << numChunks);
        }
        Entry& e = chunks.back().emplace_back();
        e.hash = h;
        e.name = arena.store(name);
        slots[s] = ++count;
        return e;
    }

  private:
    static constexpr int firstChunkBits = 5;
    static constexpr std::uint64_t firstChunk = 1u << firstChunkBits;

    /** The slot holding @p name, or the free slot where it belongs. */
    std::size_t
    probe(std::uint64_t h, std::string_view name, const Arena& arena) const
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t s = h & mask;
        for (; slots[s]; s = (s + 1) & mask) {
            const Entry& e = at(slots[s] - 1);
            if (e.hash == h && arena.text(e.name) == name)
                break;
        }
        return s;
    }

    /** Double the index, re-placing every entry by its stored hash. */
    void
    grow()
    {
        std::vector<std::uint32_t> bigger(2 * slots.size(), 0);
        const std::size_t mask = bigger.size() - 1;
        for (std::uint32_t i = 0; i < count; ++i) {
            std::size_t s = at(i).hash & mask;
            while (bigger[s])
                s = (s + 1) & mask;
            bigger[s] = i + 1;
        }
        slots = std::move(bigger);
    }

    std::vector<std::vector<Entry>> chunks;
    std::vector<std::uint32_t> slots = std::vector<std::uint32_t>(64, 0);
    std::uint32_t count = 0;
};

} // namespace

struct StatsRegistry::Tables
{
    Arena arena;
    NamedTable<Counter> counters;
    NamedTable<Distribution> dists;
    NamedTable<Formula> formulas;

    std::string_view text(Text t) const { return arena.text(t); }

    /** @p table's entry numbers, sorted by name: every output visits
     *  names in this order, whatever order they were registered in. */
    template <typename T>
    std::vector<std::uint32_t>
    byName(const NamedTable<T>& table) const
    {
        std::vector<std::uint32_t> order(table.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return text(table.at(a).name) <
                             text(table.at(b).name);
                  });
        return order;
    }

    std::uint64_t
    sum(std::string_view pattern) const
    {
        const Pattern p(pattern);
        if (p.exact()) {
            const auto* e = counters.find(nameHash(pattern), pattern, arena);
            return e ? e->stat.value() : 0;
        }
        std::uint64_t total = 0;
        for (std::uint32_t i = 0; i < counters.size(); ++i) {
            const auto& e = counters.at(i);
            if (p.matches(text(e.name)))
                total += e.stat.value();
        }
        return total;
    }

    /** Jain's index over every counter matching @p pattern:
     *  (sum x)^2 / (n * sum x^2). The double sums add the shares in
     *  name order, so the value does not depend on registration
     *  order. */
    double
    jain(std::string_view pattern) const
    {
        const Pattern p(pattern);
        std::vector<std::pair<std::string_view, std::uint64_t>> shares;
        for (std::uint32_t i = 0; i < counters.size(); ++i) {
            const auto& e = counters.at(i);
            if (p.matches(text(e.name)))
                shares.emplace_back(text(e.name), e.stat.value());
        }
        if (shares.empty())
            return 0.0;
        std::sort(shares.begin(), shares.end());
        double s = 0.0, sq = 0.0;
        for (const auto& share : shares) {
            const double x = static_cast<double>(share.second);
            s += x;
            sq += x * x;
        }
        // All matched counters hold zero: equal shares of nothing is
        // still perfectly fair, not "no data" (no match, above).
        if (sq == 0.0)
            return 1.0;
        return (s * s) / (static_cast<double>(shares.size()) * sq);
    }

    double
    evaluate(const Formula& f) const
    {
        if (f.kind == Formula::Kind::JainFairness)
            return jain(text(f.numerator));
        const std::uint64_t den = sum(text(f.denominator));
        if (den == 0)
            return 0.0;
        return static_cast<double>(sum(text(f.numerator))) /
               static_cast<double>(den);
    }
};

StatsRegistry::StatsRegistry() = default;
StatsRegistry::~StatsRegistry() = default;
StatsRegistry::StatsRegistry(StatsRegistry&&) noexcept = default;
StatsRegistry& StatsRegistry::operator=(StatsRegistry&&) noexcept = default;

StatsRegistry::Tables&
StatsRegistry::edit()
{
    if (!tables)
        tables = std::make_unique<Tables>();
    return *tables;
}

const StatsRegistry::Tables&
StatsRegistry::view() const
{
    static const Tables none;
    return tables ? *tables : none;
}

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
StatsRegistry::counter(std::string_view name)
{
    Tables& t = edit();
    return t.counters.findOrAdd(nameHash(name), name, t.arena).stat;
}

StatsRegistry::Distribution&
StatsRegistry::distribution(std::string_view name)
{
    Tables& t = edit();
    return t.dists.findOrAdd(nameHash(name), name, t.arena).stat;
}

void
StatsRegistry::formula(std::string_view name, std::string_view num,
                       std::string_view den)
{
    Tables& t = edit();
    t.formulas.findOrAdd(nameHash(name), name, t.arena).stat =
        Formula{t.arena.store(num), t.arena.store(den),
                Formula::Kind::Ratio};
}

void
StatsRegistry::jainFairness(std::string_view name,
                            std::string_view pattern)
{
    Tables& t = edit();
    t.formulas.findOrAdd(nameHash(name), name, t.arena).stat =
        Formula{t.arena.store(pattern), Text{},
                Formula::Kind::JainFairness};
}

std::uint64_t
StatsRegistry::value(std::string_view name) const
{
    const Tables& t = view();
    const auto* e = t.counters.find(nameHash(name), name, t.arena);
    return e ? e->stat.value() : 0;
}

std::uint64_t
StatsRegistry::sum(std::string_view pattern) const
{
    return view().sum(pattern);
}

const StatsRegistry::Distribution*
StatsRegistry::findDistribution(std::string_view name) const
{
    const Tables& t = view();
    const auto* e = t.dists.find(nameHash(name), name, t.arena);
    return e ? &e->stat : nullptr;
}

double
StatsRegistry::formulaValue(std::string_view name) const
{
    const Tables& t = view();
    const auto* e = t.formulas.find(nameHash(name), name, t.arena);
    return e ? t.evaluate(e->stat) : 0.0;
}

void
StatsRegistry::mergeFrom(const StatsRegistry& other)
{
    if (!other.tables)
        return;
    const Tables& from = *other.tables;
    Tables& into = edit();
    for (std::uint32_t i = 0; i < from.counters.size(); ++i) {
        const auto& e = from.counters.at(i);
        into.counters.findOrAdd(e.hash, from.text(e.name), into.arena)
            .stat += e.stat.value();
    }
    for (std::uint32_t i = 0; i < from.dists.size(); ++i) {
        const auto& e = from.dists.at(i);
        into.dists.findOrAdd(e.hash, from.text(e.name), into.arena)
            .stat.mergeFrom(e.stat);
    }
    for (std::uint32_t i = 0; i < from.formulas.size(); ++i) {
        const auto& e = from.formulas.at(i);
        const std::string_view name = from.text(e.name);
        if (into.formulas.find(e.hash, name, into.arena))
            continue;
        into.formulas.findOrAdd(e.hash, name, into.arena).stat =
            Formula{into.arena.store(from.text(e.stat.numerator)),
                    into.arena.store(from.text(e.stat.denominator)),
                    e.stat.kind};
    }
}

void
StatsRegistry::resetAll()
{
    if (!tables)
        return;
    for (std::uint32_t i = 0; i < tables->counters.size(); ++i)
        tables->counters.at(i).stat.reset();
    for (std::uint32_t i = 0; i < tables->dists.size(); ++i)
        tables->dists.at(i).stat.reset();
}

void
StatsRegistry::dump(std::ostream& os) const
{
    const Tables& t = view();
    os << "# tmsim-stats schema " << statsSchemaVersion << "\n";
    for (std::uint32_t i : t.byName(t.counters)) {
        const auto& e = t.counters.at(i);
        os << t.text(e.name) << " " << e.stat.value() << "\n";
    }
    for (std::uint32_t i : t.byName(t.dists)) {
        const std::string_view name = t.text(t.dists.at(i).name);
        const Distribution& dist = t.dists.at(i).stat;
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
    for (std::uint32_t i : t.byName(t.formulas)) {
        const auto& e = t.formulas.at(i);
        os << t.text(e.name) << " " << fmtDouble(t.evaluate(e.stat))
           << "\n";
    }
}

void
StatsRegistry::dumpJson(std::ostream& os) const
{
    const Tables& t = view();
    os << "{\n";
    os << "  \"schema\": \"tmsim-stats\",\n";
    os << "  \"schema_version\": " << statsSchemaVersion << ",\n";

    os << "  \"counters\": {";
    bool first = true;
    for (std::uint32_t i : t.byName(t.counters)) {
        const auto& e = t.counters.at(i);
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(t.text(e.name))
           << "\": " << e.stat.value();
        first = false;
    }
    os << "\n  },\n";

    os << "  \"distributions\": {";
    first = true;
    for (std::uint32_t i : t.byName(t.dists)) {
        const std::string_view name = t.text(t.dists.at(i).name);
        const Distribution& dist = t.dists.at(i).stat;
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
    for (std::uint32_t i : t.byName(t.formulas)) {
        const auto& e = t.formulas.at(i);
        const Formula& f = e.stat;
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(t.text(e.name))
           << "\": {\"value\": " << fmtDouble(t.evaluate(f))
           << ", \"numerator\": \"" << jsonEscape(t.text(f.numerator))
           << "\", \"denominator\": \"" << jsonEscape(t.text(f.denominator))
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
    const Tables& t = view();
    std::vector<std::string> out;
    out.reserve(t.counters.size());
    for (std::uint32_t i : t.byName(t.counters))
        out.emplace_back(t.text(t.counters.at(i).name));
    return out;
}

} // namespace tmsim

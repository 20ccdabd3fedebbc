/**
 * @file
 * trace_report — offline analyzer for tmsim Chrome trace-event JSON
 * (the --trace output of tmsim_run).
 *
 *   trace_report run.trace.json
 *   trace_report run.trace.json --top 20
 *   trace_report run.trace.json --check     (self-validate, exit 1 on
 *                                            any inconsistency)
 *
 * Reports:
 *  - top conflicting addresses (violation_raised counts per address);
 *  - a conflict heatmap: for the top contended addresses, violations
 *    broken down by attacker CPU, plus the outermost rolled-back
 *    cycles attributed to each address (a rollback's wasted cycles
 *    are charged to the address of the last violation the victim CPU
 *    saw before the slice ended);
 *  - outermost transaction duration percentiles (p50/p90/p99, exact —
 *    computed from the raw slice durations, so they cross-check the
 *    simulator's bounded-error HDR `::p99` keys);
 *  - per-CPU cycle attribution: useful (committed outermost tx work),
 *    wasted (rolled-back outermost tx work), commit (post-validation
 *    commit phase of committed transactions), backoff (retry backoff
 *    spans), other (everything else: non-transactional execution,
 *    memory stalls outside transactions). The five categories sum to
 *    the simulated cycle count on every CPU by construction;
 *  - abort-chain lengths: how many consecutive outermost rollbacks a
 *    transaction suffered before finally committing.
 *
 * The exporter emits one trace event per line, so this tool parses
 * line-by-line with string searches instead of a full JSON parser.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "sim/parse.hh"

namespace {

using tmsim::NextArg;
using tmsim::parseInt;
using tmsim::walkArgs;

using u64 = std::uint64_t;
using i64 = std::int64_t;

/** Extract the number following `"key": ` on @p line (-1 if absent). */
i64
findNum(const std::string& line, const char* key)
{
    std::string pat = std::string("\"") + key + "\": ";
    size_t p = line.find(pat);
    if (p == std::string::npos)
        return -1;
    return std::strtoll(line.c_str() + p + pat.size(), nullptr, 10);
}

/** Extract the string following `"key": "` on @p line ("" if absent). */
std::string
findStr(const std::string& line, const char* key)
{
    std::string pat = std::string("\"") + key + "\": \"";
    size_t p = line.find(pat);
    if (p == std::string::npos)
        return "";
    size_t start = p + pat.size();
    size_t end = line.find('"', start);
    if (end == std::string::npos)
        return "";
    return line.substr(start, end - start);
}

struct CpuState
{
    std::vector<u64> sliceBegin; // B timestamps, one per open level
    u64 lastValidated = 0;
    bool validSeen = false; // a depth-1 validated instant in this slice
    u64 useful = 0;
    u64 wasted = 0;
    u64 commit = 0;
    u64 backoff = 0;
    int chain = 0; // consecutive outermost rollbacks so far
    std::string lastVioAddr; // most recent violation on this CPU
};

/** Exact q-quantile of an (unsorted) sample vector: the
 *  ceil(q*n)-th smallest, matching Distribution::quantile's rank. */
u64
exactQuantile(std::vector<u64>& v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
    if (rank > v.size())
        rank = v.size();
    return v[rank - 1];
}

void
printDurationLine(const char* label, std::vector<u64> v)
{
    if (v.empty()) {
        std::printf("  %-12s (none)\n", label);
        return;
    }
    u64 sum = 0;
    for (u64 x : v)
        sum += x;
    const u64 p50 = exactQuantile(v, 0.50);
    const u64 p90 = exactQuantile(v, 0.90);
    const u64 p99 = exactQuantile(v, 0.99);
    std::printf("  %-12s n=%zu mean=%.1f ::p50 %llu ::p90 %llu "
                "::p99 %llu max=%llu\n",
                label, v.size(),
                static_cast<double>(sum) / static_cast<double>(v.size()),
                static_cast<unsigned long long>(p50),
                static_cast<unsigned long long>(p90),
                static_cast<unsigned long long>(p99),
                static_cast<unsigned long long>(v.back()));
}

struct Options
{
    std::string file;
    int top = 10;
    bool check = false;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: trace_report FILE [--top N] [--check]\n");
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    walkArgs(argc, argv, usage,
             [&](const std::string& arg, const NextArg& next) {
        if (arg == "--top") {
            // Strict parse: atoi turned "--top abc" into 0 and the
            // report silently rendered empty tables.
            opt.top = parseInt(next(), "--top", 1, 1'000'000);
        } else if (arg == "--check") {
            opt.check = true;
        } else if (arg.empty() || arg[0] == '-' || !opt.file.empty()) {
            return false;
        } else {
            opt.file = arg;
        }
        return true;
    });
    if (opt.file.empty()) {
        usage();
        return 2;
    }

    std::ifstream in(opt.file);
    if (!in) {
        std::fprintf(stderr, "trace_report: cannot open '%s'\n",
                     opt.file.c_str());
        return 1;
    }

    u64 cycles = 0;
    i64 cpus = 0, dropped = 0, schemaVersion = -1;
    std::vector<CpuState> cpu;
    std::map<std::string, u64> conflictAddr;
    std::map<std::string, std::map<i64, u64>> heat; // addr x attacker
    std::map<std::string, u64> abortCycles;         // addr -> cycles
    std::vector<u64> committedDur, rolledDur;
    std::map<int, u64> chainHist;
    int errors = 0;
    auto fail = [&](const char* fmt, auto... args) {
        std::fprintf(stderr, fmt, args...);
        ++errors;
    };

    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"otherData\"") != std::string::npos) {
            if (findStr(line, "schema") != "tmsim-trace")
                fail("error: not a tmsim-trace file%s\n", "");
            schemaVersion = findNum(line, "schema_version");
            cycles = static_cast<u64>(findNum(line, "cycles"));
            cpus = findNum(line, "cpus");
            dropped = findNum(line, "dropped");
            if (cpus > 0)
                cpu.resize(static_cast<size_t>(cpus));
            continue;
        }
        size_t php = line.find("\"ph\": \"");
        if (php == std::string::npos)
            continue;
        char ph = line[php + 7];
        if (ph == 'M')
            continue;
        i64 tid = findNum(line, "tid");
        if (tid < 0)
            continue;
        if (tid >= static_cast<i64>(cpu.size()))
            cpu.resize(static_cast<size_t>(tid) + 1);
        CpuState& c = cpu[static_cast<size_t>(tid)];
        u64 ts = static_cast<u64>(findNum(line, "ts"));
        std::string name = findStr(line, "name");

        if (ph == 'B') {
            c.sliceBegin.push_back(ts);
            if (c.sliceBegin.size() == 1)
                c.validSeen = false;
        } else if (ph == 'E') {
            if (c.sliceBegin.empty()) {
                fail("error: cpu%lld: E with no open slice at ts %llu\n",
                     static_cast<long long>(tid),
                     static_cast<unsigned long long>(ts));
                continue;
            }
            u64 begin = c.sliceBegin.back();
            c.sliceBegin.pop_back();
            if (ts < begin)
                fail("error: cpu%lld: slice ends (%llu) before it "
                     "begins (%llu)\n",
                     static_cast<long long>(tid),
                     static_cast<unsigned long long>(ts),
                     static_cast<unsigned long long>(begin));
            if (!c.sliceBegin.empty())
                continue; // nested level: the outermost slice covers it
            std::string outcome = findStr(line, "outcome");
            if (outcome == "commit") {
                if (c.validSeen && c.lastValidated >= begin &&
                    c.lastValidated <= ts) {
                    c.useful += c.lastValidated - begin;
                    c.commit += ts - c.lastValidated;
                } else {
                    c.useful += ts - begin;
                }
                committedDur.push_back(ts - begin);
                if (c.chain > 0)
                    ++chainHist[c.chain];
                c.chain = 0;
            } else {
                c.wasted += ts - begin;
                rolledDur.push_back(ts - begin);
                if (!c.lastVioAddr.empty())
                    abortCycles[c.lastVioAddr] += ts - begin;
                if (outcome == "rollback" || outcome == "abort")
                    ++c.chain;
            }
        } else if (ph == 'i') {
            if (name == "violation_raised") {
                std::string addr = findStr(line, "addr");
                if (!addr.empty()) {
                    ++conflictAddr[addr];
                    ++heat[addr][findNum(line, "attacker")];
                    c.lastVioAddr = addr;
                }
            } else if (name == "validated" &&
                       c.sliceBegin.size() == 1 &&
                       findNum(line, "depth") == 1) {
                c.lastValidated = ts;
                c.validSeen = true;
            }
        } else if (ph == 'X') {
            if (name == "backoff" && c.sliceBegin.empty())
                c.backoff += static_cast<u64>(findNum(line, "dur"));
        }
    }

    if (schemaVersion != 1)
        fail("error: unsupported trace schema version %lld\n",
             static_cast<long long>(schemaVersion));
    for (size_t i = 0; i < cpu.size(); ++i) {
        if (!cpu[i].sliceBegin.empty())
            fail("error: cpu%zu: %zu slice(s) still open at end of "
                 "trace\n",
                 i, cpu[i].sliceBegin.size());
        if (cpu[i].chain > 0) {
            ++chainHist[cpu[i].chain]; // chain cut off by end of run
            cpu[i].chain = 0;
        }
    }

    std::printf("trace_report: %s\n", opt.file.c_str());
    std::printf("schema tmsim-trace v%lld, %lld cpus, %llu cycles, "
                "%lld dropped event(s)\n\n",
                static_cast<long long>(schemaVersion),
                static_cast<long long>(cpus),
                static_cast<unsigned long long>(cycles),
                static_cast<long long>(dropped));

    std::printf("top conflict addresses (violations raised):\n");
    std::vector<std::pair<std::string, u64>> byCount(conflictAddr.begin(),
                                                     conflictAddr.end());
    std::sort(byCount.begin(), byCount.end(),
              [](const auto& a, const auto& b) {
                  return a.second != b.second ? a.second > b.second
                                              : a.first < b.first;
              });
    if (byCount.empty())
        std::printf("  (none)\n");
    for (size_t i = 0;
         i < byCount.size() && i < static_cast<size_t>(opt.top); ++i)
        std::printf("  %-18s %llu\n", byCount[i].first.c_str(),
                    static_cast<unsigned long long>(byCount[i].second));

    // Heatmap: rows are the same top addresses, columns the attacker
    // CPU that raised each violation; the abort_cyc column charges
    // every outermost rollback's wasted cycles to the address of the
    // last violation its victim CPU saw.
    std::printf("\nconflict heatmap "
                "(violations by attacker cpu; abort cycles by address):\n");
    if (byCount.empty()) {
        std::printf("  (none)\n");
    } else {
        const size_t ncols =
            cpu.size() ? cpu.size()
                       : static_cast<size_t>(cpus > 0 ? cpus : 0);
        std::printf("  %-18s %10s", "address", "abort_cyc");
        for (size_t a = 0; a < ncols; ++a)
            std::printf(" %6s%zu", "cpu", a);
        std::printf("\n");
        for (size_t i = 0;
             i < byCount.size() && i < static_cast<size_t>(opt.top);
             ++i) {
            const std::string& addr = byCount[i].first;
            auto ac = abortCycles.find(addr);
            std::printf("  %-18s %10llu", addr.c_str(),
                        static_cast<unsigned long long>(
                            ac == abortCycles.end() ? 0 : ac->second));
            const auto& row = heat[addr];
            for (size_t a = 0; a < ncols; ++a) {
                auto it = row.find(static_cast<i64>(a));
                std::printf(" %7llu",
                            static_cast<unsigned long long>(
                                it == row.end() ? 0 : it->second));
            }
            std::printf("\n");
        }
    }

    std::printf("\noutermost tx durations (cycles, exact quantiles):\n");
    printDurationLine("committed", std::move(committedDur));
    printDurationLine("rolled-back", std::move(rolledDur));

    std::printf("\nper-cpu cycle attribution:\n");
    std::printf("  %-5s %12s %12s %12s %12s %12s %12s\n", "cpu", "useful",
                "wasted", "commit", "backoff", "other", "total");
    u64 sums[5] = {0, 0, 0, 0, 0};
    for (size_t i = 0; i < cpu.size(); ++i) {
        const CpuState& c = cpu[i];
        u64 accounted = c.useful + c.wasted + c.commit + c.backoff;
        if (accounted > cycles)
            fail("error: cpu%zu: attributed %llu cycles out of %llu\n",
                 i, static_cast<unsigned long long>(accounted),
                 static_cast<unsigned long long>(cycles));
        u64 other = accounted > cycles ? 0 : cycles - accounted;
        std::printf("  %-5zu %12llu %12llu %12llu %12llu %12llu %12llu\n",
                    i, static_cast<unsigned long long>(c.useful),
                    static_cast<unsigned long long>(c.wasted),
                    static_cast<unsigned long long>(c.commit),
                    static_cast<unsigned long long>(c.backoff),
                    static_cast<unsigned long long>(other),
                    static_cast<unsigned long long>(accounted + other));
        sums[0] += c.useful;
        sums[1] += c.wasted;
        sums[2] += c.commit;
        sums[3] += c.backoff;
        sums[4] += other;
    }
    std::printf("  %-5s %12llu %12llu %12llu %12llu %12llu %12llu\n",
                "all", static_cast<unsigned long long>(sums[0]),
                static_cast<unsigned long long>(sums[1]),
                static_cast<unsigned long long>(sums[2]),
                static_cast<unsigned long long>(sums[3]),
                static_cast<unsigned long long>(sums[4]),
                static_cast<unsigned long long>(sums[0] + sums[1] +
                                                sums[2] + sums[3] +
                                                sums[4]));

    std::printf("\nabort chains (outermost rollbacks before a commit):\n");
    if (chainHist.empty())
        std::printf("  (none)\n");
    for (const auto& [len, n] : chainHist)
        std::printf("  length %-4d %llu\n", len,
                    static_cast<unsigned long long>(n));

    if (opt.check) {
        if (dropped != 0)
            fail("error: %lld dropped event(s); attribution would be "
                 "unreliable\n",
                 static_cast<long long>(dropped));
        std::printf("\ncheck: %s\n", errors ? "FAILED" : "OK");
        return errors ? 1 : 0;
    }
    return errors ? 1 : 0;
}

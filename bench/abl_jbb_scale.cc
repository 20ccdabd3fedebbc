/**
 * @file
 * Ablation A14 — production-scale SPECjbb. Runs the sharded,
 * Zipf-skewed warehouse workload (1M customer keys, 100k stock keys,
 * open-nested order-id handoff) across warehouse counts x skew x CPU
 * counts up to 128, and reports per-op-class p99 commit latency — the
 * tail metric a system serving millions of users is judged on — plus
 * commit throughput.
 *
 * The interesting comparisons:
 *  - 1 warehouse vs 16: sharding removes the single order-tree/counter
 *    funnel, so commits/kcycle keeps climbing past 8 CPUs instead of
 *    flattening;
 *  - s = 0 vs s = 0.99: Zipf skew concentrates traffic on warehouse 0
 *    and the hot keys, re-creating contention inside the hot shard —
 *    visible as a higher neworder p99 at equal throughput;
 *  - contention policies at 64/128 CPUs: the PR 4 managers
 *    (timestamp/karma/hybrid) finally measured at the CPU counts they
 *    were built for, on top of the conflict detector's sharer index
 *    (DESIGN §7), which makes 128-CPU conflict lookups tractable.
 *
 * With --out FILE the grid is written as JSON (curated copy:
 * BENCH_jbb_scale.json; tools/bench_trend collects the headline
 * numbers). With --jobs N the grid fans out across host workers; rows
 * merge in grid order, so all output is identical for any N.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "workloads/harness.hh"

using namespace tmsim;

namespace {

/** The op classes the kernel tags (remote only exists when W > 1). */
const char* const opClasses[] = {"neworder", "neworder-remote",
                                 "payment", "orderstatus"};
constexpr std::size_t numClasses = 4;

struct Cell
{
    int warehouses;
    double zipfS;
    int cpus;
    ContentionPolicy policy;
    bool policyCell; ///< printed in the policy section of the table
};

struct CellResult
{
    RunResult r;
    std::uint64_t remoteHandoffs = 0;
    /** p99 of htm.tx_duration_committed.<class>, opClasses order;
     *  0 when the class never committed a transaction. */
    std::uint64_t p99[numClasses] = {0, 0, 0, 0};
};

struct Row
{
    Cell cell;
    CellResult res;
    double throughput; ///< commits per kilocycle
};

void
usage()
{
    std::fprintf(stderr, "usage: abl_jbb_scale [--jobs N] [--ops N] "
                         "[--customers N] [--out FILE]\n");
}

} // namespace

int
main(int argc, char** argv)
{
    std::string outFile;
    int jobs = 1;
    // Production-scale dataset; --ops/--customers shrink it for
    // smokes without changing the grid shape.
    KernelParams base;
    base.jbbCustomers = 1000000;
    base.jbbStockItems = 100000;
    base.jbbOps = 1280;
    walkArgs(argc, argv, usage,
             [&](const std::string& arg, const NextArg& next) {
        if (arg == "--out")
            outFile = next();
        else if (arg == "--jobs")
            jobs = parseInt(next(), "--jobs", 1, 1024);
        else if (arg == "--ops")
            base.jbbOps = parseInt(next(), "--ops", 1);
        else if (arg == "--customers")
            base.jbbCustomers = parseInt(next(), "--customers", 1);
        else
            return false;
        return true;
    });

    defaultLogContext().quiet = true;
    std::printf("# Ablation: production-scale SPECjbb (open variant, "
                "%d customers, %d ops)\n",
                base.jbbCustomers, base.jbbOps);
    std::printf("%-4s %-5s %-4s %-10s %10s %8s %7s %8s %9s %9s %4s\n",
                "wh", "zipf", "cpus", "policy", "cycles", "commits",
                "remote", "cmt/kcyc", "norder_p99", "remote_p99", "ok");

    // Scaling grid: warehouses x skew x CPUs under the default
    // (requester) policy, then the contention-policy section at the
    // sharded/skewed headline point.
    std::vector<Cell> grid;
    for (int w : {1, 16})
        for (double s : {0.0, 0.99})
            for (int cpus : {8, 64, 128})
                grid.push_back(Cell{w, s, cpus,
                                    ContentionPolicy::Requester, false});
    for (ContentionPolicy pol :
         {ContentionPolicy::Timestamp, ContentionPolicy::Karma,
          ContentionPolicy::Hybrid})
        for (int cpus : {64, 128})
            grid.push_back(Cell{16, 0.99, cpus, pol, true});

    auto runCell = [&](const Cell& cell) {
        HtmConfig cfg = HtmConfig::paperLazy();
        cfg.contention = cell.policy;
        KernelParams kp = base;
        kp.jbbWarehouses = cell.warehouses;
        kp.zipfS = cell.zipfS;
        kp.jbbRemotePct = cell.warehouses > 1 ? 10 : 0;
        auto k = makeNamedKernel("specjbb-open", kp);
        StatsRegistry stats;
        CellResult res;
        res.r = runKernel(*k, cfg, cell.cpus, 64ull * 1024 * 1024,
                          &stats);
        res.remoteHandoffs = stats.value("jbb.remote_handoffs");
        for (std::size_t c = 0; c < numClasses; ++c) {
            const StatsRegistry::Distribution* d =
                stats.findDistribution(
                    std::string("htm.tx_duration_committed.") +
                    opClasses[c]);
            res.p99[c] = d ? d->quantile(0.99) : 0;
        }
        return res;
    };

    std::vector<Row> rows;
    bool allOk = true;
    CampaignOptions opt;
    opt.jobs = jobs;
    opt.quiet = true;
    const CampaignResult cres = runCampaign<CellResult>(
        grid.size(), opt,
        [&](std::size_t i) { return runCell(grid[i]); },
        [&](std::size_t i, CellResult&& res) {
            const Cell& cell = grid[i];
            const double tput =
                res.r.cycles
                    ? 1000.0 * static_cast<double>(res.r.commits) /
                          static_cast<double>(res.r.cycles)
                    : 0.0;
            allOk = allOk && res.r.verified;
            std::printf("%-4d %-5.2f %-4d %-10s %10llu %8llu %7llu "
                        "%8.2f %9llu %9llu %4s\n",
                        cell.warehouses, cell.zipfS, cell.cpus,
                        contentionPolicyName(cell.policy),
                        static_cast<unsigned long long>(res.r.cycles),
                        static_cast<unsigned long long>(res.r.commits),
                        static_cast<unsigned long long>(
                            res.remoteHandoffs),
                        tput,
                        static_cast<unsigned long long>(res.p99[0]),
                        static_cast<unsigned long long>(res.p99[1]),
                        res.r.verified ? "yes" : "NO");
            rows.push_back(Row{cell, std::move(res), tput});
            return true;
        });
    if (cres.failed)
        fatal("sweep cancelled at cell %zu: %s", cres.failedJob,
              cres.message.c_str());

    // Headline numbers for the trend file: the sharded, skewed,
    // many-core cells — scaling and tails.
    std::map<std::string, double> headline;
    for (const Row& row : rows) {
        if (row.cell.policyCell || row.cell.warehouses != 16 ||
            row.cell.zipfS != 0.99)
            continue;
        const std::string base_key =
            "open_w16_s099_cpus" + std::to_string(row.cell.cpus);
        headline[base_key + "_commits_per_kcycle"] = row.throughput;
        headline[base_key + "_neworder_p99"] =
            static_cast<double>(row.res.p99[0]);
    }

    if (!outFile.empty()) {
        std::ofstream os(outFile);
        if (!os)
            fatal("cannot open %s", outFile.c_str());
        os << "{\n  \"bench\": \"abl_jbb_scale\",\n"
           << "  \"customers\": " << base.jbbCustomers << ",\n"
           << "  \"ops\": " << base.jbbOps << ",\n  \"rows\": [\n";
        for (size_t i = 0; i < rows.size(); ++i) {
            const Row& row = rows[i];
            os << "    {\"warehouses\": " << row.cell.warehouses
               << ", \"zipf_s\": " << row.cell.zipfS
               << ", \"cpus\": " << row.cell.cpus
               << ", \"policy\": \""
               << contentionPolicyName(row.cell.policy)
               << "\", \"cycles\": " << row.res.r.cycles
               << ", \"commits\": " << row.res.r.commits
               << ", \"rollbacks\": " << row.res.r.rollbacks
               << ", \"remote_handoffs\": " << row.res.remoteHandoffs
               << ", \"commits_per_kcycle\": " << row.throughput
               << ", \"p99\": {";
            for (std::size_t c = 0; c < numClasses; ++c) {
                os << "\"" << opClasses[c] << "\": " << row.res.p99[c]
                   << (c + 1 < numClasses ? ", " : "");
            }
            os << "}, \"verified\": "
               << (row.res.r.verified ? "true" : "false") << "}"
               << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        os << "  ],\n  \"headline\": {";
        size_t n = 0;
        for (const auto& [key, val] : headline) {
            os << "\"" << key << "\": " << val
               << (++n < headline.size() ? ", " : "");
        }
        os << "}\n}\n";
        std::printf("# wrote %s\n", outFile.c_str());
    }
    return allOk ? 0 : 1;
}

/**
 * @file
 * Ablation A8 — contention-management policy sweep. Runs the
 * adversarial `contend` kernel (every transaction hammers the same
 * hot line) under every ContentionPolicy and every conflict-handling
 * design point, and reports cycles, rollbacks and commit throughput.
 *
 * The interesting comparisons:
 *  - requester vs timestamp: pure tie-break determinism vs age order;
 *  - karma/hybrid vs timestamp: investment-weighted arbitration
 *    recovers throughput that strict age order gives away (an old
 *    transaction that keeps losing its window still outranks a young
 *    one that has already re-read the whole line);
 *  - hybrid's starvation guard: max consecutive aborts stays bounded
 *    by the escalation threshold while the others can run long tails.
 *
 * With --out FILE the sweep is also written as JSON (the curated copy
 * lives at BENCH_contention.json in the repo root). With --jobs N the
 * design x policy grid fans out across host worker threads; rows merge
 * in grid order, so all output is identical for any N.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "workloads/kernel_contention.hh"

using namespace tmsim;

namespace {

/** The design points swept (the three fully nested ones). */
const char* const designNames[] = {"lazy-wb", "eager-wb", "eager-undolog"};

const ContentionPolicy policies[] = {
    ContentionPolicy::Requester, ContentionPolicy::Timestamp,
    ContentionPolicy::Karma,     ContentionPolicy::Polite,
    ContentionPolicy::Hybrid,
};

void
usage()
{
    std::fprintf(stderr, "usage: abl_contention [--cpus N] [--jobs N] "
                         "[--out FILE]\n");
}

struct Row
{
    std::string design;
    std::string policy;
    RunResult r;
    double throughput; ///< commits per kilocycle
};

} // namespace

int
main(int argc, char** argv)
{
    std::string outFile;
    int cpus = 8;
    int jobs = 1;
    walkArgs(argc, argv, usage,
             [&](const std::string& arg, const NextArg& next) {
        if (arg == "--out")
            outFile = next();
        else if (arg == "--cpus")
            cpus = parseInt(next(), "--cpus", 1, 64);
        else if (arg == "--jobs")
            jobs = parseInt(next(), "--jobs", 1, 1024);
        else
            return false;
        return true;
    });

    defaultLogContext().quiet = true;
    std::printf("# Ablation: contention policies on the 'contend' "
                "kernel, %d CPUs\n",
                cpus);
    std::printf("%-14s %-10s %9s %9s %9s %6s\n", "design", "policy",
                "cycles", "rollback", "cmt/kcyc", "ok");

    // Grid cells in design-major order; each cell is one isolated job
    // and rows print in grid order at merge time, so the table and the
    // JSON are --jobs invariant.
    struct Cell
    {
        const DesignPoint* d;
        ContentionPolicy pol;
    };
    std::vector<Cell> grid;
    for (const char* name : designNames)
        for (ContentionPolicy pol : policies)
            grid.push_back(Cell{&designPoint(name), pol});

    std::vector<Row> rows;
    bool allOk = true;
    CampaignOptions opt;
    opt.jobs = jobs;
    opt.quiet = true;
    const CampaignResult cres = runCampaign<RunResult>(
        grid.size(), opt,
        [&](std::size_t i) {
            const Cell& cell = grid[i];
            HtmConfig cfg = cell.d->apply(HtmConfig{});
            cfg.contention = cell.pol;
            ContentionKernel k;
            return runKernel(k, cfg, cpus);
        },
        [&](std::size_t i, RunResult&& r) {
            const Cell& cell = grid[i];
            const double tput =
                r.cycles ? 1000.0 * static_cast<double>(r.commits) /
                               static_cast<double>(r.cycles)
                         : 0.0;
            allOk = allOk && r.verified;
            std::printf("%-14s %-10s %9llu %9llu %9.2f %6s\n",
                        cell.d->name, contentionPolicyName(cell.pol),
                        static_cast<unsigned long long>(r.cycles),
                        static_cast<unsigned long long>(r.rollbacks),
                        tput, r.verified ? "yes" : "NO");
            rows.push_back(Row{cell.d->name,
                               contentionPolicyName(cell.pol), r, tput});
            return true;
        });
    if (cres.failed)
        fatal("sweep cancelled at cell %zu: %s", cres.failedJob,
              cres.message.c_str());

    // Per-policy mean throughput across the design points: the
    // headline Hybrid-vs-Timestamp comparison. (Per-design rows above
    // show where each policy earns it: Hybrid wins both eager designs
    // outright and pays a few percent on lazy for bounding the
    // consecutive-abort tail.)
    std::printf("# mean commits/kcycle across designs:\n");
    std::vector<std::pair<std::string, double>> means;
    for (ContentionPolicy pol : policies) {
        double sum = 0.0;
        int n = 0;
        for (const Row& row : rows) {
            if (row.policy == contentionPolicyName(pol)) {
                sum += row.throughput;
                ++n;
            }
        }
        means.emplace_back(contentionPolicyName(pol),
                           n ? sum / n : 0.0);
        std::printf("#   %-10s %6.2f\n", means.back().first.c_str(),
                    means.back().second);
    }

    if (!outFile.empty()) {
        std::ofstream os(outFile);
        if (!os)
            fatal("cannot open %s", outFile.c_str());
        os << "{\n  \"bench\": \"abl_contention\",\n"
           << "  \"kernel\": \"contend\",\n"
           << "  \"cpus\": " << cpus << ",\n  \"rows\": [\n";
        for (size_t i = 0; i < rows.size(); ++i) {
            const Row& row = rows[i];
            os << "    {\"design\": \"" << row.design
               << "\", \"policy\": \"" << row.policy
               << "\", \"cycles\": " << row.r.cycles
               << ", \"commits\": " << row.r.commits
               << ", \"rollbacks\": " << row.r.rollbacks
               << ", \"commits_per_kcycle\": " << row.throughput
               << ", \"verified\": "
               << (row.r.verified ? "true" : "false") << "}"
               << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        os << "  ],\n  \"mean_commits_per_kcycle\": {";
        for (size_t i = 0; i < means.size(); ++i) {
            os << "\"" << means[i].first << "\": " << means[i].second
               << (i + 1 < means.size() ? ", " : "");
        }
        os << "}\n}\n";
        std::printf("# wrote %s\n", outFile.c_str());
    }
    return allOk ? 0 : 1;
}

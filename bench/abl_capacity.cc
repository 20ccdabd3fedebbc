/**
 * @file
 * Ablation A12 — bounded HTM capacity. Sweeps the per-level read/
 * write-set line caps across two op-class-bearing kernels and both
 * capacity modes, and reports how the abort rate and the commit
 * throughput trade as the hardware footprint shrinks.
 *
 * The interesting comparisons:
 *  - abort mode: the capacity-abort rate must rise monotonically as
 *    the caps shrink (a transaction that did not fit in 8 lines will
 *    not fit in 4); the bench enforces this and fails if the model
 *    ever violates it;
 *  - overflow mode: zero capacity aborts by construction — spilled
 *    lines ride the software overflow structure instead — at the cost
 *    of the per-transaction overflowCheckPenalty, visible as a lower
 *    commits/kcycle than the unbounded baseline but a higher one than
 *    tight-cap abort mode (the paper's VTM/XTM virtualisation
 *    argument, sec 2.3);
 *  - per-op-class p99: long transactions (specjbb neworder, contend
 *    long) absorb nearly all of the capacity pain; short ones barely
 *    move.
 *
 * With --out FILE the sweep is also written as JSON (the curated copy
 * lives at BENCH_capacity.json in the repo root; tools/bench_trend
 * collects the headline numbers from it). With --jobs N the kernel x
 * cap x mode grid fans out across host worker threads; rows merge in
 * grid order, so all output is identical for any N.
 */

#include <cstdio>
#include <cstring>
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

/** Caps swept, widest first; 0 is the unbounded baseline. */
const int caps[] = {0, 32, 16, 8, 4};

/** Kernels chosen because they register op classes, so the JSON can
 *  report per-business-op p99 next to the aggregate throughput. */
struct KernelInfo
{
    const char* name;
    std::vector<const char*> opClasses;
};

const KernelInfo kernels[] = {
    // mp3d/barnes: real read/write footprints, the capacity story.
    {"mp3d", {}},
    {"barnes", {}},
    // specjbb-closed: business-op classes split the p99 impact.
    {"specjbb-closed", {"neworder", "payment", "orderstatus"}},
    // contend: 1-line footprint control — caps must be a no-op.
    {"contend", {"long", "short"}},
};

struct Cell
{
    const KernelInfo* k;
    int cap;
    CapacityMode mode;
};

/** Everything one grid cell measures. */
struct CellResult
{
    RunResult r;
    std::uint64_t capAborts = 0;
    std::uint64_t capRestarts = 0;
    std::uint64_t capSpills = 0;
    std::uint64_t ovfChecks = 0;
    /** p99 of htm.tx_duration_committed.<class>, in cell op-class
     *  order; 0 when the class never committed a transaction. */
    std::vector<std::uint64_t> p99;
};

struct Row
{
    Cell cell;
    CellResult res;
    double abortRate;   ///< capacity aborts per commit
    double throughput;  ///< commits per kilocycle
};

void
usage()
{
    std::fprintf(stderr, "usage: abl_capacity [--cpus N] [--jobs N] "
                         "[--out FILE]\n");
}

const char*
modeLabel(const Cell& c)
{
    return c.cap == 0 ? "unbounded" : capacityModeName(c.mode);
}

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
    std::printf("# Ablation: HTM capacity bounds (rset=wset cap), "
                "%d CPUs\n",
                cpus);
    std::printf("%-15s %4s %-9s %9s %8s %8s %8s %7s %8s %4s\n",
                "kernel", "cap", "mode", "cycles", "commits", "cap_abt",
                "spills", "abt/cmt", "cmt/kcyc", "ok");

    // Grid cells in kernel-major, cap-major order; the unbounded
    // baseline runs once per kernel (both modes are bit-identical
    // when no cap is set). Rows print in grid order at merge time, so
    // the table and the JSON are --jobs invariant.
    std::vector<Cell> grid;
    for (const KernelInfo& k : kernels) {
        for (int cap : caps) {
            if (cap == 0) {
                grid.push_back(Cell{&k, 0, CapacityMode::Abort});
                continue;
            }
            grid.push_back(Cell{&k, cap, CapacityMode::Abort});
            grid.push_back(Cell{&k, cap, CapacityMode::Overflow});
        }
    }

    std::vector<Row> rows;
    bool allOk = true;
    CampaignOptions opt;
    opt.jobs = jobs;
    opt.quiet = true;
    const CampaignResult cres = runCampaign<CellResult>(
        grid.size(), opt,
        [&](std::size_t i) {
            const Cell& cell = grid[i];
            HtmConfig cfg = HtmConfig::paperLazy();
            cfg.rsetCap = cell.cap;
            cfg.wsetCap = cell.cap;
            cfg.capacityMode = cell.mode;
            auto k = makeNamedKernel(cell.k->name);
            if (!k)
                fatal("unknown kernel %s", cell.k->name);
            StatsRegistry stats;
            CellResult res;
            res.r = runKernel(*k, cfg, cpus, 64ull * 1024 * 1024,
                              &stats);
            res.capAborts = stats.sum("cpu*.htm.capacity_aborts");
            res.capRestarts = stats.sum("cpu*.htm.capacity_restarts");
            res.capSpills = stats.value("htm.capacity_spills");
            res.ovfChecks = stats.value("htm.overflow_checks");
            for (const char* cls : cell.k->opClasses) {
                const StatsRegistry::Distribution* d =
                    stats.findDistribution(
                    std::string("htm.tx_duration_committed.") + cls);
                res.p99.push_back(d ? d->quantile(0.99) : 0);
            }
            return res;
        },
        [&](std::size_t i, CellResult&& res) {
            const Cell& cell = grid[i];
            const double rate =
                res.r.commits
                    ? static_cast<double>(res.capAborts) /
                          static_cast<double>(res.r.commits)
                    : 0.0;
            const double tput =
                res.r.cycles
                    ? 1000.0 * static_cast<double>(res.r.commits) /
                          static_cast<double>(res.r.cycles)
                    : 0.0;
            allOk = allOk && res.r.verified;
            std::printf("%-15s %4d %-9s %9llu %8llu %8llu %8llu "
                        "%7.3f %8.2f %4s\n",
                        cell.k->name, cell.cap, modeLabel(cell),
                        static_cast<unsigned long long>(res.r.cycles),
                        static_cast<unsigned long long>(res.r.commits),
                        static_cast<unsigned long long>(res.capAborts),
                        static_cast<unsigned long long>(res.capSpills),
                        rate, tput, res.r.verified ? "yes" : "NO");
            rows.push_back(Row{cell, std::move(res), rate, tput});
            return true;
        });
    if (cres.failed)
        fatal("sweep cancelled at cell %zu: %s", cres.failedJob,
              cres.message.c_str());

    // The model's own sanity contract, enforced every run:
    //  - unbounded and overflow cells never take a capacity abort;
    //  - in abort mode the capacity-abort count is nondecreasing as
    //    the cap shrinks: a footprint that overflowed cap C also
    //    overflows any cap < C, so the set of over-cap transactions
    //    only grows. (The per-commit *rate* can wobble a hair because
    //    its denominator shifts with the retry interleaving; the
    //    count is the interleaving-independent invariant.)
    for (const KernelInfo& k : kernels) {
        std::uint64_t prevAborts = 0;
        for (const Row& row : rows) {
            if (row.cell.k != &k)
                continue;
            const bool abortMode =
                row.cell.cap > 0 &&
                row.cell.mode == CapacityMode::Abort;
            if (!abortMode && row.res.capAborts != 0) {
                std::printf("# VIOLATION: %s cap=%d %s took %llu "
                            "capacity aborts (expected 0)\n",
                            k.name, row.cell.cap, modeLabel(row.cell),
                            static_cast<unsigned long long>(
                                row.res.capAborts));
                allOk = false;
            }
            if (abortMode) {
                // rows arrive widest cap first
                if (row.res.capAborts < prevAborts) {
                    std::printf(
                        "# VIOLATION: %s capacity aborts fell from "
                        "%llu to %llu as cap shrank to %d\n",
                        k.name,
                        static_cast<unsigned long long>(prevAborts),
                        static_cast<unsigned long long>(
                            row.res.capAborts),
                        row.cell.cap);
                    allOk = false;
                }
                prevAborts = row.res.capAborts;
            }
        }
    }
    std::printf("# capacity-abort monotonicity: %s\n",
                allOk ? "ok" : "VIOLATED");

    // Headline numbers for the trend file: mp3d at the tightest cap,
    // both modes, against the unbounded baseline.
    std::map<std::string, double> headline;
    for (const Row& row : rows) {
        if (std::strcmp(row.cell.k->name, "mp3d") != 0)
            continue;
        if (row.cell.cap == 0)
            headline["mp3d_unbounded_commits_per_kcycle"] =
                row.throughput;
        else if (row.cell.cap == 4 &&
                 row.cell.mode == CapacityMode::Abort)
            headline["mp3d_cap4_abort_commits_per_kcycle"] =
                row.throughput;
        else if (row.cell.cap == 4 &&
                 row.cell.mode == CapacityMode::Overflow)
            headline["mp3d_cap4_overflow_commits_per_kcycle"] =
                row.throughput;
    }

    if (!outFile.empty()) {
        std::ofstream os(outFile);
        if (!os)
            fatal("cannot open %s", outFile.c_str());
        os << "{\n  \"bench\": \"abl_capacity\",\n"
           << "  \"cpus\": " << cpus << ",\n  \"rows\": [\n";
        for (size_t i = 0; i < rows.size(); ++i) {
            const Row& row = rows[i];
            os << "    {\"kernel\": \"" << row.cell.k->name
               << "\", \"cap\": " << row.cell.cap
               << ", \"mode\": \"" << modeLabel(row.cell)
               << "\", \"cycles\": " << row.res.r.cycles
               << ", \"commits\": " << row.res.r.commits
               << ", \"rollbacks\": " << row.res.r.rollbacks
               << ", \"capacity_aborts\": " << row.res.capAborts
               << ", \"capacity_restarts\": " << row.res.capRestarts
               << ", \"capacity_spills\": " << row.res.capSpills
               << ", \"overflow_checks\": " << row.res.ovfChecks
               << ", \"capacity_abort_rate\": " << row.abortRate
               << ", \"commits_per_kcycle\": " << row.throughput
               << ", \"p99\": {";
            for (size_t c = 0; c < row.cell.k->opClasses.size(); ++c) {
                os << "\"" << row.cell.k->opClasses[c]
                   << "\": " << row.res.p99[c]
                   << (c + 1 < row.cell.k->opClasses.size() ? ", "
                                                            : "");
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

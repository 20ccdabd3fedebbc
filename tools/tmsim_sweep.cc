/**
 * @file
 * tmsim_sweep — batch sweep driver: runs one kernel across a grid of
 * HTM design points x CPU counts, fanning the (fully isolated,
 * deterministic) simulations across host worker threads, and emits a
 * single merged JSON document with a per-cell summary and each cell's
 * full stats registry. Cell order in the document is grid order
 * (config-major, then CPU count) regardless of --jobs, so the merged
 * document is bitwise-identical for any worker count.
 *
 *   tmsim_sweep --kernel mp3d --cpus 1,2,4,8 --jobs 8 \
 *               --json-stats mp3d.sweep.json
 *   tmsim_sweep --kernel contend --configs lazy-wb,eager-undolog
 *
 * The design points and their names come from designPoints
 * (htm/htm_config.hh); the default grid runs all four in that order.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "tool_flags.hh"
#include "workloads/harness.hh"

using namespace tmsim;

namespace {

/** Bumped whenever the merged sweep document changes shape.
 *  v2: per-cell "wall_us" (host wall time of the cell's simulation)
 *  and a top-level "campaign" section with the merged campaign.*
 *  telemetry, so a sweep document is self-describing about its own
 *  cost. Both are host-time measurements and therefore the only
 *  nondeterministic fields in the document; sweep_smoke strips them
 *  before comparing --jobs 1 against --jobs 4. */
constexpr int sweepSchemaVersion = 2;

std::vector<std::string>
splitList(const std::string& s)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == ',') {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

void
usage()
{
    std::printf(
        "usage: tmsim_sweep --kernel NAME [options]\n"
        "  --kernel NAME      workload (tmsim_run --list)\n"
        "  --cpus LIST        comma-separated CPU counts "
        "(default 1,2,4,8)\n"
        "  --configs LIST     comma-separated design points (default: "
        "all\n"
        "                     four): %s\n"
        "  --jobs N           host worker threads (default 1; the "
        "merged\n"
        "                     document is identical for any N)\n"
        "  --json-stats FILE  write the merged sweep document "
        "(default stdout)\n",
        choiceList(designPoints).c_str());
    printKernelFlagsHelp();
    printCapacityHelp();
    std::printf("  --quiet            suppress simulator log output\n");
}

} // namespace

int
main(int argc, char** argv)
{
    std::string kernelName;
    std::string jsonStatsFile;
    std::string cpusList = "1,2,4,8";
    std::string configsList;
    KernelParams kp;
    int jobs = 1;
    bool quiet = false;
    // Every cell's config: the capacity flags, then its design point.
    HtmConfig base;

    walkArgs(argc, argv, usage,
             [&](const std::string& arg, const NextArg& next) {
        if (parseKernelFlag(arg, next, kp) ||
            parseCapacityFlag(arg, next, base))
            return true;
        if (arg == "--kernel")
            kernelName = next();
        else if (arg == "--cpus")
            cpusList = next();
        else if (arg == "--configs")
            configsList = next();
        else if (arg == "--jobs")
            jobs = parseInt(next(), "--jobs", 1, 1024);
        else if (arg == "--json-stats")
            jsonStatsFile = next();
        else if (arg == "--quiet")
            quiet = true;
        else
            return false;
        return true;
    });

    if (kernelName.empty()) {
        usage();
        return 2;
    }
    if (!makeNamedKernel(kernelName, kp))
        fatal("unknown kernel '%s' (try tmsim_run --list)",
              kernelName.c_str());

    std::vector<int> cpuCounts;
    for (const std::string& tok : splitList(cpusList))
        cpuCounts.push_back(parseInt(tok, "--cpus", 1, 128));

    std::vector<const DesignPoint*> configs;
    if (configsList.empty()) {
        for (const DesignPoint& c : designPoints)
            configs.push_back(&c);
    } else {
        for (const std::string& tok : splitList(configsList))
            configs.push_back(&parseChoice(tok, "--configs", designPoints));
    }

    defaultLogContext().quiet = quiet;

    // Grid cells in config-major order; job index == cell index.
    struct Cell
    {
        const DesignPoint* cfg;
        int cpus;
    };
    std::vector<Cell> grid;
    for (const DesignPoint* c : configs)
        for (int n : cpuCounts)
            grid.push_back(Cell{c, n});

    struct CellResult
    {
        RunResult r;
        std::string statsJson;
        std::uint64_t wallUs = 0;
    };

    std::ostringstream doc;
    doc << "{\n";
    doc << "  \"schema\": \"tmsim-sweep\",\n";
    doc << "  \"schema_version\": " << sweepSchemaVersion << ",\n";
    doc << "  \"kernel\": \"" << kernelName << "\",\n";
    doc << "  \"runs\": [\n";

    bool allVerified = true;
    StatsRegistry telemetry;
    CampaignOptions opt;
    opt.jobs = jobs;
    opt.quiet = quiet;
    opt.telemetry = &telemetry;
    const CampaignResult cres = runCampaign<CellResult>(
        grid.size(), opt,
        [&](std::size_t i) {
            const Cell& cell = grid[i];
            auto kernel = makeNamedKernel(kernelName, kp);
            CellResult res;
            StatsRegistry stats;
            const auto t0 = std::chrono::steady_clock::now();
            res.r = runKernel(*kernel, cell.cfg->apply(base), cell.cpus,
                              64ull * 1024 * 1024, &stats);
            res.wallUs = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            std::ostringstream ss;
            stats.dumpJson(ss);
            res.statsJson = ss.str();
            return res;
        },
        [&](std::size_t i, CellResult&& res) {
            const Cell& cell = grid[i];
            std::fprintf(stderr,
                         "%-16s cpus %-3d %10llu cycles  %8llu commits  "
                         "%s\n",
                         cell.cfg->name, cell.cpus,
                         static_cast<unsigned long long>(res.r.cycles),
                         static_cast<unsigned long long>(res.r.commits),
                         res.r.verified ? "ok" : "VERIFY-FAIL");
            allVerified = allVerified && res.r.verified;
            // Indent the embedded registry dump to the cell's depth so
            // the merged document stays readable.
            std::istringstream stats(res.statsJson);
            std::ostringstream indented;
            std::string line;
            bool first = true;
            while (std::getline(stats, line)) {
                indented << (first ? "" : "\n      ") << line;
                first = false;
            }
            doc << "    {\n"
                << "      \"config\": \"" << cell.cfg->name << "\",\n"
                << "      \"cpus\": " << cell.cpus << ",\n"
                << "      \"cycles\": " << res.r.cycles << ",\n"
                << "      \"instructions\": " << res.r.instructions
                << ",\n"
                << "      \"commits\": " << res.r.commits << ",\n"
                << "      \"rollbacks\": " << res.r.rollbacks << ",\n"
                << "      \"verified\": "
                << (res.r.verified ? "true" : "false") << ",\n"
                // Host time; the one nondeterministic per-cell field
                // (kept on its own line so sweep_smoke can strip it).
                << "      \"wall_us\": " << res.wallUs << ",\n"
                << "      \"stats\": " << indented.str() << "\n"
                << "    }" << (i + 1 < grid.size() ? "," : "") << "\n";
            return true;
        });

    if (cres.failed) {
        std::fprintf(stderr, "fatal: sweep cancelled at cell %zu: %s\n",
                     cres.failedJob, cres.message.c_str());
        return 1;
    }

    doc << "  ],\n";
    // Merged campaign telemetry: what this sweep cost the host. Each
    // sub-object is emitted on one line so sweep_smoke can strip the
    // section before its determinism compare.
    doc << "  \"campaign\": {\n";
    doc << "    \"jobs\": " << jobs << ",\n";
    doc << "    \"job_wall_us\": "
        << distSummaryJson(telemetry.distribution("campaign.job_wall_us"))
        << ",\n";
    doc << "    \"merge_us\": "
        << distSummaryJson(telemetry.distribution("campaign.merge_us"))
        << "\n";
    doc << "  },\n";
    doc << "  \"all_verified\": " << (allVerified ? "true" : "false")
        << "\n";
    doc << "}\n";

    if (jsonStatsFile.empty()) {
        std::cout << doc.str();
    } else {
        openOutput(jsonStatsFile, "stats") << doc.str();
        std::fprintf(stderr, "wrote %s (%zu cells)\n",
                     jsonStatsFile.c_str(), grid.size());
    }
    return allVerified ? 0 : 1;
}

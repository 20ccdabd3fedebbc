/**
 * @file
 * tmsim_run — command-line driver: run any bundled kernel under any
 * HTM configuration and dump the statistics, gem5-style.
 *
 *   tmsim_run --kernel mp3d --cpus 8
 *   tmsim_run --kernel specjbb-open --cpus 8 --nesting flatten
 *   tmsim_run --kernel water --conflict eager --version undolog \
 *             --contention timestamp --stats
 *   tmsim_run --list
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/trace.hh"
#include "tool_flags.hh"
#include "workloads/harness.hh"

using namespace tmsim;

namespace {

void
usage()
{
    std::printf(
        "usage: tmsim_run --kernel NAME [options]\n"
        "  --kernel NAME      workload (see --list)\n"
        "  --cpus N           CPUs / threads (default 8)\n"
        "  --version MODE     speculative versioning: %s\n"
        "  --conflict MODE    conflict detection: %s\n",
        choiceList(versionModeNames).c_str(),
        choiceList(conflictModeNames).c_str());
    printContentionHelp();
    std::printf(
        "  --starvation-k N   hybrid: escalate after N consecutive\n"
        "                     aborts (default 8)\n"
        "  --nesting MODE     nested transactions: %s\n"
        "  --scheme MODE      cache nesting scheme: %s\n"
        "  --granularity MODE conflict tracking: %s\n",
        choiceList(nestingModeNames).c_str(),
        choiceList(nestSchemeNames).c_str(),
        choiceList(trackGranularityNames).c_str());
    printCapacityHelp();
    std::printf("  --no-backoff       disable retry backoff\n");
    printKernelFlagsHelp();
    std::printf(
        "  --stats            dump every counter after the run\n"
        "  --trace FILE       write a Chrome trace-event JSON of every\n"
        "                     transaction lifecycle event (Perfetto)\n"
        "  --json-stats FILE  write the full stats registry as JSON\n"
        "  --quiet            suppress simulator log output (default:\n"
        "                     warnings and above are shown)\n"
        "  --list             list kernels\n");
}

} // namespace

int
main(int argc, char** argv)
{
    std::string kernelName;
    std::string traceFile;
    std::string jsonStatsFile;
    int cpus = 8;
    HtmConfig htm = HtmConfig::paperLazy();
    KernelParams kp;
    bool dumpStats = false;
    bool quiet = false;

    walkArgs(argc, argv, usage,
             [&](const std::string& arg, const NextArg& next) {
        if (parseContentionFlag(arg, next, htm.contention) ||
            parseCapacityFlag(arg, next, htm) ||
            parseKernelFlag(arg, next, kp))
            return true;
        if (arg == "--kernel") {
            kernelName = next();
        } else if (arg == "--cpus") {
            cpus = parseInt(next(), "--cpus", 1, 128);
        } else if (arg == "--version") {
            htm.version =
                parseChoice(next(), "--version", versionModeNames).value;
            if (htm.version == VersionMode::UndoLog)
                htm.conflict = ConflictMode::Eager;
        } else if (arg == "--conflict") {
            htm.conflict =
                parseChoice(next(), "--conflict", conflictModeNames).value;
        } else if (arg == "--policy") {
            fatal("--policy was removed; use --contention "
                  "requester|timestamp");
        } else if (arg == "--starvation-k") {
            htm.starvationThreshold = parseInt(next(), "--starvation-k", 1);
        } else if (arg == "--nesting") {
            htm.nesting =
                parseChoice(next(), "--nesting", nestingModeNames).value;
        } else if (arg == "--scheme") {
            htm.scheme =
                parseChoice(next(), "--scheme", nestSchemeNames).value;
        } else if (arg == "--granularity") {
            htm.granularity =
                parseChoice(next(), "--granularity", trackGranularityNames)
                    .value;
        } else if (arg == "--no-backoff") {
            htm.retryBackoff = false;
        } else if (arg == "--stats") {
            dumpStats = true;
        } else if (arg == "--trace") {
            traceFile = next();
        } else if (arg == "--json-stats") {
            jsonStatsFile = next();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--list") {
            for (const std::string& n : namedKernels())
                std::printf("%s\n", n.c_str());
            std::exit(0);
        } else {
            return false;
        }
        return true;
    });

    if (kernelName.empty()) {
        usage();
        return 2;
    }
    auto kernel = makeNamedKernel(kernelName, kp);
    if (!kernel)
        fatal("unknown kernel '%s' (try --list)", kernelName.c_str());

    defaultLogContext().quiet = quiet;

    Machine m(kernelMachineConfig(*kernel, htm, cpus));
    if (!traceFile.empty())
        m.tracer().enable(true);
    const RunResult r = runKernelOn(m, *kernel);

    std::printf("kernel       %s\n", kernelName.c_str());
    std::printf("htm          %s%s\n", r.htm.c_str(),
                htm.granularity == TrackGranularity::Word ? "/word" : "");
    std::printf("cpus         %d\n", cpus);
    std::printf("cycles       %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("instructions %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("commits      %llu\n",
                static_cast<unsigned long long>(r.commits));
    std::printf("rollbacks    %llu (outer %llu, inner %llu)\n",
                static_cast<unsigned long long>(r.rollbacks),
                static_cast<unsigned long long>(
                    m.stats().sum("cpu*.rollbacks_outer")),
                static_cast<unsigned long long>(
                    m.stats().sum("cpu*.rollbacks_inner")));
    std::printf("bus busy     %llu cycles\n",
                static_cast<unsigned long long>(r.busBusyCycles));
    std::printf("verified     %s\n", r.verified ? "yes" : "NO");

    if (dumpStats) {
        std::printf("---- stats ----\n");
        m.stats().dump(std::cout);
    }
    if (!traceFile.empty()) {
        std::ofstream os = openOutput(traceFile, "trace");
        m.tracer().writeChromeTrace(os);
        if (m.tracer().droppedCount())
            std::fprintf(stderr,
                         "warning: trace buffer full, %llu event(s) "
                         "dropped\n",
                         static_cast<unsigned long long>(
                             m.tracer().droppedCount()));
    }
    if (!jsonStatsFile.empty()) {
        std::ofstream os = openOutput(jsonStatsFile, "stats");
        m.stats().dumpJson(os);
    }
    return r.verified ? 0 : 1;
}

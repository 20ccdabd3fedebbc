/**
 * @file
 * tmbench: runs one benchmark workload in this process and prints its
 * metrics. The last line of standard output is one JSON object with
 * the keys correct, attempted, failed and metrics: the end-to-end
 * metrics untraced, the per-layer metrics traced.
 *
 *   tmbench --workload jbb_sim|fuzz_campaign|stm_bank --seed N
 *           --seconds S --trace 0|1 [--span-file PATH]
 *           [--untraced-work-per-s X]
 *
 * The run repeats the workload's episode until S seconds of request
 * time have been measured (at least three episodes; see Episodes).
 *
 * A traced run given the untraced work_per_s of the same workload and
 * seed reports the tracing overhead as trace.overhead_pct.
 *
 * Exit status: 0 when every correctness check passed, 1 when one
 * failed, 2 on bad usage.
 */

#include <malloc.h>

#include <cstdio>
#include <string>

#include "bench.hh"
#include "sim/parse.hh"

using namespace tmbench;

namespace {

[[noreturn]] void
usage(const std::string& msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: tmbench --workload "
                 "jbb_sim|fuzz_campaign|stm_bank --seed N --seconds S "
                 "--trace 0|1 [--span-file PATH] "
                 "[--untraced-work-per-s X]\n",
                 msg.c_str());
    std::exit(2);
}

void
printTable(const char* title, const std::vector<Metric>& metrics)
{
    std::printf("%s\n", title);
    for (const Metric& m : metrics) {
        std::printf("  %-28s %16.10g %-7s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (m.samples)
            std::printf(" (%llu samples)",
                        static_cast<unsigned long long>(m.samples));
        std::printf("\n");
    }
}

double
metricValue(const std::vector<Metric>& ms, const std::string& name)
{
    for (const Metric& m : ms) {
        if (m.name == name)
            return m.value;
    }
    return 0.0;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    RunOptions opt;
    double untracedRate = 0.0;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const char* val = argv[++i];
        if (arg == "--workload") {
            workload = val;
        } else if (arg == "--seed") {
            opt.seed = tmsim::parseU64(val, "--seed");
            haveSeed = true;
        } else if (arg == "--seconds") {
            opt.seconds = tmsim::parseDouble(val, "--seconds", 0.001, 3600);
            haveSeconds = true;
        } else if (arg == "--trace") {
            opt.trace = tmsim::parseInt(val, "--trace", 0, 1) == 1;
            haveTrace = true;
        } else if (arg == "--span-file") {
            opt.spanFile = val;
        } else if (arg == "--untraced-work-per-s") {
            untracedRate =
                tmsim::parseDouble(val, "--untraced-work-per-s", 0, 1e15);
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        usage("--seed, --seconds and --trace are required");

    // Blocks of 1 MiB and more get mappings of their own, instead of
    // glibc's default threshold that rises as blocks are freed. Growing
    // such a block then remaps its pages rather than copying them, so
    // peak_rss_mb does not depend on whether two threads' vectors
    // happened to grow at the same moment.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);

    WorkloadResult r;
    if (workload == "jbb_sim")
        r = runJbbSim(opt);
    else if (workload == "fuzz_campaign")
        r = runFuzzCampaign(opt);
    else if (workload == "stm_bank")
        r = runStmBank(opt);
    else
        usage("unknown workload '" + workload + "'");

    if (opt.trace && untracedRate > 0) {
        const double traced = metricValue(r.endToEnd, "work_per_s");
        setLayer(r, "trace.overhead_pct",
                 100.0 * (untracedRate - traced) / untracedRate);
    }

    std::printf("workload %s seed %llu seconds %g trace %d\n",
                workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    for (const std::string& n : r.notes)
        std::printf("%s\n", n.c_str());
    printTable("end-to-end:", r.endToEnd);
    if (opt.trace)
        printTable("per-layer:", r.perLayer);
    std::printf("attempted %llu failed %llu correct %s\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.correct ? "true" : "false");
    std::printf("%s\n", resultJson(r, opt.trace).c_str());
    std::fflush(stdout);
    if (!r.correct) {
        // Standard error is what survives in a failed run's log.
        std::fprintf(stderr, "tmbench: %s failed a correctness check\n",
                     workload.c_str());
        for (const std::string& n : r.notes)
            std::fprintf(stderr, "  %s\n", n.c_str());
    }
    return r.correct ? 0 : 1;
}

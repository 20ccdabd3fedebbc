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

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/trace.hh"
#include "workloads/harness.hh"

using namespace tmsim;

namespace {

void
usage()
{
    std::printf(
        "usage: tmsim_run --kernel NAME [options]\n"
        "  --kernel NAME        workload (see --list)\n"
        "  --cpus N             CPUs / threads (default 8)\n"
        "  --version wb|undolog speculative versioning\n"
        "  --conflict lazy|eager\n"
        "  --contention P       contention manager: requester|timestamp|\n"
        "                       karma|polite|hybrid\n"
        "  --starvation-k N     hybrid: escalate after N consecutive\n"
        "                       aborts (default 8)\n"
        "  --nesting full|flatten\n"
        "  --scheme assoc|multitrack  (cache nesting scheme)\n"
        "  --granularity line|word    (conflict tracking)\n"
        "  --rset-cap N         bound per-level read-sets to N lines\n"
        "                       (0 = unbounded, the default)\n"
        "  --wset-cap N         bound per-level write-sets to N lines\n"
        "  --capacity-mode M    abort|overflow: over-cap handling\n"
        "  --no-backoff         disable retry backoff\n"
        "  --jbb-ops N          specjbb-*: total operations\n"
        "  --jbb-customers N    specjbb-*: total customer keys\n"
        "  --jbb-stock N        specjbb-*: total stock keys\n"
        "  --jbb-warehouses N   specjbb-*: warehouse shards (default 1)\n"
        "  --jbb-think N        specjbb-*: think cycles per phase\n"
        "  --jbb-remote-pct N   specjbb-*: %% of new orders handed to\n"
        "                       another warehouse (cross-shard)\n"
        "  --zipf S             specjbb-*: Zipf skew in [0,1) for\n"
        "                       warehouse/customer/item draws\n"
        "  --fuzz-seed N        seed for the 'fuzz' kernel (default 1)\n"
        "  --stats              dump every counter after the run\n"
        "  --trace FILE         write a Chrome trace-event JSON of every\n"
        "                       transaction lifecycle event (Perfetto)\n"
        "  --json-stats FILE    write the full stats registry as JSON\n"
        "  --quiet              suppress simulator log output (default:\n"
        "                       warnings and above are shown)\n"
        "  --list               list kernels\n");
}

/** The value @p choices pairs with @p val; fatal, naming every
 *  accepted spelling, for anything else. */
template <typename E>
E
parseChoice(const std::string& val, const char* flag,
            std::initializer_list<std::pair<const char*, E>> choices)
{
    std::string names;
    for (const auto& [name, e] : choices) {
        if (val == name)
            return e;
        names += names.empty() ? name : std::string("|") + name;
    }
    fatal("%s: unknown value '%s' (expected %s)", flag, val.c_str(),
          names.c_str());
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

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--kernel") {
            kernelName = next();
        } else if (arg == "--cpus") {
            cpus = parseInt(next(), "--cpus", 1, 128);
        } else if (arg == "--version") {
            htm.version = parseChoice<VersionMode>(
                next(), "--version",
                {{"wb", VersionMode::WriteBuffer},
                 {"undolog", VersionMode::UndoLog}});
            if (htm.version == VersionMode::UndoLog)
                htm.conflict = ConflictMode::Eager;
        } else if (arg == "--conflict") {
            htm.conflict = parseChoice<ConflictMode>(
                next(), "--conflict",
                {{"lazy", ConflictMode::Lazy},
                 {"eager", ConflictMode::Eager}});
        } else if (arg == "--policy") {
            fatal("--policy was removed; use --contention "
                  "requester|timestamp");
        } else if (arg == "--contention") {
            const std::string name = next();
            if (!contentionPolicyFromName(name, htm.contention))
                fatal("unknown contention policy '%s'", name.c_str());
        } else if (arg == "--starvation-k") {
            htm.starvationThreshold = parseInt(next(), "--starvation-k", 1);
        } else if (arg == "--nesting") {
            htm.nesting = parseChoice<NestingMode>(
                next(), "--nesting",
                {{"full", NestingMode::Full},
                 {"flatten", NestingMode::Flatten}});
        } else if (arg == "--scheme") {
            htm.scheme = parseChoice<NestScheme>(
                next(), "--scheme",
                {{"assoc", NestScheme::Associativity},
                 {"multitrack", NestScheme::MultiTracking}});
        } else if (arg == "--granularity") {
            htm.granularity = parseChoice<TrackGranularity>(
                next(), "--granularity",
                {{"line", TrackGranularity::Line},
                 {"word", TrackGranularity::Word}});
        } else if (arg == "--rset-cap") {
            htm.rsetCap = parseInt(next(), "--rset-cap", 0, 100000);
        } else if (arg == "--wset-cap") {
            htm.wsetCap = parseInt(next(), "--wset-cap", 0, 100000);
        } else if (arg == "--capacity-mode") {
            const std::string name = next();
            if (!capacityModeFromName(name, htm.capacityMode))
                fatal("unknown capacity mode '%s'", name.c_str());
        } else if (arg == "--no-backoff") {
            htm.retryBackoff = false;
        } else if (arg == "--jbb-ops") {
            kp.jbbOps = parseInt(next(), "--jbb-ops", 1);
        } else if (arg == "--jbb-customers") {
            kp.jbbCustomers = parseInt(next(), "--jbb-customers", 1);
        } else if (arg == "--jbb-stock") {
            kp.jbbStockItems = parseInt(next(), "--jbb-stock", 1);
        } else if (arg == "--jbb-warehouses") {
            kp.jbbWarehouses = parseInt(next(), "--jbb-warehouses", 1,
                                        1024);
        } else if (arg == "--jbb-think") {
            kp.jbbThinkCycles = parseInt(next(), "--jbb-think", 0);
        } else if (arg == "--jbb-remote-pct") {
            kp.jbbRemotePct = parseInt(next(), "--jbb-remote-pct", 0,
                                       100);
        } else if (arg == "--zipf") {
            kp.zipfS = parseDouble(next(), "--zipf", 0.0, 0.999);
        } else if (arg == "--fuzz-seed") {
            kp.fuzzSeed = parseU64(next(), "--fuzz-seed");
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
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage();
            return 2;
        }
    }

    if (kernelName.empty()) {
        usage();
        return 2;
    }
    auto kernel = makeNamedKernel(kernelName, kp);
    if (!kernel)
        fatal("unknown kernel '%s' (try --list)", kernelName.c_str());

    defaultLogContext().quiet = quiet;

    MachineConfig cfg;
    cfg.numCpus = cpus;
    cfg.htm = htm;
    cfg.memBytes = std::max(cfg.memBytes, kernel->memBytesHint());
    Machine m(cfg);
    if (!traceFile.empty())
        m.tracer().enable(true);
    kernel->init(m, cpus);

    std::vector<std::unique_ptr<TxThread>> threads;
    for (int i = 0; i < cpus; ++i)
        threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
    for (int i = 0; i < cpus; ++i) {
        Kernel* k = kernel.get();
        TxThread* t = threads[static_cast<size_t>(i)].get();
        m.spawn(i, [k, t, i, cpus](Cpu&) -> SimTask {
            co_await k->thread(*t, i, cpus);
        });
    }

    Tick cycles = m.run();
    bool verified = kernel->verify(m, cpus);

    std::uint64_t instr = 0;
    for (int i = 0; i < cpus; ++i)
        instr += m.cpu(i).instret();

    std::printf("kernel       %s\n", kernelName.c_str());
    std::printf("htm          %s%s\n", htm.describe().c_str(),
                htm.granularity == TrackGranularity::Word ? "/word" : "");
    std::printf("cpus         %d\n", cpus);
    std::printf("cycles       %llu\n",
                static_cast<unsigned long long>(cycles));
    std::printf("instructions %llu\n",
                static_cast<unsigned long long>(instr));
    std::printf("commits      %llu\n",
                static_cast<unsigned long long>(
                    m.stats().sum("cpu*.htm.commits") +
                    m.stats().sum("cpu*.htm.open_commits")));
    std::printf("rollbacks    %llu (outer %llu, inner %llu)\n",
                static_cast<unsigned long long>(
                    m.stats().sum("cpu*.htm.rollbacks")),
                static_cast<unsigned long long>(
                    m.stats().sum("cpu*.rollbacks_outer")),
                static_cast<unsigned long long>(
                    m.stats().sum("cpu*.rollbacks_inner")));
    std::printf("bus busy     %llu cycles\n",
                static_cast<unsigned long long>(
                    m.stats().value("bus.busy_cycles")));
    std::printf("verified     %s\n", verified ? "yes" : "NO");

    if (dumpStats) {
        std::printf("---- stats ----\n");
        m.stats().dump(std::cout);
    }
    if (!traceFile.empty()) {
        std::ofstream os(traceFile);
        if (!os)
            fatal("cannot open trace file '%s'", traceFile.c_str());
        m.tracer().writeChromeTrace(os);
        if (m.tracer().droppedCount())
            std::fprintf(stderr,
                         "warning: trace buffer full, %llu event(s) "
                         "dropped\n",
                         static_cast<unsigned long long>(
                             m.tracer().droppedCount()));
    }
    if (!jsonStatsFile.empty()) {
        std::ofstream os(jsonStatsFile);
        if (!os)
            fatal("cannot open stats file '%s'", jsonStatsFile.c_str());
        m.stats().dumpJson(os);
    }
    return verified ? 0 : 1;
}

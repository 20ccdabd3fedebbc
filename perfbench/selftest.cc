/**
 * @file
 * The benchmark's own tests:
 *  - a sliced jbb_sim run simulates exactly what one unsliced run and
 *    runKernel of the same shape simulate, traced or not, and every
 *    episode of a run simulates the same thing;
 *  - the traced fuzz_campaign, which drives every Machine itself, gives
 *    the verdicts and merged stats of the untraced runProgramAllConfigs;
 *  - each workload, run for its minimum number of episodes, prints
 *    every metric name with its unit.
 * Exit status 0 when every check passes.
 */

#include <cstdio>
#include <sstream>

#include "bench.hh"
#include "workloads/harness.hh"

using namespace tmbench;

namespace {

int failures = 0;

void
check(bool ok, const std::string& what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

template <typename T>
void
checkEq(const T& a, const T& b, const std::string& what)
{
    std::ostringstream os;
    os << what << " (" << a << " vs " << b << ")";
    check(a == b, os.str());
}

/** A jbb shape small enough to run in a fraction of a second. */
JbbShape
tinyJbb()
{
    JbbShape s;
    s.cpus = 8;
    s.warehouses = 4;
    s.customers = 4000;
    s.stockItems = 800;
    s.ops = 240;
    s.sliceCycles = 2000;
    return s;
}

void
jbbSlicingIsInvisible()
{
    const JbbShape shape = tinyJbb();
    RunOptions opt;
    opt.seconds = 0; // the minimum number of episodes
    JbbCounts sliced, traced, whole;
    runJbb(shape, opt, &sliced);
    opt.trace = true;
    runJbb(shape, opt, &traced);
    opt.trace = false;
    JbbShape one = shape;
    one.sliceCycles = ~std::uint64_t{0} / 2;
    runJbb(one, opt, &whole);

    tmsim::KernelParams kp;
    kp.jbbOps = shape.ops;
    kp.jbbCustomers = shape.customers;
    kp.jbbStockItems = shape.stockItems;
    kp.jbbWarehouses = shape.warehouses;
    kp.jbbRemotePct = shape.remotePct;
    kp.zipfS = shape.zipfS;
    auto kernel = tmsim::makeNamedKernel("specjbb-open", kp);
    const tmsim::RunResult ref = tmsim::runKernel(
        *kernel, tmsim::HtmConfig::paperLazy(), shape.cpus);

    // A run's counts are verified only when every episode verified and
    // simulated exactly what the first one did.
    check(sliced.verified && traced.verified && whole.verified &&
              ref.verified,
          "jbb: every episode of every run verifies and repeats");
    check(sliced.commits > 0 && sliced.events > 0, "jbb: the run did work");
    checkEq(sliced.ticks, static_cast<std::uint64_t>(ref.cycles),
            "jbb: sliced sim.ticks == runKernel cycles");
    checkEq(sliced.instructions, ref.instructions,
            "jbb: sliced instructions == runKernel");
    checkEq(sliced.commits, ref.commits, "jbb: sliced commits == runKernel");
    checkEq(sliced.events, whole.events,
            "jbb: sliced sim.events == unsliced");
    checkEq(sliced.ticks, whole.ticks, "jbb: sliced sim.ticks == unsliced");
    checkEq(sliced.events, traced.events, "jbb: traced sim.events");
    checkEq(sliced.instructions, traced.instructions,
            "jbb: traced instructions");
    checkEq(sliced.commits, traced.commits, "jbb: traced commits");
}

void
fuzzTracedMatchesUntraced()
{
    // Seeds 240..279 include 262, which livelocks when it runs under
    // the Polite contention policy it draws; benchProgram replaces
    // that draw, so no seed may fail.
    const std::uint64_t first = 240, n = 40;
    RunOptions opt;
    opt.seconds = 0; // the minimum number of episodes
    std::vector<SeedVerdict> plain, traced;
    tmsim::StatsRegistry plainStats, tracedStats;
    runFuzzSeeds(first, n, opt, &plain, &plainStats);
    opt.trace = true;
    const WorkloadResult tr =
        runFuzzSeeds(first, n, opt, &traced, &tracedStats);

    checkEq(plain.size(), static_cast<std::size_t>(n),
            "fuzz: untraced ran every seed");
    checkEq(traced.size(), static_cast<std::size_t>(n),
            "fuzz: traced ran every seed");
    std::size_t same = 0, failing = 0;
    for (std::size_t i = 0; i < plain.size() && i < traced.size(); ++i) {
        same += plain[i] == traced[i];
        failing += plain[i].failed;
    }
    checkEq(same, plain.size(), "fuzz: identical verdicts");
    checkEq(failing, std::size_t{0}, "fuzz: no seed fails");
    std::ostringstream a, b;
    plainStats.dump(a);
    tracedStats.dump(b);
    check(a.str() == b.str() && !a.str().empty(),
          "fuzz: identical merged stats");
    double events = 0;
    for (const Metric& m : tr.perLayer) {
        if (m.name == "sim.events")
            events = m.value;
    }
    check(events > 0, "fuzz: traced run counts events");

    // Seed 42000621 draws Hybrid, which livelocks on it under
    // eager-undolog.
    opt.trace = false;
    const WorkloadResult hy = runFuzzSeeds(42000621, 1, opt);
    check(hy.correct && hy.failed == 0,
          "fuzz: seed 42000621 does not hang (Hybrid replaced)");
}

void
printsEveryMetric(const char* name, WorkloadResult (*run)(const RunOptions&))
{
    static const std::vector<std::pair<std::string, std::string>> e2e = {
        {"work_per_s", "1/s"},
        {"latency_p50_us", "us"},
        {"latency_p99_us", "us"},
        {"peak_rss_mb", "MiB"},
        {"setup_s", "s"},
    };
    for (int trace = 0; trace < 2; ++trace) {
        RunOptions opt;
        opt.seconds = 0; // the minimum number of episodes
        opt.trace = trace == 1;
        const WorkloadResult r = run(opt);
        const std::string json = resultJson(r, opt.trace);
        const auto& want = opt.trace ? perLayerSchema() : e2e;
        std::size_t found = 0;
        for (const auto& [metric, unit] : want) {
            const std::string key = "\"" + metric + "\": {\"value\": ";
            const std::size_t at = json.find(key);
            found += at != std::string::npos &&
                     json.find("\"unit\": \"" + unit + "\"}", at) !=
                         std::string::npos;
        }
        const std::string what =
            std::string(name) + (opt.trace ? " traced" : " untraced");
        checkEq(found, want.size(), what + ": every metric with its unit");
        check(r.correct && r.attempted > 0 && r.failed == 0,
              what + ": correct, nothing failed");
    }
}

} // namespace

int
main()
{
    jbbSlicingIsInvisible();
    fuzzTracedMatchesUntraced();
    printsEveryMetric("jbb_sim", runJbbSim);
    printsEveryMetric("fuzz_campaign", runFuzzCampaign);
    printsEveryMetric("stm_bank", runStmBank);
    std::printf("%d failure(s)\n", failures);
    return failures ? 1 : 0;
}

/**
 * @file
 * Ablation A8: cost of conflict detection as CPU count and write-set
 * size grow. Exercises the detector's hot queries directly — lazy
 * validate-time write-set broadcast, eager access-time checks, and
 * strong-atomicity scans for non-transactional stores — plus an
 * end-to-end contended-transaction throughput run.
 *
 * The sharer index turns these from O(lines x CPUs x depth) scans
 * into O(actual sharers) lookups; this
 * benchmark is the before/after evidence (BENCH_conflict_index.json).
 *
 * Set layout per victim CPU: `privLines` private read lines plus
 * `kHotLines` hot lines read by everybody. The committer/requester
 * touches mostly-private lines, so almost every probed line has no
 * remote sharers — the common case a broadcast still had to pay a
 * full per-CPU scan for.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "runtime/tx_thread.hh"
#include "sim/campaign.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"

using namespace tmsim;

namespace {

constexpr int kHotLines = 4;

MachineConfig
config(int cpus, HtmConfig htm)
{
    MachineConfig cfg;
    cfg.numCpus = cpus;
    cfg.htm = htm;
    cfg.memBytes = 8ull * 1024 * 1024;
    return cfg;
}

struct Rig
{
    std::unique_ptr<Machine> m;
    Addr hotBase = 0;
    Addr privBase = 0;
    Addr lineBytes = 32;

    Addr hot(int i) const { return hotBase + static_cast<Addr>(i) * lineBytes; }

    Addr
    priv(int cpu, int i) const
    {
        return privBase +
               (static_cast<Addr>(cpu) * 4096 + static_cast<Addr>(i)) *
                   lineBytes;
    }
};

/**
 * Build a machine where every CPU except 0 sits mid-transaction with a
 * populated read-set (private lines + the hot lines) and a small
 * private write-set. CPU 0 is the committer/requester under test.
 */
Rig
makeRig(int cpus, HtmConfig htm, int privLines)
{
    Rig r;
    r.m = std::make_unique<Machine>(config(cpus, htm));
    r.lineBytes = r.m->config().l1.lineBytes;
    r.hotBase = r.m->memory().allocate(kHotLines * r.lineBytes);
    r.privBase =
        r.m->memory().allocate(static_cast<Addr>(cpus) * 4096 * r.lineBytes);
    for (int c = 1; c < cpus; ++c) {
        HtmContext& ctx = r.m->cpu(c).htm();
        ctx.begin(TxKind::Closed, static_cast<Tick>(c));
        for (int i = 0; i < privLines; ++i)
            ctx.specRead(r.priv(c, i));
        for (int i = 0; i < kHotLines; ++i)
            ctx.specRead(r.hot(i));
        for (int i = 0; i < 8; ++i)
            ctx.specWrite(r.priv(c, privLines + i), 1);
    }
    return r;
}

/**
 * Lazy conflict-heavy commit: the committer validates a write-set of
 * `wset` lines (one hot line, the rest private) against `cpus - 1`
 * active readers. Pre-change cost: wset x cpus context scans.
 */
void
BM_LazyBroadcast(benchmark::State& state)
{
    defaultLogContext().quiet = true;
    const int cpus = static_cast<int>(state.range(0));
    const int wset = static_cast<int>(state.range(1));
    Rig r = makeRig(cpus, HtmConfig::paperLazy(), 64);

    HtmContext& committer = r.m->cpu(0).htm();
    committer.begin(TxKind::Closed, 0);
    std::vector<Addr> lines;
    lines.push_back(r.hot(0));
    for (int i = 1; i < wset; ++i)
        lines.push_back(r.priv(0, i));

    ConflictDetector& det = r.m->memSystem().detector();
    for (auto _ : state) {
        Cycles pen = det.broadcastWriteSet(committer, lines);
        benchmark::DoNotOptimize(pen);
    }
    state.SetItemsProcessed(state.iterations() * wset);
}

/**
 * Eager access-time checks: the requester probes `wset` mostly-private
 * units for read access (hot units are read-shared, so nothing is
 * violated — this is the steady-state no-conflict cost every access
 * pays under eager detection).
 */
void
BM_EagerCheck(benchmark::State& state)
{
    defaultLogContext().quiet = true;
    const int cpus = static_cast<int>(state.range(0));
    const int wset = static_cast<int>(state.range(1));
    Rig r = makeRig(cpus, HtmConfig::eagerUndoLog(), 64);

    HtmContext& req = r.m->cpu(0).htm();
    req.begin(TxKind::Closed, 0);
    std::vector<Addr> units;
    units.push_back(req.trackUnit(r.hot(0)));
    for (int i = 1; i < wset; ++i)
        units.push_back(req.trackUnit(r.priv(0, i)));

    ConflictDetector& det = r.m->memSystem().detector();
    for (auto _ : state) {
        for (Addr u : units) {
            auto v = det.eagerCheck(req, u, false);
            benchmark::DoNotOptimize(v);
        }
    }
    state.SetItemsProcessed(state.iterations() * wset);
}

/**
 * Strong atomicity: a non-transactional CPU stores to lines no
 * transaction touches; every store still had to scan all contexts.
 */
void
BM_NonTxStoreScan(benchmark::State& state)
{
    defaultLogContext().quiet = true;
    const int cpus = static_cast<int>(state.range(0));
    Rig r = makeRig(cpus, HtmConfig::paperLazy(), 64);
    ConflictDetector& det = r.m->memSystem().detector();

    std::vector<Addr> units;
    for (int i = 0; i < 64; ++i)
        units.push_back(r.priv(0, i));

    for (auto _ : state) {
        for (Addr u : units)
            det.nonTxStore(0, u);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}

/** Result of one end-to-end hot-line run (simulated metrics only). */
struct E2eResult
{
    Tick cycles = 0;
    std::uint64_t commits = 0;
    std::uint64_t rollbacks = 0;
};

/**
 * The end-to-end workload: every CPU runs transactions that read the
 * hot lines and update private counters, so each commit broadcast
 * confronts the full sharer population.
 */
E2eResult
runE2e(int cpus, const HtmConfig& htm)
{
    Machine m(config(cpus, htm));
    std::vector<std::unique_ptr<TxThread>> threads;
    for (int i = 0; i < cpus; ++i)
        threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
    Addr hot = m.memory().allocate(kHotLines * 32);
    Addr priv = m.memory().allocate(static_cast<Addr>(cpus) * 1024);
    for (int i = 0; i < cpus; ++i) {
        m.spawn(i, [&, i](Cpu&) -> SimTask {
            TxThread& t = *threads[static_cast<size_t>(i)];
            Addr mine = priv + static_cast<Addr>(i) * 1024;
            for (int k = 0; k < 20; ++k) {
                co_await t.atomic([&](TxThread& tx) -> SimTask {
                    Word h = co_await tx.ld(hot);
                    for (int j = 0; j < 12; ++j) {
                        Word v = co_await tx.ld(mine + 8 * j);
                        co_await tx.st(mine + 8 * j, v + h + 1);
                    }
                });
            }
        });
    }
    E2eResult r;
    r.cycles = m.run();
    r.commits = m.stats().sum("cpu*.htm.commits");
    r.rollbacks = m.stats().sum("cpu*.htm.rollbacks");
    return r;
}

/** Same workload as a host-time benchmark. */
void
BM_TxThroughputE2E(benchmark::State& state)
{
    defaultLogContext().quiet = true;
    const int cpus = static_cast<int>(state.range(0));
    for (auto _ : state) {
        E2eResult r = runE2e(cpus, HtmConfig::paperLazy());
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * 20 * cpus);
}

/**
 * Pool-driven sweep mode (--sweep-out FILE [--jobs N]): the end-to-end
 * hot-line workload over a design x CPU grid, fanned across host
 * workers and merged in grid order. All metrics are simulated (cycles,
 * commits, rollbacks), so the document is identical for any --jobs.
 */
int
runSweep(const std::string& out_file, int jobs)
{
    defaultLogContext().quiet = true;

    const char* const designNames[] = {"lazy-wb", "eager-undolog"};
    const int cpuCounts[] = {1, 2, 4, 8, 16};

    struct Cell
    {
        const DesignPoint* d;
        int cpus;
    };
    std::vector<Cell> grid;
    for (const char* name : designNames)
        for (int n : cpuCounts)
            grid.push_back(Cell{&designPoint(name), n});

    std::ofstream os(out_file);
    if (!os)
        fatal("cannot open %s", out_file.c_str());
    os << "{\n  \"bench\": \"abl_conflict_index_e2e\",\n"
       << "  \"rows\": [\n";

    CampaignOptions opt;
    opt.jobs = jobs;
    opt.quiet = true;
    const CampaignResult cres = runCampaign<E2eResult>(
        grid.size(), opt,
        [&](std::size_t i) {
            return runE2e(grid[i].cpus, grid[i].d->apply(HtmConfig{}));
        },
        [&](std::size_t i, E2eResult&& r) {
            const Cell& cell = grid[i];
            std::printf("%-14s cpus %-3d %10llu cycles  %6llu commits  "
                        "%6llu rollbacks\n",
                        cell.d->name, cell.cpus,
                        static_cast<unsigned long long>(r.cycles),
                        static_cast<unsigned long long>(r.commits),
                        static_cast<unsigned long long>(r.rollbacks));
            os << "    {\"design\": \"" << cell.d->name
               << "\", \"cpus\": " << cell.cpus
               << ", \"cycles\": " << r.cycles
               << ", \"commits\": " << r.commits
               << ", \"rollbacks\": " << r.rollbacks << "}"
               << (i + 1 < grid.size() ? "," : "") << "\n";
            return true;
        });
    if (cres.failed)
        fatal("sweep cancelled at cell %zu: %s", cres.failedJob,
              cres.message.c_str());
    os << "  ]\n}\n";
    std::printf("# wrote %s\n", out_file.c_str());
    return 0;
}

} // namespace

BENCHMARK(BM_LazyBroadcast)
    ->ArgsProduct({{1, 2, 4, 8, 16}, {16, 256}})
    ->ArgNames({"cpus", "wset"});
BENCHMARK(BM_EagerCheck)
    ->ArgsProduct({{1, 2, 4, 8, 16}, {16, 256}})
    ->ArgNames({"cpus", "wset"});
BENCHMARK(BM_NonTxStoreScan)->Arg(1)->Arg(4)->Arg(16)->ArgName("cpus");
BENCHMARK(BM_TxThroughputE2E)
    ->Arg(2)->Arg(8)->Arg(16)
    ->ArgName("cpus")
    ->Unit(benchmark::kMillisecond);

void
usage()
{
    std::printf("usage: abl_conflict_index [--sweep-out FILE [--jobs N]] "
                "[google-benchmark flags]\n");
    benchmark::PrintDefaultHelp();
}

// Custom main instead of BENCHMARK_MAIN(): --sweep-out selects the
// pool-driven end-to-end grid; anything else goes to google-benchmark.
int
main(int argc, char** argv)
{
    std::string sweepOut;
    int jobs = 1;
    std::vector<std::string> rest;
    walkArgs(argc, argv, usage,
             [&](const std::string& arg, const NextArg& next) {
        if (arg == "--sweep-out")
            sweepOut = next();
        else if (arg == "--jobs")
            jobs = parseInt(next(), "--jobs", 1, 1024);
        else
            rest.push_back(arg);
        return true;
    });
    if (!sweepOut.empty())
        return runSweep(sweepOut, jobs);

    std::vector<char*> passthrough{argv[0]};
    for (std::string& arg : rest)
        passthrough.push_back(arg.data());
    int bargc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bargc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

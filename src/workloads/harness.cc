#include "workloads/harness.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"
#include "workloads/kernel_condsync.hh"
#include "workloads/kernel_contention.hh"
#include "workloads/kernel_fuzz.hh"
#include "workloads/kernel_iobench.hh"
#include "workloads/kernel_mp3d.hh"
#include "workloads/kernel_specjbb.hh"
#include "workloads/kernels_scientific.hh"

namespace tmsim {

const std::vector<std::string>&
namedKernels()
{
    static const std::vector<std::string> names = {
        "barnes",         "fmm",           "moldyn",
        "mp3d",           "mp3d-open",     "swim",
        "tomcatv",        "water",         "specjbb-flat",
        "specjbb-closed", "specjbb-open",  "specjbb-hybrid",
        "iobench-tx",     "iobench-serialized",
        "condsync-sched", "condsync-poll",
        "contend",        "contend-mixed", "fuzz",
    };
    return names;
}

bool
parseKernelFlag(const std::string& arg, const NextArg& next,
                KernelParams& kp)
{
    if (arg == "--fuzz-seed")
        kp.fuzzSeed = parseU64(next(), "--fuzz-seed");
    else if (arg == "--jbb-ops")
        kp.jbbOps = parseInt(next(), "--jbb-ops", 1);
    else if (arg == "--jbb-customers")
        kp.jbbCustomers = parseInt(next(), "--jbb-customers", 1);
    else if (arg == "--jbb-stock")
        kp.jbbStockItems = parseInt(next(), "--jbb-stock", 1);
    else if (arg == "--jbb-warehouses")
        kp.jbbWarehouses = parseInt(next(), "--jbb-warehouses", 1, 1024);
    else if (arg == "--jbb-think")
        kp.jbbThinkCycles = parseInt(next(), "--jbb-think", 0);
    else if (arg == "--jbb-remote-pct")
        kp.jbbRemotePct = parseInt(next(), "--jbb-remote-pct", 0, 100);
    else if (arg == "--zipf")
        kp.zipfS = parseDouble(next(), "--zipf", 0.0, 0.999);
    else
        return false;
    return true;
}

void
printKernelFlagsHelp()
{
    std::printf(
        "  --fuzz-seed N      seed for the 'fuzz' kernel (default 1)\n"
        "  --jbb-ops N        specjbb-*: total operations\n"
        "  --jbb-customers N  specjbb-*: total customer keys\n"
        "  --jbb-stock N      specjbb-*: total stock keys\n"
        "  --jbb-warehouses N specjbb-*: warehouse shards (default 1)\n"
        "  --jbb-think N      specjbb-*: think cycles per phase\n"
        "  --jbb-remote-pct N specjbb-*: %% of new orders handed to\n"
        "                     another warehouse (cross-shard)\n"
        "  --zipf S           specjbb-*: Zipf skew in [0,1) for\n"
        "                     warehouse/customer/item draws\n");
}

std::unique_ptr<Kernel>
makeNamedKernel(const std::string& name, const KernelParams& kp)
{
    const std::uint64_t fuzz_seed = kp.fuzzSeed;
    if (name == "barnes")
        return std::make_unique<SciKernel>(sciBarnes());
    if (name == "fmm")
        return std::make_unique<SciKernel>(sciFmm());
    if (name == "moldyn")
        return std::make_unique<SciKernel>(sciMoldyn());
    if (name == "mp3d")
        return std::make_unique<Mp3dKernel>();
    if (name == "mp3d-open") {
        Mp3dParams p;
        p.openReductions = true;
        return std::make_unique<Mp3dKernel>(p);
    }
    if (name == "swim")
        return std::make_unique<SciKernel>(sciSwim());
    if (name == "tomcatv")
        return std::make_unique<SciKernel>(sciTomcatv());
    if (name == "water")
        return std::make_unique<SciKernel>(sciWater());
    if (name.rfind("specjbb-", 0) == 0) {
        JbbVariant variant;
        if (name == "specjbb-flat")
            variant = JbbVariant::Flat;
        else if (name == "specjbb-closed")
            variant = JbbVariant::ClosedNested;
        else if (name == "specjbb-open")
            variant = JbbVariant::OpenNested;
        else if (name == "specjbb-hybrid")
            variant = JbbVariant::Hybrid;
        else
            return nullptr;
        JbbParams p;
        if (kp.jbbOps >= 0)
            p.totalOps = kp.jbbOps;
        if (kp.jbbCustomers >= 0)
            p.customers = kp.jbbCustomers;
        if (kp.jbbStockItems >= 0)
            p.stockItems = kp.jbbStockItems;
        if (kp.jbbWarehouses >= 0)
            p.warehouses = kp.jbbWarehouses;
        if (kp.jbbThinkCycles >= 0)
            p.thinkCycles = kp.jbbThinkCycles;
        if (kp.jbbRemotePct >= 0)
            p.remotePct = kp.jbbRemotePct;
        if (kp.zipfS >= 0.0)
            p.zipfS = kp.zipfS;
        return std::make_unique<SpecJbbKernel>(variant, p);
    }
    if (name == "iobench-tx" || name == "iobench-serialized") {
        IoBenchParams p;
        p.transactional = name == "iobench-tx";
        return std::make_unique<IoBenchKernel>(p);
    }
    if (name == "condsync-sched" || name == "condsync-poll") {
        CondSyncParams p;
        p.useScheduler = name == "condsync-sched";
        return std::make_unique<CondSyncKernel>(p);
    }
    if (name == "contend")
        return std::make_unique<ContentionKernel>();
    if (name == "contend-mixed") {
        // One long-holding victim thread among short aggressors: the
        // two op classes ("long"/"short") split the tail-latency dump
        // by role.
        ContentionParams p;
        p.longThreads = 1;
        return std::make_unique<ContentionKernel>(p);
    }
    if (name == "fuzz")
        return std::make_unique<FuzzKernel>(fuzz_seed);
    return nullptr;
}

MachineConfig
kernelMachineConfig(const Kernel& kernel, const HtmConfig& htm,
                    int n_threads, Addr mem_bytes)
{
    MachineConfig cfg;
    cfg.numCpus = n_threads;
    cfg.htm = htm;
    cfg.memBytes = std::max(mem_bytes, kernel.memBytesHint());
    return cfg;
}

RunResult
runKernelOn(Machine& m, Kernel& kernel)
{
    const int n_threads = m.config().numCpus;
    kernel.init(m, n_threads);

    std::vector<std::unique_ptr<TxThread>> threads;
    threads.reserve(static_cast<size_t>(n_threads));
    for (int i = 0; i < n_threads; ++i)
        threads.push_back(std::make_unique<TxThread>(m.cpu(i)));

    for (int i = 0; i < n_threads; ++i) {
        TxThread* t = threads[static_cast<size_t>(i)].get();
        m.spawn(i, [&kernel, t, i, n_threads](Cpu&) -> SimTask {
            co_await kernel.thread(*t, i, n_threads);
        });
    }

    RunResult r;
    r.kernel = kernel.name();
    r.htm = m.config().htm.describe();
    r.threads = n_threads;
    r.cycles = m.run();
    r.commits = m.stats().sum("cpu*.htm.commits") +
                m.stats().sum("cpu*.htm.open_commits");
    r.rollbacks = m.stats().sum("cpu*.htm.rollbacks");
    r.violationsTaken = m.stats().sum("cpu*.violations_taken");
    r.busBusyCycles = m.stats().value("bus.busy_cycles");
    std::uint64_t instr = 0;
    for (int i = 0; i < n_threads; ++i)
        instr += m.cpu(i).instret();
    r.instructions = instr;
    r.verified = kernel.verify(m, n_threads);
    return r;
}

RunResult
runKernel(Kernel& kernel, const HtmConfig& htm, int n_threads,
          Addr mem_bytes, StatsRegistry* stats_out)
{
    Machine m(kernelMachineConfig(kernel, htm, n_threads, mem_bytes));
    RunResult r = runKernelOn(m, kernel);
    if (stats_out)
        stats_out->mergeFrom(m.stats());
    return r;
}

Fig5Row
fig5Row(const KernelFactory& make, int n_threads, const HtmConfig& base)
{
    HtmConfig nested = base;
    nested.nesting = NestingMode::Full;
    HtmConfig flat = base;
    flat.nesting = NestingMode::Flatten;

    Fig5Row row;
    {
        auto k = make();
        row.seq = runKernel(*k, nested, 1);
        row.name = k->name();
    }
    {
        auto k = make();
        row.flat = runKernel(*k, flat, n_threads);
    }
    {
        auto k = make();
        row.nested = runKernel(*k, nested, n_threads);
    }
    row.nestingSpeedup = static_cast<double>(row.flat.cycles) /
                         static_cast<double>(row.nested.cycles);
    row.nestedVsSeq = static_cast<double>(row.seq.cycles) /
                      static_cast<double>(row.nested.cycles);
    row.flatVsSeq = static_cast<double>(row.seq.cycles) /
                    static_cast<double>(row.flat.cycles);
    row.allVerified =
        row.seq.verified && row.flat.verified && row.nested.verified;
    return row;
}

} // namespace tmsim

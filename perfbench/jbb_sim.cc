/**
 * @file
 * jbb_sim: the paper's SPECjbb workload (section 7.1) at many cores —
 * specjbb-open under HtmConfig::paperLazy() on 64 simulated CPUs, 16
 * Zipf-skewed warehouses and 10% cross-warehouse handoffs — on one
 * host thread. An episode builds the kernel and the Machine in set-up
 * and then runs the fixed operation count to completion; a request is
 * one Machine::run call that advances a fixed number of simulated
 * cycles, so host time goes to commit broadcast, tag lookup, conflict
 * detection and the event queue.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench.hh"
#include "core/machine.hh"
#include "workloads/harness.hh"
#include "workloads/zipf.hh"

namespace tmbench {

using namespace tmsim;

namespace {

/** specjbb operations per episode: 1-2 s of requests on a 4-core x86
 *  host (see README.md), depending on how busy the host is. */
constexpr int jbbEpisodeOps = 2500;

/** Simulated cycles per request: 0.5-1 ms of host time at 64 CPUs, so
 *  an episode has ~2200 requests and its p99 rests on ~22 of them. In
 *  interleaved runs on one host, p99 moved 5% across seeds at this
 *  size against 26% at 5000 cycles (~16 requests beyond p99 in a whole
 *  run). */
constexpr std::uint64_t jbbSliceCycles = 500;

/** One built kernel + machine, ready to run. */
struct JbbSetup
{
    std::unique_ptr<Kernel> kernel;
    std::unique_ptr<Machine> machine;
    std::vector<std::unique_ptr<TxThread>> threads;

    void
    reset()
    {
        threads.clear();
        machine.reset();
        kernel.reset();
    }
};

/** The seed perturbs the customer and stock populations. */
JbbShape
jbbShapeFor(const RunOptions& opt)
{
    JbbShape s;
    // specjbb draws its arrivals from the op index, so the seed enters
    // through the populations: every cold-key Zipf rank and the tree
    // layouts change, the workload's shape does not.
    const std::uint64_t h = hashMix64(opt.seed);
    s.customers += static_cast<int>(h % 1024);
    s.stockItems += static_cast<int>((h >> 10) % 256);
    s.ops = jbbEpisodeOps;
    s.sliceCycles = jbbSliceCycles;
    return s;
}

std::string
countsLine(const JbbCounts& c)
{
    char line[256];
    std::snprintf(line, sizeof line,
                  "exact counts per episode: sim.ticks %llu "
                  "core.instructions %llu htm.commits %llu sim.events %llu",
                  static_cast<unsigned long long>(c.ticks),
                  static_cast<unsigned long long>(c.instructions),
                  static_cast<unsigned long long>(c.commits),
                  static_cast<unsigned long long>(c.events));
    return line;
}

} // namespace

WorkloadResult
runJbb(const JbbShape& shape, const RunOptions& opt, JbbCounts* counts)
{
    WorkloadResult r;
    std::unique_ptr<SpanLog> log;
    if (opt.trace)
        log = std::make_unique<SpanLog>();
    SpanLog* lg = log.get();

    KernelParams kp;
    kp.jbbOps = shape.ops;
    kp.jbbCustomers = shape.customers;
    kp.jbbStockItems = shape.stockItems;
    kp.jbbWarehouses = shape.warehouses;
    kp.jbbRemotePct = shape.remotePct;
    kp.zipfS = shape.zipfS;
    const int cpus = shape.cpus;

    Episodes eps;
    std::vector<double> kernelUs, machineUs, initUs, nsPerEvent;
    JbbCounts first;
    std::uint64_t reqs = 0, failedReqs = 0;
    std::int64_t simNsTotal = 0;
    JbbSetup live;
    do {
        live.reset(); // at most one episode is resident at a time
        const std::int64_t t0 = nowNs();
        {
            Scoped root(lg, "setup", -1, -1);
            {
                Scoped s(lg, "workloads.kernel_build", root.index(), -1);
                live.kernel = makeNamedKernel("specjbb-open", kp);
            }
            MachineConfig cfg;
            cfg.numCpus = cpus;
            cfg.htm = HtmConfig::paperLazy();
            cfg.memBytes = std::max<Addr>(64ull * 1024 * 1024,
                                          live.kernel->memBytesHint());
            const std::int64_t t1 = nowNs();
            kernelUs.push_back(static_cast<double>(t1 - t0) / 1e3);
            {
                Scoped s(lg, "core.machine_build", root.index(), -1);
                live.machine = std::make_unique<Machine>(cfg);
            }
            const std::int64_t t2 = nowNs();
            machineUs.push_back(static_cast<double>(t2 - t1) / 1e3);
            {
                Scoped s(lg, "workloads.init", root.index(), -1);
                live.kernel->init(*live.machine, cpus);
            }
            initUs.push_back(static_cast<double>(nowNs() - t2) / 1e3);
            Scoped s(lg, "runtime.thread_setup", root.index(), -1);
            Kernel* kernel = live.kernel.get();
            for (int i = 0; i < cpus; ++i) {
                live.threads.push_back(
                    std::make_unique<TxThread>(live.machine->cpu(i)));
            }
            for (int i = 0; i < cpus; ++i) {
                TxThread* t = live.threads[static_cast<size_t>(i)].get();
                live.machine->spawn(
                    i, [kernel, t, i, cpus](Cpu&) -> SimTask {
                        co_await kernel->thread(*t, i, cpus);
                    });
            }
        }
        const double setupS = static_cast<double>(nowNs() - t0) / 1e9;

        Machine& m = *live.machine;
        LatencyHist lat = makeHist();
        std::int64_t simNs = 0;
        const std::uint64_t firstReq = reqs;
        do {
            Scoped req(lg, "request", -1, static_cast<std::int64_t>(reqs));
            const std::int64_t s0 = nowNs();
            {
                Scoped s(lg, "core.sim_run", req.index(),
                         static_cast<std::int64_t>(reqs));
                m.run(m.now() + shape.sliceCycles);
            }
            const std::int64_t dt = nowNs() - s0;
            lat.sample(static_cast<std::uint64_t>(dt));
            simNs += dt;
            ++reqs;
        } while (!m.allDone());

        JbbCounts c;
        {
            Scoped s(lg, "workloads.verify", -1, -1);
            c.verified = live.kernel->verify(m, cpus);
        }
        const StatsRegistry& st = m.stats();
        c.ticks = st.value("sim.ticks");
        for (int i = 0; i < cpus; ++i)
            c.instructions += m.cpu(i).instret();
        c.commits =
            st.sum("cpu*.htm.commits") + st.sum("cpu*.htm.open_commits");
        c.events = m.eventQueue().executed();
        bool ok = c.verified;
        if (!c.verified) {
            r.notes.push_back("jbb_sim: Kernel::verify() failed in episode " +
                              std::to_string(eps.count()));
        }
        if (eps.count() == 0) {
            first = c;
        } else if (!(c == first)) {
            ok = false;
            r.notes.push_back("jbb_sim: episode " +
                              std::to_string(eps.count()) +
                              " simulated differently from episode 0: " +
                              countsLine(c));
        }
        if (!ok) {
            r.correct = false;
            failedReqs += reqs - firstReq;
        }
        eps.add(setupS, static_cast<double>(c.instructions),
                static_cast<double>(simNs) / 1e9, lat);
        nsPerEvent.push_back(c.events ? static_cast<double>(simNs) /
                                            static_cast<double>(c.events)
                                      : 0.0);
        simNsTotal += simNs;
    } while (eps.more(opt));

    if (counts) {
        *counts = first;
        counts->verified = r.correct;
    }
    r.notes.push_back(countsLine(first));
    r.attempted = reqs;
    r.failed = failedReqs;
    addEndToEnd(r, eps);

    if (!opt.trace)
        return r;

    // Every episode simulated the same thing (checked above), so the
    // last episode's machine holds each episode's counts.
    const StatsRegistry& st = live.machine->stats();
    const auto E = static_cast<std::uint64_t>(eps.count());
    setLayer(r, "workloads.kernel_build_us", median(kernelUs), E);
    setLayer(r, "core.machine_build_us", median(machineUs), E);
    setLayer(r, "workloads.init_us", median(initUs), E);
    setLayer(r, "sim.host_ns_per_event", median(nsPerEvent), E);
    setLayer(r, "sim.events", static_cast<double>(first.events));
    setLayer(r, "sim.ticks", static_cast<double>(first.ticks));
    setLayer(r, "core.instructions", static_cast<double>(first.instructions));
    setLayer(r, "mem.l1_misses",
             static_cast<double>(st.sum("cpu*.l1.misses")));
    setLayer(r, "mem.l2_misses",
             static_cast<double>(st.sum("cpu*.l2.misses")));
    setLayer(r, "mem.bus_transfers",
             static_cast<double>(st.value("bus.transfers")));
    setLayer(r, "htm.broadcast_lines",
             static_cast<double>(st.value("htm.broadcast_lines")));
    setLayer(r, "htm.index_hits",
             static_cast<double>(st.value("htm.index_hits")));
    setLayer(r, "htm.sig_filtered",
             static_cast<double>(st.value("htm.sig_filtered")));
    setLayer(r, "htm.commits", static_cast<double>(first.commits));
    setLayer(r, "htm.rollbacks",
             static_cast<double>(st.sum("cpu*.htm.rollbacks")));
    setLayer(r, "htm.commit_rate", st.formulaValue("htm.commit_rate"));
    setLayer(r, "htm.wasted_cycles",
             static_cast<double>(st.sum("cpu*.htm.wasted_cycles")));
    if (const auto* d =
            st.findDistribution("htm.tx_duration_committed.neworder")) {
        setLayer(r, "htm.neworder_p99_cycles",
                 static_cast<double>(d->quantile(0.99)), d->count());
    }
    setLayer(r, "htm.cm.escalations",
             static_cast<double>(st.value("htm.cm.escalations")));
    setLayer(r, "core.sim_run_us",
             reqs ? static_cast<double>(simNsTotal) / 1e3 /
                        static_cast<double>(reqs)
                  : 0.0,
             reqs);
    completeLayers(r);
    summarizeLayers(r, {lg});
    if (!opt.spanFile.empty() && !writeSpans(opt.spanFile, {lg}))
        r.notes.push_back("cannot write spans to " + opt.spanFile);
    return r;
}

WorkloadResult
runJbbSim(const RunOptions& opt)
{
    return runJbb(jbbShapeFor(opt), opt);
}

} // namespace tmbench

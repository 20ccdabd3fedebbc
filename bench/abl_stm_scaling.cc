/**
 * @file
 * Ablation A13 — native STM backend thread scaling. Unlike every other
 * bench in this directory this one does not run the cycle simulator:
 * it drives the src/stm runtime with real host threads and measures
 * wall-clock commit throughput at 1, 2 and 4 threads. Each row runs
 * five times and reports the median run, so one descheduled run
 * cannot swing the scaling ratio. Within a kernel the runs go
 * round-robin over the thread counts (1, 2, 4, 1, 2, 4, ...), so the
 * runs a ratio compares are made close together and a slow host
 * period lands on every row alike.
 *
 * Three kernels, chosen so the curve is interpretable on any host,
 * including single-CPU CI boxes (host_cpus is recorded in the JSON):
 *
 *  - "latency": each operation waits a fixed think time *outside* the
 *    transaction, then runs a small disjoint-counter transaction. The
 *    workload is latency-bound, not CPU-bound, so threads overlap
 *    their think times and throughput scales with the thread count
 *    even on one CPU — this is the curve the scaling gate checks.
 *  - "disjoint": back-to-back transactions over per-thread counters,
 *    CPU-bound with zero conflicts. Scales only with real cores;
 *    on a 1-CPU host it stays flat by construction.
 *  - "contended": all threads increment the same counter word,
 *    CPU-bound with maximal conflicts; the interesting output is the
 *    retry rate, not the speedup.
 *
 * With --out FILE the curve is written as JSON (curated copy:
 * BENCH_stm_scaling.json in the repo root). The run fails (exit 1)
 * unless the latency kernel reaches --min-speedup (default 2.0) at 4
 * threads, every run's commit count is exact, and every contended
 * run's final counter equals its total op count (the STM lost no
 * increments).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "sim/logging.hh"
#include "sim/parse.hh"
#include "stm/stm_runtime.hh"
#include "stm/stm_thread.hh"

using namespace tmsim;

namespace {

const int threadCounts[] = {1, 2, 4};
constexpr std::size_t numCounts = std::size(threadCounts);

/** Runs per row; the row reports the median one. */
constexpr int repetitions = 5;

struct RunResult
{
    double seconds = 0;
    std::uint64_t commits = 0;
    std::uint64_t retries = 0;
    Word finalSum = 0; ///< contended-counter total (exactness check)
};

using KernelFn = RunResult (*)(int threads, int ops_per_thread,
                               int think_us);

/** Per-thread counters sit this far apart (64 words), so no two share
 *  a host cache line and their orecs, which are indexed by word, do
 *  not sit side by side either. */
constexpr Addr counterStride = 64 * wordBytes;

/** Spawn @p threads host threads, run @p body(tid) in each, and time
 *  the span from release to last join. */
template <typename Body>
double
timeThreads(int threads, const Body& body)
{
    std::vector<std::thread> hosts;
    hosts.reserve(static_cast<size_t>(threads));
    const auto t0 = std::chrono::steady_clock::now();
    for (int tid = 0; tid < threads; ++tid)
        hosts.emplace_back([&, tid] { body(tid); });
    for (auto& h : hosts)
        h.join();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

RunResult
collect(StmRuntime& rt, int threads, double seconds)
{
    RunResult r;
    r.seconds = seconds;
    for (int tid = 0; tid < threads; ++tid) {
        r.commits += rt.statsFor(tid).commits;
        r.retries += rt.statsFor(tid).retries;
    }
    return r;
}

/** Think-time-bound: sleep outside the tx, then one small tx on a
 *  per-thread counter. Threads overlap their sleeps, so this scales
 *  on any host. */
RunResult
kernelLatency(int threads, int ops_per_thread, int think_us)
{
    StmRuntime rt;
    const Addr base = rt.allocate(64 * counterStride);
    rt.armWatchdog();
    const double s = timeThreads(threads, [&](int tid) {
        StmThread t(rt, tid);
        const Addr mine = base + static_cast<Addr>(tid) * counterStride;
        for (int i = 0; i < ops_per_thread; ++i) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(think_us));
            (void)t.atomic([&](StmThread& th) {
                th.txStore(mine, th.txLoad(mine) + 1);
            });
        }
    });
    return collect(rt, threads, s);
}

/** CPU-bound, conflict-free: per-thread counters, no think time. */
RunResult
kernelDisjoint(int threads, int ops_per_thread, int /*think_us*/)
{
    StmRuntime rt;
    const Addr base = rt.allocate(64 * counterStride);
    rt.armWatchdog();
    const double s = timeThreads(threads, [&](int tid) {
        StmThread t(rt, tid);
        const Addr mine = base + static_cast<Addr>(tid) * counterStride;
        for (int i = 0; i < ops_per_thread; ++i) {
            (void)t.atomic([&](StmThread& th) {
                th.txStore(mine, th.txLoad(mine) + 1);
            });
        }
    });
    return collect(rt, threads, s);
}

/** CPU-bound, maximally conflicting: one shared counter word. The
 *  exactness check (final value == total ops) is the point. */
RunResult
kernelContended(int threads, int ops_per_thread, int /*think_us*/)
{
    StmRuntime rt;
    const Addr ctr = rt.allocate(wordBytes);
    rt.armWatchdog();
    const double s = timeThreads(threads, [&](int tid) {
        StmThread t(rt, tid);
        for (int i = 0; i < ops_per_thread; ++i) {
            (void)t.atomic([&](StmThread& th) {
                th.txStore(ctr, th.txLoad(ctr) + 1);
            });
        }
    });
    RunResult r = collect(rt, threads, s);
    r.finalSum = rt.read(ctr);
    return r;
}

struct KernelInfo
{
    const char* name;
    KernelFn fn;
    bool scalingGate; ///< the >= min-speedup requirement applies
};

const KernelInfo kernels[] = {
    {"latency", kernelLatency, true},
    {"disjoint", kernelDisjoint, false},
    {"contended", kernelContended, false},
};

void
usage()
{
    std::fprintf(stderr, "usage: abl_stm_scaling [--ops N] [--think-us N] "
                         "[--min-speedup X] [--out FILE]\n");
}

} // namespace

int
main(int argc, char** argv)
{
    int opsPerThread = 400;
    int thinkUs = 200;
    double minSpeedup = 2.0;
    std::string outFile;

    walkArgs(argc, argv, usage,
             [&](const std::string& arg, const NextArg& next) {
        if (arg == "--ops")
            opsPerThread = parseInt(next(), "--ops", 1, 1'000'000);
        else if (arg == "--think-us")
            thinkUs = parseInt(next(), "--think-us", 1, 1'000'000);
        else if (arg == "--min-speedup")
            minSpeedup = parseDouble(next(), "--min-speedup", 1, 100);
        else if (arg == "--out")
            outFile = next();
        else
            return false;
        return true;
    });

    const unsigned hostCpus = std::thread::hardware_concurrency();
    std::printf("abl_stm_scaling: host_cpus=%u ops/thread=%d "
                "think=%dus\n\n",
                hostCpus, opsPerThread, thinkUs);
    std::printf("  %-10s %-8s %12s %10s %10s %9s\n", "kernel",
                "threads", "commits", "retries", "ops/sec", "speedup");

    bool ok = true;
    std::string rows;
    for (const KernelInfo& k : kernels) {
        RunResult runs[numCounts][repetitions];
        for (int rep = 0; rep < repetitions; ++rep) {
            for (std::size_t c = 0; c < numCounts; ++c) {
                const int threads = threadCounts[c];
                const double ops =
                    static_cast<double>(threads) * opsPerThread;
                const RunResult& r = runs[c][rep] =
                    k.fn(threads, opsPerThread, thinkUs);
                // Exactness: every op committed exactly once...
                if (r.commits != static_cast<std::uint64_t>(ops)) {
                    std::fprintf(stderr,
                                 "error: %s/%d: %llu commits for %.0f "
                                 "ops\n",
                                 k.name, threads,
                                 static_cast<unsigned long long>(
                                     r.commits),
                                 ops);
                    ok = false;
                }
                // ...and no contended increment was lost.
                if (k.fn == kernelContended &&
                    r.finalSum != static_cast<Word>(ops)) {
                    std::fprintf(stderr,
                                 "error: contended/%d: final counter "
                                 "%llu != %0.f\n",
                                 threads,
                                 static_cast<unsigned long long>(
                                     r.finalSum),
                                 ops);
                    ok = false;
                }
            }
        }

        double base = 0;
        for (std::size_t c = 0; c < numCounts; ++c) {
            const int threads = threadCounts[c];
            const double ops =
                static_cast<double>(threads) * opsPerThread;
            std::sort(std::begin(runs[c]), std::end(runs[c]),
                      [](const RunResult& a, const RunResult& b) {
                          return a.seconds < b.seconds;
                      });
            const RunResult& r = runs[c][repetitions / 2];
            const double rate = ops / r.seconds;
            if (threads == 1)
                base = rate;
            const double speedup = rate / base;
            if (k.scalingGate && threads == 4 &&
                speedup < minSpeedup) {
                std::fprintf(stderr,
                             "error: %s: 4-thread speedup %.2fx < "
                             "required %.2fx\n",
                             k.name, speedup, minSpeedup);
                ok = false;
            }

            std::printf("  %-10s %-8d %12llu %10llu %10.0f %8.2fx\n",
                        k.name, threads,
                        static_cast<unsigned long long>(r.commits),
                        static_cast<unsigned long long>(r.retries),
                        rate, speedup);

            char buf[256];
            std::snprintf(
                buf, sizeof buf,
                "    {\"kernel\": \"%s\", \"threads\": %d, "
                "\"seconds\": %.4f, \"commits\": %llu, "
                "\"retries\": %llu, \"ops_per_sec\": %.1f, "
                "\"speedup_vs_1\": %.3f}",
                k.name, threads, r.seconds,
                static_cast<unsigned long long>(r.commits),
                static_cast<unsigned long long>(r.retries), rate,
                speedup);
            if (!rows.empty())
                rows += ",\n";
            rows += buf;
        }
        std::printf("\n");
    }

    if (!outFile.empty()) {
        std::ofstream os(outFile);
        if (!os)
            fatal("cannot open '%s'", outFile.c_str());
        os << "{\n  \"bench\": \"abl_stm_scaling\",\n"
           << "  \"host_cpus\": " << hostCpus << ",\n"
           << "  \"ops_per_thread\": " << opsPerThread << ",\n"
           << "  \"think_us\": " << thinkUs << ",\n"
           << "  \"rows\": [\n"
           << rows << "\n  ],\n"
           << "  \"verified\": " << (ok ? "true" : "false") << "\n}\n";
    }

    std::printf("%s\n", ok ? "VERIFIED" : "FAILED");
    return ok ? 0 : 1;
}

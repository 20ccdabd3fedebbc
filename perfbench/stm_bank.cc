/**
 * @file
 * stm_bank: the native STM on 2 host threads over 1M 64-byte account
 * records with Zipf 0.99 account choice. 90% of operations transfer
 * between two accounts (2 reads, 2 writes); 10% are read-only audits
 * of 64 accounts, so long readers share orecs with writers and a
 * writer-side gain that costs readers shows in latency_p99_us. The
 * records are line-sized, so their balance words map onto 1/8 of the
 * orec table. An episode builds and fills the heap in set-up, runs a
 * fixed number of operations on each thread, and checks the result; a
 * request is one StmThread::atomic() call, retries included. It never
 * enters the simulator.
 */

#include <atomic>
#include <memory>
#include <thread>

#include "bench.hh"
#include "sim/stats.hh"
#include "stm/stm_runtime.hh"
#include "stm/stm_thread.hh"
#include "workloads/zipf.hh"

namespace tmbench {

using namespace tmsim;

namespace {

/** Operations per thread per episode: 1-1.5 s of requests on a 4-core
 *  x86 host (see README.md). */
constexpr std::uint64_t stmEpisodeOpsPerThread = 1'000'000;

/** The STM watchdog: an operation still spinning this long after its
 *  episode started is a hang. */
constexpr std::chrono::milliseconds stmHangTimeout{60'000};

// Workload parameters (see the file comment).
constexpr int numThreads = 2;
constexpr std::uint32_t numAccounts = 1u << 14;
constexpr int auditPct = 10;
constexpr int auditSize = 64;
constexpr double accountZipfS = 0.99;

constexpr Word initialBalance = 1000;
constexpr Addr recordBytes = 64;

/** Pre-generated inputs per thread, replayed cyclically. */
constexpr std::size_t drawRing = std::size_t{1} << 18;
constexpr std::size_t kindRing = std::size_t{1} << 16;

/** Traced runs record the spans of every this-many-th operation. */
constexpr std::uint64_t spanEvery = 1024;

enum Kind : std::uint8_t
{
    Transfer = 0,
    Audit = 1,
};

struct Bank
{
    std::unique_ptr<StmRuntime> rt;
    Addr base = 0;
};

/** One thread's inputs, drawn before timing starts. */
struct Inputs
{
    std::vector<std::uint32_t> draws; ///< Zipf account ranks
    std::vector<std::uint8_t> kinds;
};

/** What one operation's transaction body reads; the body captures
 *  only a pointer to it, so building the std::function never
 *  allocates. */
struct OpState
{
    const std::uint32_t* draws = nullptr;
    std::size_t pos = 0;
    Addr base = 0;
    Word amount = 0;
    Word auditSum = 0;
};

/** One thread's results for one episode. */
struct ThreadOut
{
    LatencyHist lat[2] = {makeHist(), makeHist()};
    std::uint64_t ops[2] = {0, 0};
    std::uint64_t committed = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::string error;
};

Addr
accountAddr(Addr base, std::uint32_t rank)
{
    return base + static_cast<Addr>(rank) * recordBytes;
}

void
runThread(StmRuntime& rt, int tid, const Inputs& in, std::uint64_t ops,
          Addr base, const std::atomic<bool>& go, ThreadOut& out,
          SpanLog* lg, std::uint64_t first_req)
{
    StmThread th(rt, tid);
    OpState cur;
    cur.draws = in.draws.data();
    cur.base = base;
    OpState* c = &cur;
    const std::size_t mask = drawRing - 1;
    const StmTxBody transfer = [c, mask](StmThread& t) {
        const Addr a = accountAddr(c->base, c->draws[c->pos & mask]);
        Addr b = accountAddr(c->base, c->draws[(c->pos + 1) & mask]);
        if (b == a) // a self-transfer would create money
            b = a == c->base ? a + recordBytes : c->base;
        const Word va = t.txLoad(a);
        const Word vb = t.txLoad(b);
        t.txStore(a, va - c->amount);
        t.txStore(b, vb + c->amount);
    };
    const StmTxBody audit = [c, mask](StmThread& t) {
        Word sum = 0;
        for (int k = 0; k < auditSize; ++k) {
            sum += t.txLoad(accountAddr(
                c->base, c->draws[(c->pos + static_cast<std::size_t>(k)) &
                                  mask]));
        }
        c->auditSum = sum;
    };
    while (!go.load(std::memory_order_acquire)) {
    }
    try {
        std::int64_t prev = nowNs();
        out.startNs = prev;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const int kind = in.kinds[i & (kindRing - 1)];
            cur.amount = 1 + (i & 15);
            const auto req = static_cast<std::int64_t>(first_req + i);
            const bool sampled = lg && i % spanEvery == 0;
            const int root = sampled ? lg->open("request", -1, req) : -1;
            StmTxOutcome res;
            {
                Scoped s(sampled ? lg : nullptr, "stm.atomic", root, req);
                res = th.atomic(kind == Audit ? audit : transfer);
            }
            if (sampled)
                lg->close(root);
            cur.pos += kind == Audit ? auditSize : 2;
            const std::int64_t now = nowNs();
            out.lat[kind].sample(static_cast<std::uint64_t>(now - prev));
            prev = now;
            ++out.ops[kind];
            if (res.committed())
                ++out.committed;
        }
        out.endNs = prev;
    } catch (const StmHangError& e) {
        out.error = e.what;
    } catch (const std::exception& e) {
        out.error = e.what();
    }
}

Bank
buildBank()
{
    StmConfig cfg;
    cfg.memWords = std::size_t{numAccounts} * (recordBytes / wordBytes);
    cfg.opTimeout = stmHangTimeout;
    Bank b;
    b.rt = std::make_unique<StmRuntime>(cfg);
    b.base = b.rt->allocate(Addr{numAccounts} * recordBytes, recordBytes);
    for (std::uint32_t a = 0; a < numAccounts; ++a)
        b.rt->write(accountAddr(b.base, a), initialBalance);
    return b;
}

} // namespace

WorkloadResult
runStmBank(const RunOptions& opt)
{
    WorkloadResult r;

    // Inputs: Zipf ranks drawn once, before timing (each draw costs a
    // pow(), a real share of a sub-microsecond transaction).
    const ZipfGen zipf(numAccounts, accountZipfS);
    std::vector<Inputs> inputs(numThreads);
    for (int t = 0; t < numThreads; ++t) {
        Inputs& in = inputs[static_cast<std::size_t>(t)];
        const std::uint64_t salt =
            hashMix64(opt.seed * 0x100000001b3ull + static_cast<unsigned>(t));
        in.draws.resize(drawRing);
        for (std::size_t j = 0; j < drawRing; ++j) {
            in.draws[j] = static_cast<std::uint32_t>(
                zipf.draw(hashToUnit(hashMix64(salt ^ (j * 0x9e37ull)))));
        }
        in.kinds.resize(kindRing);
        for (std::size_t j = 0; j < kindRing; ++j) {
            in.kinds[j] = hashMix64(~salt + j) % 100 < auditPct ? Audit
                                                                 : Transfer;
        }
    }

    // Traced runs keep every episode's spans: the set-up log on this
    // thread, and one log per worker thread.
    std::vector<std::unique_ptr<SpanLog>> logs;
    if (opt.trace) {
        for (int t = 0; t <= numThreads; ++t)
            logs.push_back(std::make_unique<SpanLog>());
    }
    SpanLog* setupLog = opt.trace ? logs[0].get() : nullptr;

    Episodes eps;
    LatencyHist perKind[2] = {makeHist(), makeHist()};
    StmThreadStats st;
    std::vector<double> mergeUs;
    Bank bank;
    do {
        bank = Bank{}; // at most one heap is resident at a time
        const std::int64_t t0 = nowNs();
        {
            Scoped s(setupLog, "stm.runtime_build", -1, -1);
            bank = buildBank();
        }
        const double setupS = static_cast<double>(nowNs() - t0) / 1e9;

        std::vector<ThreadOut> outs(numThreads);
        StmRuntime& rt = *bank.rt;
        rt.armWatchdog();
        std::atomic<bool> go{false};
        {
            std::vector<std::thread> pool;
            for (int t = 0; t < numThreads; ++t) {
                const auto i = static_cast<std::size_t>(t);
                pool.emplace_back(runThread, std::ref(rt), t,
                                  std::cref(inputs[i]), stmEpisodeOpsPerThread,
                                  bank.base, std::cref(go),
                                  std::ref(outs[i]),
                                  opt.trace ? logs[i + 1].get() : nullptr,
                                  eps.count() * stmEpisodeOpsPerThread);
            }
            go.store(true, std::memory_order_release);
            for (std::thread& th : pool)
                th.join();
        }

        // Correctness: every op committed exactly once, no hang
        // escaped, and money is conserved.
        LatencyHist lat = makeHist();
        std::uint64_t ops = 0, audits = 0, committed = 0;
        std::int64_t start = 0, end = 0;
        StmThreadStats est;
        bool ok = true;
        for (int t = 0; t < numThreads; ++t) {
            const ThreadOut& o = outs[static_cast<std::size_t>(t)];
            if (!o.error.empty()) {
                ok = false;
                r.notes.push_back("stm_bank thread " + std::to_string(t) +
                                  ": " + o.error);
            }
            for (int k = 0; k < 2; ++k) {
                lat.mergeFrom(o.lat[k]);
                perKind[k].mergeFrom(o.lat[k]);
            }
            ops += o.ops[0] + o.ops[1];
            audits += o.ops[Audit];
            committed += o.committed;
            start = t == 0 ? o.startNs : std::min(start, o.startNs);
            end = std::max(end, o.endNs);
            const StmThreadStats& ts = rt.statsFor(t);
            est.starts += ts.starts;
            est.commits += ts.commits;
            est.roCommits += ts.roCommits;
            est.retries += ts.retries;
            est.lockFailures += ts.lockFailures;
            est.snapshotExtensions += ts.snapshotExtensions;
        }
        Word total = 0;
        for (std::uint32_t a = 0; a < numAccounts; ++a)
            total += rt.read(accountAddr(bank.base, a));
        const Word expected = Word{numAccounts} * initialBalance;
        if (total != expected) {
            ok = false;
            r.notes.push_back("stm_bank: total balance " +
                              std::to_string(total) +
                              " != " + std::to_string(expected));
        }
        if (ops != numThreads * stmEpisodeOpsPerThread || committed != ops ||
            est.commits != ops || est.roCommits != audits) {
            ok = false;
            r.notes.push_back(
                "stm_bank: " + std::to_string(ops) + " ops, " +
                std::to_string(committed) + " committed atomic() calls, " +
                std::to_string(est.commits) + " STM commits (" +
                std::to_string(est.roCommits) + " read-only for " +
                std::to_string(audits) + " audits)");
        }
        r.attempted += ops;
        if (!ok) {
            r.correct = false;
            r.failed += ops;
        }
        st.starts += est.starts;
        st.commits += est.commits;
        st.roCommits += est.roCommits;
        st.retries += est.retries;
        st.lockFailures += est.lockFailures;
        st.snapshotExtensions += est.snapshotExtensions;
        if (opt.trace) {
            Scoped s(setupLog, "stm.merge_stats", -1, -1);
            StatsRegistry reg;
            const std::int64_t m0 = nowNs();
            rt.mergeStats(reg);
            mergeUs.push_back(static_cast<double>(nowNs() - m0) / 1e3);
        }
        eps.add(setupS, static_cast<double>(committed),
                static_cast<double>(end - start) / 1e9, lat);
    } while (eps.more(opt) && r.correct);
    addEndToEnd(r, eps);

    if (!opt.trace)
        return r;

    // Times are medians over the episodes (set-up, merge) or over every
    // request (per-kind latency); counts are means per episode.
    const auto E = static_cast<std::uint64_t>(eps.count());
    const double perEpisode = 1.0 / static_cast<double>(E);
    setLayer(r, "stm.runtime_build_us", median(eps.setupS) * 1e6, E);
    setLayer(r, "stm.transfer_p50_us", quantileUs(perKind[Transfer], 0.50),
             perKind[Transfer].count());
    setLayer(r, "stm.transfer_p99_us", quantileUs(perKind[Transfer], 0.99),
             perKind[Transfer].count());
    setLayer(r, "stm.audit_p50_us", quantileUs(perKind[Audit], 0.50),
             perKind[Audit].count());
    setLayer(r, "stm.audit_p99_us", quantileUs(perKind[Audit], 0.99),
             perKind[Audit].count());
    setLayer(r, "stm.retries", static_cast<double>(st.retries) * perEpisode);
    setLayer(r, "stm.lock_failures",
             static_cast<double>(st.lockFailures) * perEpisode);
    setLayer(r, "stm.snapshot_extensions",
             static_cast<double>(st.snapshotExtensions) * perEpisode);
    setLayer(r, "stm.commit_ratio",
             st.starts ? static_cast<double>(st.commits) /
                             static_cast<double>(st.starts)
                       : 0.0,
             st.starts);
    setLayer(r, "stm.merge_stats_us", median(mergeUs), E);
    completeLayers(r);
    std::vector<const SpanLog*> spanLogs;
    for (const auto& lg : logs)
        spanLogs.push_back(lg.get());
    summarizeLayers(r, spanLogs);
    if (!opt.spanFile.empty() && !writeSpans(opt.spanFile, spanLogs))
        r.notes.push_back("cannot write spans to " + opt.spanFile);
    return r;
}

} // namespace tmbench

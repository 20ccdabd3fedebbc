/**
 * @file
 * Golden determinism fingerprints.
 *
 * Each case runs a bundled kernel under a fixed configuration and
 * fingerprints everything the simulator's hot paths could perturb:
 * the number of events executed, the final tick, the chip-global
 * commit (serialisation) order, and a hash of the full stats dump.
 * Any hot-path rewrite must reproduce them bit-for-bit.
 *
 * A committer broadcasts its write set in first-insert order, which
 * no standard-library detail affects, so the exact constants are
 * asserted on every toolchain.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "runtime/tx_thread.hh"
#include "workloads/harness.hh"

using namespace tmsim;

namespace {

struct Fingerprint
{
    std::uint64_t events = 0;
    std::uint64_t ticks = 0;
    std::uint64_t commitOrder = 0;
    std::uint64_t statsText = 0;
    /** Serialized units behind the commitOrder hash (not part of the
     *  golden constants; compared run to run). */
    std::uint64_t commitCount = 0;

    bool
    operator==(const Fingerprint& o) const
    {
        return events == o.events && ticks == o.ticks &&
               commitOrder == o.commitOrder &&
               statsText == o.statsText &&
               commitCount == o.commitCount;
    }
};

std::uint64_t
fnv1a(std::uint64_t h, const void* data, size_t n)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t fnvInit = 0xcbf29ce484222325ull;

/** Mirror of runKernel() with commit-order hooks and queue access. */
Fingerprint
runFingerprint(const std::string& kernel_name, const HtmConfig& htm,
               int n_threads, std::uint64_t fuzz_seed = 1)
{
    KernelParams kp;
    kp.fuzzSeed = fuzz_seed;
    auto kernel = makeNamedKernel(kernel_name, kp);
    if (!kernel)
        ADD_FAILURE() << "unknown kernel " << kernel_name;

    MachineConfig cfg;
    cfg.numCpus = n_threads;
    cfg.htm = htm;
    Machine m(cfg);
    m.logContext().quiet = true;

    std::uint64_t order = fnvInit;
    std::uint64_t count = 0;
    m.setCommitOrderHooks(
        [&order, &count](CpuId cpu, bool open) {
            const std::uint64_t rec =
                (static_cast<std::uint64_t>(cpu) << 1) | (open ? 1 : 0);
            order = fnv1a(order, &rec, sizeof(rec));
            ++count;
        },
        [&order](CpuId cpu) {
            const std::uint64_t rec =
                (static_cast<std::uint64_t>(cpu) << 1) | (1ull << 63);
            order = fnv1a(order, &rec, sizeof(rec));
        });

    kernel->init(m, n_threads);

    std::vector<std::unique_ptr<TxThread>> threads;
    threads.reserve(static_cast<size_t>(n_threads));
    for (int i = 0; i < n_threads; ++i)
        threads.push_back(std::make_unique<TxThread>(m.cpu(i)));
    for (int i = 0; i < n_threads; ++i) {
        TxThread* t = threads[static_cast<size_t>(i)].get();
        m.spawn(i, [k = kernel.get(), t, i, n_threads](Cpu&) -> SimTask {
            co_await k->thread(*t, i, n_threads);
        });
    }

    Fingerprint fp;
    fp.ticks = m.run();
    fp.events = m.eventQueue().executed();
    fp.commitOrder = order;
    fp.commitCount = count;

    std::ostringstream os;
    m.stats().dump(os);
    const std::string text = os.str();
    fp.statsText = fnv1a(fnvInit, text.data(), text.size());

    EXPECT_TRUE(kernel->verify(m, n_threads)) << kernel_name;
    return fp;
}

struct GoldenCase
{
    const char* kernel;
    const char* config; // "lazy" or "eager"
    int threads;
    Fingerprint expect;
};

/** The first six were captured on the seed implementation
 *  (std::priority_queue event loop, std::unordered_set read/write
 *  sets). Their statsText hashes were re-captured for stats schema v3
 *  (log-linear distributions, ::pXX quantile keys, per-op-class
 *  histograms) and again when the capacity-model counters
 *  (capacity_aborts/restarts/spills, overflow_checks) joined the
 *  registry; their events/ticks/commitOrder fingerprints are untouched
 *  from the seed capture, which is what proves the observability
 *  layer — and an unbounded capacity config — costs zero simulated
 *  time. None of the six notices the write-set broadcast order; the
 *  seventh does, and was captured once broadcast order became
 *  first-insert order.
 *
 *  The three eager cases' statsText was re-captured once more when
 *  HtmContext lost its per-context Bloom signatures: those used to
 *  count their own fast negatives into htm.sig_filtered and
 *  htm.sig_false_positives, which now count the detector's chip-wide
 *  filter only. Only those two counters moved; events, ticks and
 *  commitOrder of all seven cases, and the four lazy statsText
 *  hashes, are unchanged.
 *
 *  All seven statsText hashes were re-captured once more when the
 *  detector's chip-wide Bloom signatures went: htm.sig_filtered and
 *  htm.sig_false_positives left the dump, and htm.index_hits now also
 *  counts the lookups those filters used to stop before the index
 *  probe. No query answer changed, so events, ticks and commitOrder
 *  of all seven cases are untouched. */
const GoldenCase goldenCases[] = {
    {"mp3d", "lazy", 4,
     {6045ull, 28356ull, 0x4db1ad9b2e846b25ull, 0xa7adfb056802a217ull}},
    {"mp3d", "eager", 4,
     {5434ull, 22312ull, 0xb0cf2742cb1e16a5ull, 0xcb50173737785a7aull}},
    {"contend", "lazy", 4,
     {3975ull, 14109ull, 0x7adea40108c5eb25ull, 0x58683d71ef6f4b1full}},
    {"contend", "eager", 4,
     {3397ull, 17497ull, 0x83d3dd7740a52f25ull, 0xbc8c6be9be5d72b3ull}},
    {"specjbb-closed", "lazy", 4,
     {26664ull, 137093ull, 0x9a066da7e416e5e1ull, 0x851ed4372807e48bull}},
    {"barnes", "eager", 2,
     {13364ull, 89081ull, 0xbd42f82741d22ee5ull, 0x5abc605dbd71ad5bull}},
    {"specjbb-closed", "lazy", 8,
     {34559ull, 89573ull, 0xeb90e6edf8292b27ull, 0xed1303d9b7bd84a0ull}},
};

HtmConfig
configByName(const std::string& name)
{
    return name == "eager" ? HtmConfig::eagerUndoLog()
                           : HtmConfig::paperLazy();
}

} // namespace

TEST(DeterminismGolden, KernelFingerprintsMatchSeed)
{
    const bool print = std::getenv("TMSIM_GOLDEN_PRINT") != nullptr;
    for (const auto& c : goldenCases) {
        SCOPED_TRACE(std::string(c.kernel) + "/" + c.config + "/" +
                     std::to_string(c.threads));
        Fingerprint fp =
            runFingerprint(c.kernel, configByName(c.config), c.threads);
        if (print) {
            printf("    {\"%s\", \"%s\", %d,\n"
                   "     {%lluull, %lluull, 0x%llxull, 0x%llxull}},\n",
                   c.kernel, c.config, c.threads,
                   static_cast<unsigned long long>(fp.events),
                   static_cast<unsigned long long>(fp.ticks),
                   static_cast<unsigned long long>(fp.commitOrder),
                   static_cast<unsigned long long>(fp.statsText));
            continue;
        }
        EXPECT_EQ(fp.events, c.expect.events);
        EXPECT_EQ(fp.ticks, c.expect.ticks);
        EXPECT_EQ(fp.commitOrder, c.expect.commitOrder);
        EXPECT_EQ(fp.statsText, c.expect.statsText);
        // The same run twice must produce the same fingerprint.
        Fingerprint again =
            runFingerprint(c.kernel, configByName(c.config), c.threads);
        EXPECT_TRUE(fp == again);
    }
}

TEST(DeterminismGolden, FuzzKernelIsReproducible)
{
    Fingerprint a = runFingerprint("fuzz", HtmConfig::paperLazy(), 4, 42);
    Fingerprint b = runFingerprint("fuzz", HtmConfig::paperLazy(), 4, 42);
    EXPECT_TRUE(a == b);
}

/**
 * @file
 * Seeded fuzz-program generator. Every structural choice draws from a
 * single xoshiro stream seeded by the program seed, so generation is
 * bit-reproducible across hosts and sessions.
 *
 * Generation rules keep programs inside the envelope the oracle can
 * check exactly (see fuzz_program.hh region semantics):
 *  - open transactions are leaves and only touch the Open region;
 *  - voluntary aborts only appear at nesting depth 1 (a deeper abort
 *    would kill the whole outer transaction under flattening but only
 *    the inner one under full nesting — mode-variant by design);
 *  - release only targets a slot the same transaction read earlier;
 *  - Private-region ops always use the generating thread's own slot;
 *  - nesting depth is capped at 3 (< maxHwLevels, so full-nesting
 *    configs never silently subsume).
 */

#include "check/fuzz_program.hh"

#include <set>
#include <utility>

#include "sim/rng.hh"

namespace tmsim {

namespace {

constexpr int maxDepth = 3;

/** Slots sharing a 32-byte line (8-byte words). */
constexpr int slotsPerLine = 4;

struct Gen
{
    Rng rng;
    FuzzProgram p;
    int nThreads = 0;

    /**
     * Line groups (region, slot/slotsPerLine) holding a TxAdd anywhere
     * in the top-level transaction being generated. Release must avoid
     * them: under flattening a release drops the whole merged read-set
     * entry, so releasing an added line would un-protect the add's
     * read-modify-write and allow a genuine lost update — a real
     * mode-variant outcome, not a bug, which would drown the oracle.
     */
    std::set<std::pair<int, int>> addedGroups;

    static std::pair<int, int>
    groupOf(const FuzzOp& op)
    {
        return {static_cast<int>(op.region), op.slot / slotsPerLine};
    }

    explicit Gen(std::uint64_t seed)
        : rng(seed * 0x9E3779B97F4A7C15ull + 0xC0FFEEull)
    {
    }

    int
    slot()
    {
        return static_cast<int>(rng.below(p.slotsPerRegion));
    }

    FuzzOp
    txDataOp(int tid)
    {
        FuzzOp op;
        const std::uint64_t pick = rng.below(100);
        if (pick < 35) {
            op.kind = FuzzOpKind::TxAdd;
            op.region = Region::Shared;
        } else if (pick < 50) {
            op.kind = FuzzOpKind::TxRead;
            op.region = Region::Shared;
        } else if (pick < 65) {
            op.kind = FuzzOpKind::TxAdd;
            op.region = Region::Naked;
        } else if (pick < 75) {
            op.kind = FuzzOpKind::TxRead;
            op.region = Region::Naked;
        } else if (pick < 90) {
            op.kind = FuzzOpKind::TxAdd;
            op.region = Region::Private;
        } else {
            op.kind = FuzzOpKind::TxRead;
            op.region = Region::Private;
        }
        op.slot = op.region == Region::Private ? tid : slot();
        op.value = 1 + rng.below(9);
        return op;
    }

    /** Generate one transaction; returns its index in p.txs. */
    int
    genTx(int tid, int depth, bool open)
    {
        const int idx = static_cast<int>(p.txs.size());
        p.txs.push_back(FuzzTx{});
        p.txs[static_cast<size_t>(idx)].open = open;

        const int nOps = 1 + static_cast<int>(rng.below(6));
        // Slots this transaction has TxRead so far (release candidates).
        std::vector<FuzzOp> reads;
        bool aborted = false;
        for (int i = 0; i < nOps && !aborted; ++i) {
            FuzzOp op;
            if (open) {
                // Open-nested bodies only touch the Open region (plus
                // side-effect-free fillers); they are leaves.
                const std::uint64_t pick = rng.below(100);
                if (pick < 45) {
                    op.kind = FuzzOpKind::TxAdd;
                    op.region = Region::Open;
                    op.slot = slot();
                    op.value = 1 + rng.below(9);
                } else if (pick < 70) {
                    op.kind = FuzzOpKind::TxRead;
                    op.region = Region::Open;
                    op.slot = slot();
                } else if (pick < 80) {
                    op.kind = FuzzOpKind::ImmRead;
                    op.region = Region::Scratch;
                    op.slot = slot();
                } else if (pick < 90) {
                    op.kind = FuzzOpKind::HandlerCommit;
                    op.region = Region::Scratch;
                    op.slot = slot();
                } else {
                    op.kind = FuzzOpKind::Exec;
                    op.value = 1 + rng.below(15);
                }
            } else {
                const std::uint64_t pick = rng.below(100);
                // Reads whose line group carries no TxAdd (see
                // addedGroups): the only safe release targets.
                std::vector<FuzzOp> releasable;
                for (const FuzzOp& r : reads) {
                    if (!addedGroups.count(groupOf(r)))
                        releasable.push_back(r);
                }
                if (pick < 55) {
                    op = txDataOp(tid);
                } else if (pick < 60 && !releasable.empty()) {
                    const FuzzOp& r =
                        releasable[rng.below(releasable.size())];
                    op.kind = FuzzOpKind::Release;
                    op.region = r.region;
                    op.slot = r.slot;
                } else if (pick < 65) {
                    op.kind = FuzzOpKind::ImmRead;
                    op.region = static_cast<Region>(rng.below(numRegions));
                    op.slot = op.region == Region::Private
                                  ? tid
                                  : slot();
                } else if (pick < 70) {
                    op.kind = rng.chancePermille(500)
                                  ? FuzzOpKind::ImmStore
                                  : FuzzOpKind::ImmStoreIdem;
                    op.region = Region::Scratch;
                    op.slot = slot();
                    op.value = rng.below(1000);
                } else if (pick < 78) {
                    op.kind = FuzzOpKind::Exec;
                    op.value = 1 + rng.below(20);
                } else if (pick < 84) {
                    const std::uint64_t h = rng.below(3);
                    op.kind = h == 0   ? FuzzOpKind::HandlerCommit
                              : h == 1 ? FuzzOpKind::HandlerViolation
                                       : FuzzOpKind::HandlerAbort;
                    op.region = Region::Scratch;
                    op.slot = slot();
                } else if (pick < 94 && depth < maxDepth) {
                    op.kind = FuzzOpKind::Nest;
                    const bool childOpen = rng.chancePermille(300);
                    op.child = genTx(tid, depth + 1, childOpen);
                } else if (depth == 1 && rng.chancePermille(60)) {
                    // Rare voluntary abort, always the final op.
                    op.kind = FuzzOpKind::Abort;
                    op.value = 1;
                    aborted = true;
                } else {
                    op = txDataOp(tid);
                }
            }
            if (op.kind == FuzzOpKind::TxRead)
                reads.push_back(op);
            if (op.kind == FuzzOpKind::TxAdd)
                addedGroups.insert(groupOf(op));
            p.txs[static_cast<size_t>(idx)].ops.push_back(op);
        }
        return idx;
    }
};

} // namespace

FuzzProgram
generateProgram(std::uint64_t seed)
{
    Gen g(seed);
    g.p.seed = seed;
    g.nThreads = 2 + static_cast<int>(g.rng.below(3)); // 2..4
    g.p.slotsPerRegion =
        std::max(g.nThreads, 3 + static_cast<int>(g.rng.below(4)));
    g.p.wordGranularity = g.rng.chancePermille(500);
    // Age-ordered arbitration on 30% of seeds. This draw predates the
    // policy draw below and stays separate so every seed keeps its
    // program; it turns a Requester draw into Timestamp.
    const bool ageOrdered = g.rng.chancePermille(300);
    // Uniform draw over every contention policy: policies reschedule
    // conflicts, never change serializability, so each seed is valid
    // under all of them.
    static const ContentionPolicy policies[] = {
        ContentionPolicy::Requester, ContentionPolicy::Timestamp,
        ContentionPolicy::Karma,     ContentionPolicy::Polite,
        ContentionPolicy::Hybrid,
    };
    g.p.contention = policies[g.rng.below(5)];
    if (ageOrdered && g.p.contention == ContentionPolicy::Requester)
        g.p.contention = ContentionPolicy::Timestamp;

    g.p.threads.resize(static_cast<size_t>(g.nThreads));
    for (int t = 0; t < g.nThreads; ++t) {
        const int nOps = 2 + static_cast<int>(g.rng.below(5)); // 2..6
        for (int i = 0; i < nOps; ++i) {
            ThreadOp op;
            const std::uint64_t pick = g.rng.below(100);
            if (pick < 60) {
                op.kind = ThreadOpKind::RunTx;
                const bool topOpen = g.rng.chancePermille(150);
                g.addedGroups.clear(); // scope: one top-level tx
                op.tx = g.genTx(t, 1, topOpen);
            } else if (pick < 75) {
                op.kind = ThreadOpKind::NakedLoad;
                op.region = g.rng.chancePermille(650) ? Region::Naked
                                                      : Region::Private;
                op.slot = op.region == Region::Private ? t : g.slot();
            } else if (pick < 90) {
                op.kind = ThreadOpKind::NakedStore;
                op.region = g.rng.chancePermille(650) ? Region::Naked
                                                      : Region::Private;
                op.slot = op.region == Region::Private ? t : g.slot();
                op.value = 1 + g.rng.below(500);
            } else {
                op.kind = ThreadOpKind::Work;
                op.value = 1 + g.rng.below(30);
            }
            g.p.threads[static_cast<size_t>(t)].push_back(op);
        }
    }
    return g.p;
}

} // namespace tmsim

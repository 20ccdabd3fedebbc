/**
 * @file
 * Pluggable contention management.
 *
 * The paper deliberately leaves contention policy to software
 * (section 3.2: violation handlers exist so "software can implement
 * arbitrary policies"); the simulator's hardware layer therefore
 * funnels every policy decision through one ContentionManager object
 * instead of hardcoding an arbitration rule and a backoff curve:
 *
 *  - eager arbitration: ConflictDetector::eagerCheck asks who loses an
 *    access-time conflict (requesterLoses) and whether an in-place
 *    (undo-log) holder should be evicted while the requester stalls
 *    (evictInPlaceVictim);
 *  - lazy commit arbitration: Cpu::xvalidate asks, once the commit
 *    token is held, whether the committer should yield its slot to a
 *    starving reader instead of violating it (committerYields, through
 *    ConflictDetector::commitYieldTarget);
 *  - restart scheduling: TxThread::backoff asks for the delay before
 *    re-executing an aborted transaction (backoffDelay).
 *
 * The manager also owns the per-CPU fairness bookkeeping that feeds
 * the policies: the first-begin tick of the current attempt sequence
 * (retained across involuntary restarts so an aborted transaction
 * keeps its seniority; reset on commit or when software abandons the
 * sequence), accumulated karma, and the consecutive-abort streak that
 * drives Hybrid's starvation guard — plus the fairness observability
 * stats (consecutive-abort distributions, escalation counter).
 *
 * Policies only ever choose WHO loses a conflict or WHEN a loser
 * retries; they never suppress a conflict, so serializability is
 * policy-invariant (the differential fuzzer runs every seed under
 * every policy and demands identical verdicts).
 */

#ifndef TMSIM_HTM_CONTENTION_HH
#define TMSIM_HTM_CONTENTION_HH

#include <memory>
#include <vector>

#include "htm/htm_config.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tmsim {

class HtmContext;

class ContentionManager
{
  public:
    ContentionManager(const HtmConfig& cfg, StatsRegistry& stats);
    virtual ~ContentionManager() = default;

    int starvationThreshold() const { return starveK; }

    // --- lifecycle hooks (driven by HtmContext and the runtime) ---

    /** Outermost xbegin. Starts a new attempt sequence unless one is
     *  already active (an involuntary restart), in which case the
     *  original first-begin tick is retained. */
    void onOuterBegin(CpuId cpu, Tick now);

    /** A read/write-set insertion by @p cpu (karma accrual). */
    void onTrackedAccess(CpuId cpu);

    /** Outermost commit: the sequence ends; karma, seniority and the
     *  abort streak reset. */
    void onOuterCommit(CpuId cpu);

    /** Outermost rollback (violation or abort unwinding to level 1).
     *  The sequence stays active; the abort streak grows and may trip
     *  Hybrid's starvation escalation. */
    void onOuterRollback(CpuId cpu);

    /** Software abandoned the sequence (voluntary abort that will not
     *  be retried, or retry budget exhausted): forget everything. */
    void onSequenceAbandoned(CpuId cpu);

    // --- fairness state queries ---

    /** First-begin tick of @p cpu's active attempt sequence, or
     *  @p fallback when no sequence is tracked (raw-ISA users). */
    Tick effectiveAge(CpuId cpu, Tick fallback) const;

    std::uint64_t karma(CpuId cpu) const;
    int consecutiveAborts(CpuId cpu) const;

    /** Hybrid starvation guard tripped and not yet released. */
    bool escalated(CpuId cpu) const;

    /**
     * Strict total seniority order: true iff @p a is senior to @p b —
     * earlier retained first-begin tick, ties broken by lower CPU id.
     * Exactly one of seniorTo(a,b) / seniorTo(b,a) holds for a != b,
     * which is what makes same-tick begins livelock-free.
     */
    bool seniorTo(const HtmContext& a, const HtmContext& b) const;

    // --- policy decisions ---

    /**
     * Eager arbitration with no physical constraint in play (victim
     * not validated, no in-place data): does @p requester lose against
     * active victim @p victim and self-violate?
     */
    virtual bool requesterLoses(const HtmContext& requester,
                                const HtmContext& victim) const;

    /**
     * Undo-log special case: the victim's speculative data sits in
     * memory, so the requester stalls regardless; should the holder
     * additionally be evicted so the requester makes progress after
     * its backoff (LogTM's abort-younger)?
     */
    virtual bool evictInPlaceVictim(const HtmContext& requester,
                                    const HtmContext& victim) const;

    /** Cheap guard so the lazy commit path skips the yield scan
     *  entirely for policies that never yield. */
    virtual bool mayYieldAtCommit() const { return false; }

    /**
     * Lazy commit arbitration: @p committer holds the commit token and
     * is about to violate active reader @p reader. Returning true
     * makes the committer pause instead (Hybrid's must-win
     * escalation): Cpu::xvalidate keeps its speculative state,
     * releases the token, waits 4 cycles and retries, at most 8
     * times. The reader is untouched.
     */
    virtual bool committerYields(const HtmContext& committer,
                                 const HtmContext& reader) const;

    /**
     * Restart scheduling: cycles to wait before re-executing after the
     * @p retries-th consecutive failure (retries >= 1; 0 is tolerated
     * and treated as 1). @p eager distinguishes the access-time-
     * conflict configs from lazy ones, whose conflicts were decided by
     * a committer and need only symmetry-breaking jitter.
     */
    virtual Cycles backoffDelay(CpuId cpu, int retries, bool eager,
                                Rng& rng) const;

    /**
     * The exponential backoff window for the @p retries-th failure:
     * 8 << min(retries-1, 7) cycles, guarded so retries <= 1 maps to
     * the base window instead of an undefined negative shift.
     */
    static Cycles backoffWindow(int retries);

  protected:
    struct Rec
    {
        bool active = false;
        bool escal = false;
        Tick firstBegin = 0;
        std::uint64_t karmaVal = 0;
        int consec = 0;
    };

    const Rec& rec(CpuId cpu) const;
    Rec& recMut(CpuId cpu);

    ContentionPolicy pol;
    int starveK;

    /** Karma-order comparison: higher karma first, seniority on tie. */
    bool karmaSenior(const HtmContext& a, const HtmContext& b) const;

    /** True if any CPU other than @p cpu is currently escalated. */
    bool anyEscalatedBut(CpuId cpu) const;

  private:
    mutable std::vector<Rec> recs;

    /** Empty record returned for CPUs never seen (raw-ISA tests). */
    static const Rec emptyRec;

    /** Streak length sampled at every outermost rollback: max() is the
     *  worst consecutive-abort run any transaction suffered. */
    StatsRegistry::Distribution& distConsecAborts;
    /** Streak length the eventually-committing attempt had to absorb. */
    StatsRegistry::Distribution& distConsecAtCommit;
    StatsRegistry::Counter& statEscalations;
};

/** Build the manager for @p cfg's contention policy. */
std::unique_ptr<ContentionManager>
makeContentionManager(const HtmConfig& cfg, StatsRegistry& stats);

} // namespace tmsim

#endif // TMSIM_HTM_CONTENTION_HH

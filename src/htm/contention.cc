#include "htm/contention.hh"

#include <algorithm>

#include "htm/htm_context.hh"

namespace tmsim {

const ContentionManager::Rec ContentionManager::emptyRec{};

ContentionManager::ContentionManager(const HtmConfig& cfg,
                                     StatsRegistry& stats)
    : pol(cfg.contention),
      starveK(std::max(cfg.starvationThreshold, 1)),
      distConsecAborts(stats.distribution("htm.consec_aborts")),
      distConsecAtCommit(stats.distribution("htm.consec_aborts_at_commit")),
      statEscalations(stats.counter("htm.cm.escalations"))
{
}

const ContentionManager::Rec&
ContentionManager::rec(CpuId cpu) const
{
    if (static_cast<size_t>(cpu) >= recs.size())
        return emptyRec;
    return recs[cpu];
}

ContentionManager::Rec&
ContentionManager::recMut(CpuId cpu)
{
    if (static_cast<size_t>(cpu) >= recs.size())
        recs.resize(cpu + 1);
    return recs[cpu];
}

void
ContentionManager::onOuterBegin(CpuId cpu, Tick now)
{
    Rec& r = recMut(cpu);
    if (!r.active) {
        r.active = true;
        r.firstBegin = now;
    }
    // else: an involuntary restart of the same attempt sequence — the
    // original firstBegin (and karma/consec/escal) is retained, which
    // is what keeps a repeatedly-violated old transaction senior.
}

void
ContentionManager::onTrackedAccess(CpuId cpu)
{
    Rec& r = recMut(cpu);
    if (r.active)
        ++r.karmaVal;
}

void
ContentionManager::onOuterCommit(CpuId cpu)
{
    Rec& r = recMut(cpu);
    distConsecAtCommit.sample(static_cast<std::uint64_t>(r.consec));
    r = Rec{};
}

void
ContentionManager::onOuterRollback(CpuId cpu)
{
    Rec& r = recMut(cpu);
    ++r.consec;
    distConsecAborts.sample(static_cast<std::uint64_t>(r.consec));
    if (pol == ContentionPolicy::Hybrid && !r.escal &&
        r.consec >= starveK) {
        r.escal = true;
        ++statEscalations;
    }
}

void
ContentionManager::onSequenceAbandoned(CpuId cpu)
{
    recMut(cpu) = Rec{};
}

Tick
ContentionManager::effectiveAge(CpuId cpu, Tick fallback) const
{
    const Rec& r = rec(cpu);
    return r.active ? r.firstBegin : fallback;
}

std::uint64_t
ContentionManager::karma(CpuId cpu) const
{
    return rec(cpu).karmaVal;
}

int
ContentionManager::consecutiveAborts(CpuId cpu) const
{
    return rec(cpu).consec;
}

bool
ContentionManager::escalated(CpuId cpu) const
{
    return rec(cpu).escal;
}

bool
ContentionManager::anyEscalatedBut(CpuId cpu) const
{
    for (size_t i = 0; i < recs.size(); ++i) {
        if (static_cast<CpuId>(i) != cpu && recs[i].escal)
            return true;
    }
    return false;
}

bool
ContentionManager::seniorTo(const HtmContext& a, const HtmContext& b) const
{
    const Tick ageA = effectiveAge(a.cpuId(), a.age());
    const Tick ageB = effectiveAge(b.cpuId(), b.age());
    if (ageA != ageB)
        return ageA < ageB;
    return a.cpuId() < b.cpuId();
}

bool
ContentionManager::karmaSenior(const HtmContext& a,
                               const HtmContext& b) const
{
    const std::uint64_t ka = karma(a.cpuId());
    const std::uint64_t kb = karma(b.cpuId());
    if (ka != kb)
        return ka > kb;
    return seniorTo(a, b);
}

Cycles
ContentionManager::backoffWindow(int retries)
{
    const int shift = std::min(std::max(retries, 1) - 1, 7);
    return Cycles{8} << shift;
}

// --- default (Requester) policy ------------------------------------------
//
// Legacy behaviour: access-time conflicts violate the holder, and the
// undo-log in-place writer is evicted only by a senior requester (the
// LogTM abort-younger rule, now with a deterministic tiebreak).

bool
ContentionManager::requesterLoses(const HtmContext&, const HtmContext&) const
{
    return false;
}

bool
ContentionManager::evictInPlaceVictim(const HtmContext& requester,
                                      const HtmContext& victim) const
{
    return seniorTo(requester, victim);
}

bool
ContentionManager::committerYields(const HtmContext&,
                                   const HtmContext&) const
{
    return false;
}

Cycles
ContentionManager::backoffDelay(CpuId, int retries, bool eager,
                                Rng& rng) const
{
    if (!eager) {
        // Lazy conflicts were decided at a serialization point; only
        // symmetry-breaking jitter is needed.
        return rng.below(4);
    }
    const Cycles w = backoffWindow(retries);
    return w + rng.below(w);
}

namespace {

/** Earlier retained first-begin tick wins every arbitration. */
class TimestampManager : public ContentionManager
{
  public:
    using ContentionManager::ContentionManager;

    bool
    requesterLoses(const HtmContext& requester,
                   const HtmContext& victim) const override
    {
        return seniorTo(victim, requester);
    }
};

/** Accumulated tracked accesses (retained across aborts) win; ties
 *  fall back to timestamp order. */
class KarmaManager : public ContentionManager
{
  public:
    using ContentionManager::ContentionManager;

    bool
    requesterLoses(const HtmContext& requester,
                   const HtmContext& victim) const override
    {
        return karmaSenior(victim, requester);
    }

    bool
    evictInPlaceVictim(const HtmContext& requester,
                       const HtmContext& victim) const override
    {
        return karmaSenior(requester, victim);
    }
};

/** The requester always defers to the current holder; progress comes
 *  from the randomized exponential backoff between retries. */
class PoliteManager : public ContentionManager
{
  public:
    using ContentionManager::ContentionManager;

    bool
    requesterLoses(const HtmContext&, const HtmContext&) const override
    {
        return true;
    }

    // evictInPlaceVictim keeps the base seniority rule: the undo-log
    // eviction is a liveness mechanism (it breaks nesting deadlocks),
    // not an arbitration preference, so even Polite retains it.

    Cycles
    backoffDelay(CpuId, int retries, bool, Rng& rng) const override
    {
        // Fully randomized: uniform over (0, 2*window], so same-streak
        // peers decorrelate even at the window cap.
        const Cycles w = backoffWindow(retries);
        return Cycles{1} + rng.below(2 * w);
    }
};

/** Karma plus the starvation guard: a transaction past K consecutive
 *  aborts escalates to must-win seniority until it commits. */
class HybridManager : public ContentionManager
{
  public:
    using ContentionManager::ContentionManager;

    bool
    requesterLoses(const HtmContext& requester,
                   const HtmContext& victim) const override
    {
        const bool er = escalated(requester.cpuId());
        const bool ev = escalated(victim.cpuId());
        if (er != ev)
            return ev;
        return karmaSenior(victim, requester);
    }

    bool
    evictInPlaceVictim(const HtmContext& requester,
                       const HtmContext& victim) const override
    {
        const bool er = escalated(requester.cpuId());
        const bool ev = escalated(victim.cpuId());
        if (er != ev)
            return er;
        return karmaSenior(requester, victim);
    }

    bool mayYieldAtCommit() const override { return true; }

    bool
    committerYields(const HtmContext& committer,
                    const HtmContext& reader) const override
    {
        return escalated(reader.cpuId()) &&
               !escalated(committer.cpuId());
    }

    Cycles
    backoffDelay(CpuId cpu, int retries, bool eager,
                 Rng& rng) const override
    {
        // An escalated transaction wins every arbitration, so make it
        // retry almost immediately instead of sitting out a window it
        // no longer needs.
        if (escalated(cpu))
            return rng.below(4);
        // While a peer is starving under lazy conflict detection,
        // restarting transactions — which have zero investment to
        // lose — stand aside for a while instead of racing straight
        // back onto the hot data. Combined with commit yielding this
        // clears a window wide enough for the escalated transaction
        // to finish. Eager mode needs no such window: the escalated
        // transaction already wins every access-time arbitration.
        if (!eager && anyEscalatedBut(cpu))
            return Cycles{32} + rng.below(32);
        return ContentionManager::backoffDelay(cpu, retries, eager, rng);
    }
};

} // namespace

std::unique_ptr<ContentionManager>
makeContentionManager(const HtmConfig& cfg, StatsRegistry& stats)
{
    switch (cfg.contention) {
    case ContentionPolicy::Timestamp:
        return std::make_unique<TimestampManager>(cfg, stats);
    case ContentionPolicy::Karma:
        return std::make_unique<KarmaManager>(cfg, stats);
    case ContentionPolicy::Polite:
        return std::make_unique<PoliteManager>(cfg, stats);
    case ContentionPolicy::Hybrid:
        return std::make_unique<HybridManager>(cfg, stats);
    case ContentionPolicy::Requester:
        break;
    }
    return std::make_unique<ContentionManager>(cfg, stats);
}

} // namespace tmsim

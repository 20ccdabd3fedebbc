/**
 * @file
 * Configuration space of the HTM engine: the design options surveyed in
 * paper section 2.2/6 (versioning, conflict detection, nesting support).
 */

#ifndef TMSIM_HTM_HTM_CONFIG_HH
#define TMSIM_HTM_HTM_CONFIG_HH

#include <string>

#include "mem/cache.hh"
#include "sim/parse.hh"
#include "sim/types.hh"

namespace tmsim {

/** Where speculative data lives until commit. */
enum class VersionMode
{
    /** Buffer stores until commit (TCC/Herlihy style; paper 6.3.2). */
    WriteBuffer,
    /** Write memory in place, log old values (LogTM style; 6.3.1). */
    UndoLog,
};

/** When conflicts are detected. */
enum class ConflictMode
{
    /** At validate/commit time via write-set broadcast (TCC). */
    Lazy,
    /** At access time via coherence-style checks (UTM/LogTM). */
    Eager,
};

/**
 * Contention-management policy consulted at every arbitration and
 * restart-scheduling decision (see src/htm/contention.hh). The paper
 * leaves contention policy to software (section 3.2: violation
 * handlers exist so "software can implement arbitrary policies");
 * these are the bundled ones.
 */
enum class ContentionPolicy
{
    /** The requester wins: the transaction already holding the data
     *  is violated. The backoff curve is the fixed exponential one. */
    Requester,
    /** Earlier first-begin tick wins; ties broken by CPU id. The
     *  first-begin tick is retained across restarts of the same
     *  attempt sequence, so an aborted transaction keeps its
     *  seniority until it commits or gives up. */
    Timestamp,
    /** Priority accumulates with tracked accesses (one unit of karma
     *  per read/write-set insertion) and is retained across aborts;
     *  higher karma wins, ties fall back to timestamp order. */
    Karma,
    /** Requester always defers to the current holder and retries
     *  after a randomized exponential backoff whose jitter is
     *  proportional to the window. */
    Polite,
    /** Karma, plus a starvation guard: a transaction aborted more
     *  than starvationThreshold times in a row escalates to must-win
     *  seniority (it wins every arbitration, and lazy committers
     *  yield their commit slot to it) until it commits. */
    Hybrid,
};

/** The lower-case names CLIs and replay files use. */
inline constexpr Choice<ContentionPolicy> contentionPolicyNames[] = {
    {"requester", ContentionPolicy::Requester},
    {"timestamp", ContentionPolicy::Timestamp},
    {"karma", ContentionPolicy::Karma},
    {"polite", ContentionPolicy::Polite},
    {"hybrid", ContentionPolicy::Hybrid},
};

inline const char*
contentionPolicyName(ContentionPolicy p)
{
    return choiceName(contentionPolicyNames, p);
}

/** Conflict-tracking granularity (paper 6.3.1: "If word-level
 *  tracking is implemented, we need per-word R and W bits"). Word
 *  granularity eliminates false sharing and makes the early-release
 *  instruction safe (paper 4.7 notes releasing a whole cache line from
 *  a word address is not). */
enum class TrackGranularity
{
    Line,
    Word,
};

/**
 * What happens when a transaction exceeds a configured read/write-set
 * capacity bound (paper 2.3: VTM/XTM virtualisation; PAPERS.md
 * "Limited Read/Write-Set HTM").
 */
enum class CapacityMode
{
    /** The transaction takes a capacity abort and restarts; the
     *  restarted attempt runs virtualised (software overflow) so the
     *  sequence is guaranteed to make progress — XTM's abort-once,
     *  re-execute-in-software-mode policy. */
    Abort,
    /** Lines past the cap spill into a per-context software overflow
     *  log immediately; no abort, but every conflict check against the
     *  overflowed context pays overflowCheckPenalty (VTM-style). */
    Overflow,
};

/** The lower-case names CLIs and replay files use. */
inline constexpr Choice<CapacityMode> capacityModeNames[] = {
    {"abort", CapacityMode::Abort},
    {"overflow", CapacityMode::Overflow},
};

inline const char*
capacityModeName(CapacityMode m)
{
    return choiceName(capacityModeNames, m);
}

/** How nested xbegin is treated. */
enum class NestingMode
{
    /** Independent per-level tracking and rollback (this paper). */
    Full,
    /** Subsume inner transactions into the outermost (the baseline
     *  flattening of prior HTM systems). */
    Flatten,
};

// CLI spellings of the remaining modes (tmsim_run's flags).
inline constexpr Choice<VersionMode> versionModeNames[] = {
    {"wb", VersionMode::WriteBuffer},
    {"undolog", VersionMode::UndoLog},
};
inline constexpr Choice<ConflictMode> conflictModeNames[] = {
    {"lazy", ConflictMode::Lazy},
    {"eager", ConflictMode::Eager},
};
inline constexpr Choice<NestingMode> nestingModeNames[] = {
    {"full", NestingMode::Full},
    {"flatten", NestingMode::Flatten},
};
inline constexpr Choice<NestScheme> nestSchemeNames[] = {
    {"assoc", NestScheme::Associativity},
    {"multitrack", NestScheme::MultiTracking},
};
inline constexpr Choice<TrackGranularity> trackGranularityNames[] = {
    {"line", TrackGranularity::Line},
    {"word", TrackGranularity::Word},
};

/** Complete HTM configuration. */
struct HtmConfig
{
    VersionMode version = VersionMode::WriteBuffer;
    ConflictMode conflict = ConflictMode::Lazy;
    NestingMode nesting = NestingMode::Full;
    NestScheme scheme = NestScheme::Associativity;
    TrackGranularity granularity = TrackGranularity::Line;

    /** Contention-management policy (arbitration + restart backoff). */
    ContentionPolicy contention = ContentionPolicy::Requester;

    /** Hybrid's starvation guard: consecutive aborts beyond this
     *  threshold escalate the transaction to must-win seniority. */
    int starvationThreshold = 8;

    /** Hardware-supported nesting depth; deeper levels are handled by
     *  the overflow/virtualisation path with a cycle penalty. */
    int maxHwLevels = 4;

    /**
     * Closed-nested commit merge cost per read/write-set line, charged
     * when @ref lazyMerge is false (paper 6.3: "merging is difficult to
     * implement as a fast gang operation").
     */
    static constexpr Cycles mergePerLineCycles = 1;

    /** Model the paper's lazy merge: commit-time merge is free and the
     *  cost folds into subsequent accesses. */
    bool lazyMerge = true;

    /** Extra conflict-check latency once a context has overflowed
     *  transactional lines out of its caches (virtualisation). */
    static constexpr Cycles overflowCheckPenalty = 8;

    /**
     * Per-level read/write-set capacity, in tracked lines; 0 means
     * unbounded (the historical behaviour — all capacity machinery is
     * a no-op so default-config runs stay bit-identical). When a
     * level's set grows past its cap, capacityMode decides the fate;
     * in Abort mode a cache eviction of a transactional line also
     * triggers a capacity abort (the bounds assert the hardware really
     * cannot hold more than it promised).
     */
    int rsetCap = 0;
    int wsetCap = 0;
    CapacityMode capacityMode = CapacityMode::Abort;

    /** True when either set cap is configured. */
    bool
    boundedCapacity() const
    {
        return rsetCap > 0 || wsetCap > 0;
    }

    /** Runtime retry backoff/jitter between transaction re-executions.
     *  Disabling it reproduces a baseline whose flattened conflicts
     *  cascade (see EXPERIMENTS.md on figure-5 magnitudes). */
    bool retryBackoff = true;

    /** The configuration evaluated in the paper's section 7. */
    static HtmConfig paperLazy();

    /** Eager/undo-log design point (UTM/LogTM-like). */
    static HtmConfig eagerUndoLog();

    /** The flattening baseline of figure 5. */
    static HtmConfig flattenedBaseline();

    /** Human-readable summary for bench output. */
    std::string describe() const;
};

/**
 * One of the design points the paper contrasts (sections 2.2 and 6.3,
 * figure 5): a versioning, detection and nesting choice, named the way
 * the fuzzers, tmsim_sweep and the benches print it.
 */
struct DesignPoint
{
    const char* name;
    VersionMode version;
    ConflictMode conflict;
    NestingMode nesting;

    /** @p base with this point's three modes. */
    HtmConfig
    apply(HtmConfig base) const
    {
        base.version = version;
        base.conflict = conflict;
        base.nesting = nesting;
        return base;
    }
};

/** The four design points, in the differential fuzzer's order. */
inline constexpr DesignPoint designPoints[] = {
    {"eager-undolog", VersionMode::UndoLog, ConflictMode::Eager,
     NestingMode::Full},
    {"eager-wb", VersionMode::WriteBuffer, ConflictMode::Eager,
     NestingMode::Full},
    {"lazy-wb", VersionMode::WriteBuffer, ConflictMode::Lazy,
     NestingMode::Full},
    {"lazy-wb-flatten", VersionMode::WriteBuffer, ConflictMode::Lazy,
     NestingMode::Flatten},
};

/** The design point named @p name; fatal for an unknown name. */
inline const DesignPoint&
designPoint(const std::string& name)
{
    return parseChoice(name, "design point", designPoints);
}

} // namespace tmsim

#endif // TMSIM_HTM_HTM_CONFIG_HH

/**
 * @file
 * Configuration space of the HTM engine: the design options surveyed in
 * paper section 2.2/6 (versioning, conflict detection, nesting support).
 */

#ifndef TMSIM_HTM_HTM_CONFIG_HH
#define TMSIM_HTM_HTM_CONFIG_HH

#include <string>

#include "mem/cache.hh"
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

/** Short lower-case name used by CLIs and replay files. */
const char* contentionPolicyName(ContentionPolicy p);

/** Parse a contentionPolicyName(); returns false on unknown names. */
bool contentionPolicyFromName(const std::string& s, ContentionPolicy& out);

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

/** Short lower-case name used by CLIs and replay files. */
const char* capacityModeName(CapacityMode m);

/** Parse a capacityModeName(); returns false on unknown names. */
bool capacityModeFromName(const std::string& s, CapacityMode& out);

/** How nested xbegin is treated. */
enum class NestingMode
{
    /** Independent per-level tracking and rollback (this paper). */
    Full,
    /** Subsume inner transactions into the outermost (the baseline
     *  flattening of prior HTM systems). */
    Flatten,
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

} // namespace tmsim

#endif // TMSIM_HTM_HTM_CONFIG_HH

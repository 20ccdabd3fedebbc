/**
 * @file
 * Fuzz-program representation for the serializability checker: a
 * deterministic, seed-generated parallel program over five disjoint
 * word regions, executed by the fuzz walk (check/fuzz_walk) on the
 * simulator and on the STM, and validated by check/oracle. Programs
 * serialize to a line-based replay format so a shrunk failing seed
 * can be committed and re-executed bit-for-bit.
 */

#ifndef TMSIM_CHECK_FUZZ_PROGRAM_HH
#define TMSIM_CHECK_FUZZ_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "htm/htm_config.hh"
#include "sim/types.hh"

namespace tmsim {

/**
 * Memory regions with distinct checking rules. Slots are 8-byte words
 * laid out contiguously, so neighbouring slots share a cache line and
 * exercise false sharing under line-granular tracking.
 *
 *  - Shared:  closed-transactional reads/adds by any thread. Golden-
 *             checked and mode-invariant (every committed add applies
 *             exactly once, adds commute).
 *  - Open:    touched only by open-nested transaction bodies. Golden-
 *             checked per run, but excluded from cross-config
 *             comparison: open commits survive outer retries, and
 *             retry counts are mode-dependent.
 *  - Naked:   transactional adds mixed with NON-transactional loads
 *             and stores from any thread (strong atomicity). Golden-
 *             checked; excluded from cross-config comparison because
 *             the store/add interleaving is timing-dependent.
 *  - Private: slot t is only ever touched by thread t (tx adds and
 *             naked accesses). Golden-checked and mode-invariant.
 *  - Scratch: imst/imstid/imld targets and handler side effects.
 *             Unchecked: imst is visible to peers before commit.
 */
enum class Region : std::uint8_t
{
    Shared = 0,
    Open = 1,
    Naked = 2,
    Private = 3,
    Scratch = 4,
};

constexpr int numRegions = 5;

/** True if the oracle's golden model tracks words of @p r. */
inline bool
regionChecked(Region r)
{
    return r != Region::Scratch;
}

/** True if @p r must reach the same final state under every config. */
inline bool
regionInvariant(Region r)
{
    return r == Region::Shared || r == Region::Private;
}

enum class FuzzOpKind : std::uint8_t
{
    TxRead,       ///< transactional load, logged as a checked read
    TxAdd,        ///< transactional read-modify-write (load, store +v)
    Release,      ///< drop a previously read slot from the read-set
    ImmRead,      ///< imld (unchecked)
    ImmStore,     ///< imst to scratch
    ImmStoreIdem, ///< imstid to scratch
    Exec,         ///< spin for value cycles
    HandlerCommit,    ///< register a commit handler (imstid to scratch)
    HandlerViolation, ///< register a violation handler (Proceed)
    HandlerAbort,     ///< register an abort handler (imstid to scratch)
    Abort,        ///< xabort: voluntary abort, no retry
    Nest,         ///< run child transaction `child`
};

struct FuzzOp
{
    FuzzOpKind kind = FuzzOpKind::Exec;
    Region region = Region::Scratch;
    int slot = 0;
    Word value = 0; ///< add delta / store value / exec cycles
    int child = -1; ///< Nest: index into FuzzProgram::txs
};

struct FuzzTx
{
    bool open = false;
    std::vector<FuzzOp> ops;
};

enum class ThreadOpKind : std::uint8_t
{
    RunTx,      ///< run top-level transaction `tx`
    NakedLoad,  ///< non-transactional load (Naked or own Private slot)
    NakedStore, ///< non-transactional store
    Work,       ///< spin for value cycles
};

struct ThreadOp
{
    ThreadOpKind kind = ThreadOpKind::Work;
    int tx = -1;
    Region region = Region::Naked;
    int slot = 0;
    Word value = 0;
};

/**
 * A complete fuzz program. The per-seed config toggles (granularity,
 * contention policy) apply uniformly to every differential base config
 * so cross-config comparison stays apples-to-apples.
 */
struct FuzzProgram
{
    std::uint64_t seed = 0;
    int slotsPerRegion = 4;
    bool wordGranularity = false;

    /** Contention-management policy applied to every differential base
     *  config. Policies reschedule conflicts but must never change a
     *  serializability verdict; the fuzzer checks exactly that. */
    ContentionPolicy contention = ContentionPolicy::Requester;

    /** Capacity bounds applied to every differential base config
     *  (0 = unbounded). Capacity aborts are just another restart
     *  reason; the oracle's serializability verdict must not change.
     *  Not drawn by generateProgram — forced via the tmsim_fuzz CLI —
     *  but carried here so shrink/replay preserve the configuration. */
    int rsetCap = 0;
    int wsetCap = 0;
    CapacityMode capacityMode = CapacityMode::Abort;

    /** Bug-injection self-test: thread 0 performs one deliberately
     *  unrecorded store to Shared slot 0 after its Nth top-level op
     *  (-1 = disabled). The oracle must flag the run. */
    int injectHiddenStoreAfter = -1;

    std::vector<FuzzTx> txs;
    std::vector<std::vector<ThreadOp>> threads;

    int numThreads() const { return static_cast<int>(threads.size()); }

    /** Replay-file text (tmsim-fuzz-replay v1). */
    std::string serialize() const;

    /** Parse a replay file; returns false with *err set on malformed
     *  input. */
    static bool parse(const std::string& text, FuzzProgram& out,
                      std::string* err = nullptr);
};

/** Deterministically generate the program for @p seed. */
FuzzProgram generateProgram(std::uint64_t seed);

/** Read and parse the replay file @p path; fatal when it cannot be
 *  opened or is malformed. */
FuzzProgram loadReplay(const std::string& path);

/** Write @p p to DIR/NAME.replay and return that path, or "" (after a
 *  note on stderr) when the file cannot be written. */
std::string writeReplay(const FuzzProgram& p, const std::string& dir,
                        const std::string& name);

/**
 * Print the verdict of a --replay run, "replay FAILS [WHERE]: MESSAGE"
 * or @p pass_line, and return the tool's exit code: 0 when the replay
 * failed exactly if @p expect_fail, 1 otherwise.
 */
int replayVerdict(bool failed, const std::string& where,
                  const std::string& message, const char* pass_line,
                  bool expect_fail);

} // namespace tmsim

#endif // TMSIM_CHECK_FUZZ_PROGRAM_HH

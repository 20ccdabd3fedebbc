/**
 * @file
 * Configuration for the native STM backend (src/stm): the heap size
 * and the per-run watchdog deadline, plus the fixed table size and
 * spin budget.
 */

#ifndef TMSIM_STM_STM_CONFIG_HH
#define TMSIM_STM_STM_CONFIG_HH

#include <chrono>
#include <cstddef>

namespace tmsim {

/**
 * Settings of one StmRuntime instance. Defaults are sized for the
 * fuzz corpus and the scaling benchmark; everything is host-side (no
 * simulated cost model).
 */
struct StmConfig
{
    /** Size of the word-addressable transactional heap. */
    std::size_t memWords = std::size_t{1} << 20;

    /** Watchdog: an operation that cannot make progress within this
     *  budget throws StmHangError instead of spinning forever. The
     *  lock protocol cannot deadlock (sorted acquisition), so this
     *  only fires on livelock pathologies or a wedged host. */
    std::chrono::milliseconds opTimeout{10'000};

    /** Ownership-record count, a power of two. Aliasing two addresses
     *  onto one orec is safe (false conflicts only). */
    static constexpr std::size_t numOrecs = std::size_t{1} << 16;

    /** Bounded spin (iterations) on a locked orec at commit before
     *  the committer gives up and treats the lock as a conflict. */
    static constexpr int spinTries = 4096;
};

} // namespace tmsim

#endif // TMSIM_STM_STM_CONFIG_HH

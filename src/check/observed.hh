/**
 * @file
 * Engine-agnostic observation model the fuzz walk (check/fuzz_walk)
 * fills on every execution engine it runs on (the cycle simulator
 * through check/fuzz_interp, the native STM backend through
 * check/stm_interp): the word layout of the fuzz regions, one checked
 * access, one serialization unit, and the complete ObservedRun the
 * serializability oracle consumes. Nothing here depends on how the
 * engine executes — only on what it observed.
 */

#ifndef TMSIM_CHECK_OBSERVED_HH
#define TMSIM_CHECK_OBSERVED_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "check/fuzz_program.hh"
#include "sim/types.hh"

namespace tmsim {

/**
 * Word layout of the fuzz regions in (simulated or native) memory.
 * Regions are line-aligned so no track unit ever spans two regions
 * (release-safety and the cross-config invariant reason about whole
 * regions); slots within a region stay contiguous so neighbouring
 * slots share a line and exercise false sharing under line-granular
 * tracking.
 */
struct FuzzLayout
{
    Addr base = 0;
    int slots = 0;
    Addr regionStride = 0;

    Addr
    addrOf(Region r, int slot) const
    {
        return base + static_cast<Addr>(r) * regionStride +
               static_cast<Addr>(slot) * wordBytes;
    }

    /** Deterministic initial image, distinct per word. */
    static Word
    initValue(Region r, int slot)
    {
        return 0x1000u * (static_cast<unsigned>(r) + 1) +
               static_cast<unsigned>(slot);
    }
};

/** One checked access performed inside a committed unit. */
struct ObservedAccess
{
    enum class Kind : std::uint8_t
    {
        Read,          ///< value must match the golden model
        ReadUnchecked, ///< read later released: no value guarantee
        Write,         ///< applied to the golden model
    };

    Kind kind = Kind::Read;
    Addr addr = 0;
    Word value = 0;
};

/**
 * One serialization unit in chip-global order: an outer-transaction
 * commit, an open-nested commit, or a single non-transactional access
 * (which is its own serialization point under strong atomicity).
 */
struct ObservedUnit
{
    enum class Kind : std::uint8_t
    {
        TxCommit,
        OpenCommit,
        NakedLoad,
        NakedStore,
    };

    Kind kind = Kind::TxCommit;
    CpuId cpu = 0;
    /** Serialized, then rolled back before committing memory. */
    bool dead = false;
    /** Access content attached (always true for naked units). */
    bool filled = false;
    std::vector<ObservedAccess> accesses; ///< commits only
    Addr addr = 0;                        ///< naked units only
    Word value = 0;                       ///< naked units only
};

/** Everything the oracle needs about one execution. */
struct ObservedRun
{
    FuzzLayout layout;
    std::vector<ObservedUnit> units;
    bool hang = false;
    std::string error;
    /** Final backing-store words of all golden-checked regions. */
    std::vector<std::pair<Addr, Word>> finalChecked;
    /** Final words of the mode-invariant regions (Shared, Private). */
    std::vector<std::pair<Addr, Word>> finalInvariant;
};

} // namespace tmsim

#endif // TMSIM_CHECK_OBSERVED_HH

/**
 * @file
 * Cache geometry parameters and address slicing helpers.
 */

#ifndef TMSIM_MEM_CACHE_GEOMETRY_HH
#define TMSIM_MEM_CACHE_GEOMETRY_HH

#include "sim/types.hh"

namespace tmsim {

/** Size/associativity/line parameters of one cache level. */
struct CacheGeometry
{
    Addr sizeBytes = 32 * 1024;
    Addr lineBytes = 32;
    int assoc = 4;
    Cycles hitLatency = 1;

    /** Number of sets implied by the parameters. */
    int numSets() const;

    /** Line-aligned base of @p addr. */
    Addr lineAddr(Addr addr) const { return addr & ~(lineBytes - 1); }

    /** Words per cache line. */
    int wordsPerLine() const { return static_cast<int>(lineBytes / 8); }

    /** Validate parameters, aborting on nonsense configurations. */
    void validate(const char* name) const;
};

} // namespace tmsim

#endif // TMSIM_MEM_CACHE_GEOMETRY_HH

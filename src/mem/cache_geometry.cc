#include "mem/cache_geometry.hh"

#include "sim/logging.hh"

namespace tmsim {

int
CacheGeometry::numSets() const
{
    return static_cast<int>(sizeBytes / (lineBytes * assoc));
}

void
CacheGeometry::validate(const char* name) const
{
    auto pow2 = [](Addr v) { return v != 0 && (v & (v - 1)) == 0; };
    if (!pow2(lineBytes) || lineBytes < 8)
        fatal("%s: line size must be a power of two >= 8", name);
    if (assoc <= 0)
        fatal("%s: associativity must be positive", name);
    if (sizeBytes % (lineBytes * assoc) != 0)
        fatal("%s: size must be a multiple of line*assoc", name);
    if (!pow2(static_cast<Addr>(numSets())))
        fatal("%s: number of sets must be a power of two", name);
}

} // namespace tmsim

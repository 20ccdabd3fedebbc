/**
 * @file
 * Bloom signatures over conflict-tracking units: the chip-wide filter
 * in front of the ConflictDetector's sharer index.
 *
 * A signature answers "might this unit be in the set?" with no false
 * negatives: a negative answer lets conflict queries skip every hash
 * probe. Bits are only ever added; stale bits after a set shrinks
 * (release, rollback, commit) merely cause false positives, which the
 * exact index lookup behind the filter resolves. The detector clears
 * its signatures wholesale when the sharer index empties.
 */

#ifndef TMSIM_HTM_SIGNATURE_HH
#define TMSIM_HTM_SIGNATURE_HH

#include <cstdint>
#include <cstring>

#include "sim/types.hh"

namespace tmsim {

/**
 * Fixed-size Bloom filter (2048 bits, two hash functions) with a
 * one-word summary in front: most negative queries are answered by a
 * single 64-bit test without touching the bit array.
 */
class TxSignature
{
  public:
    static constexpr std::size_t numBits = 2048;

    void
    add(Addr unit)
    {
        const std::uint64_t h = mix(unit);
        summary |= 1ull << (h & 63);
        setBit((h >> 6) & (numBits - 1));
        setBit((h >> 17) & (numBits - 1));
    }

    bool
    mayContain(Addr unit) const
    {
        const std::uint64_t h = mix(unit);
        if (!(summary & (1ull << (h & 63))))
            return false;
        return testBit((h >> 6) & (numBits - 1)) &&
               testBit((h >> 17) & (numBits - 1));
    }

    void
    clear()
    {
        summary = 0;
        std::memset(bits, 0, sizeof(bits));
    }

  private:
    /** SplitMix64 finaliser: cheap, well-mixed bits from an address. */
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x ^= x >> 30;
        x *= 0xBF58476D1CE4E5B9ull;
        x ^= x >> 27;
        x *= 0x94D049BB133111EBull;
        return x ^ (x >> 31);
    }

    void setBit(std::uint64_t i) { bits[i >> 6] |= 1ull << (i & 63); }

    bool
    testBit(std::uint64_t i) const
    {
        return (bits[i >> 6] >> (i & 63)) & 1;
    }

    std::uint64_t summary = 0;
    std::uint64_t bits[numBits / 64] = {};
};

} // namespace tmsim

#endif // TMSIM_HTM_SIGNATURE_HH

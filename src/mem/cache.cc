#include "mem/cache.hh"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <new>
#include <unordered_map>
#include <utility>

// Its poison macros are no-ops outside AddressSanitizer builds.
#include <sanitizer/asan_interface.h>

#include "sim/logging.hh"

namespace tmsim {

namespace {

std::atomic<std::uint64_t> tagMappings{0};
std::atomic<std::uint64_t> tagBytesMapped{0};

void*
mapTags(size_t bytes)
{
    void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        return nullptr;
    ++tagMappings;
    tagBytesMapped += bytes;
    return mem;
}

void
unmapTags(void* mem, size_t bytes)
{
    ASAN_UNPOISON_MEMORY_REGION(mem, bytes);
    munmap(mem, bytes);
    tagBytesMapped -= bytes;
}

/** A tag array a freed cache left behind: all-zero and still mapped,
 *  with its all-zero dirty-set bitmap. */
struct Parked
{
    void* mem = nullptr;
    size_t bytes = 0;
    std::vector<std::uint64_t> dirtySets;
};

/** Set when this thread's pool is destroyed (at thread exit, or before
 *  static destruction on the main thread); trivially destructible, so
 *  a later ~Cache can still read it. */
thread_local bool poolGone = false;

/**
 * This thread's parked tag arrays, keyed by cache name, at most one per
 * name. Keying by name hands a rebuilt "cpu3.l2" the pages the last
 * "cpu3.l2" touched, which the same workload touches again; a pool that
 * mixed CPUs' arrays would fault in the union of their pages.
 */
class TagPool
{
  public:
    TagPool() = default;
    TagPool(const TagPool&) = delete;
    TagPool& operator=(const TagPool&) = delete;

    ~TagPool()
    {
        poolGone = true;
        for (auto& [name, p] : parked)
            if (p.mem)
                unmapTags(p.mem, p.bytes);
    }

    /** The array parked under @p name if it spans @p bytes, else none
     *  (an entry whose array was taken spans 0 bytes). */
    Parked
    take(const std::string& name, size_t bytes)
    {
        auto it = parked.find(name);
        if (it == parked.end() || it->second.bytes != bytes)
            return {};
        return std::exchange(it->second, Parked{});
    }

    /** Park @p p under @p name, unmapping an array parked there before. */
    void
    park(const std::string& name, Parked p)
    {
        Parked& slot = parked[name];
        if (slot.mem)
            unmapTags(slot.mem, slot.bytes);
        slot = std::move(p);
    }

  private:
    // Entries stay when their array is taken, so a warm thread builds
    // and frees caches without allocating.
    std::unordered_map<std::string, Parked> parked;
};

TagPool&
tagPool()
{
    thread_local TagPool pool;
    return pool;
}

} // namespace

TagMemory
tagMemory()
{
    return {tagMappings.load(), tagBytesMapped.load()};
}

Cache::Cache(std::string name_, const CacheGeometry& geom_,
             NestScheme scheme_, int max_levels, StatsRegistry& stats)
    : name(std::move(name_)),
      geom(geom_),
      scheme(scheme_),
      maxLevels(max_levels),
      statHits(stats.counter(name + ".hits")),
      statMisses(stats.counter(name + ".misses")),
      statEvictions(stats.counter(name + ".evictions")),
      statTxOverflows(stats.counter(name + ".tx_overflows")),
      statReplications(stats.counter(name + ".version_replications"))
{
    geom.validate(name.c_str());
    if (maxLevels < 1 || maxLevels > 30)
        fatal("%s: max nesting levels must be in [1, 30]", name.c_str());
    ways = static_cast<size_t>(geom.assoc);
    lineShift = static_cast<unsigned>(std::countr_zero(geom.lineBytes));
    setMask = static_cast<Addr>(geom.numSets()) - 1;
    // Anonymous pages read as zero until first written, a parked array
    // was zeroed by the cache that parked it, and an all-zero Line is
    // an empty way. Default-initialising the trivial Lines starts their
    // lifetimes without writing a byte.
    const size_t count = static_cast<size_t>(geom.numSets()) * ways;
    mappedBytes = count * sizeof(Line);
    Parked p;
    if (!poolGone)
        p = tagPool().take(name, mappedBytes);
    void* mem = p.mem;
    if (mem) {
        ASAN_UNPOISON_MEMORY_REGION(mem, mappedBytes);
    } else if (!(mem = mapTags(mappedBytes))) {
        fatal("%s: cannot map %zu bytes of tags", name.c_str(), mappedBytes);
    }
    // A parked bitmap is all-zero, so resizing it yields a clean one.
    dirtySets = std::move(p.dirtySets);
    dirtySets.resize((static_cast<size_t>(geom.numSets()) + 63) / 64);
    lines = new (mem) Line[count];
}

Cache::~Cache()
{
    if (poolGone) {
        unmapTags(lines, mappedBytes);
        return;
    }
    // allocate() is the only way a way becomes non-zero, so zeroing the
    // sets it wrote leaves the array as a fresh mapping reads.
    for (size_t w = 0; w < dirtySets.size(); ++w) {
        for (std::uint64_t bits = std::exchange(dirtySets[w], 0); bits;
             bits &= bits - 1) {
            const size_t set = w * 64 + std::countr_zero(bits);
            std::memset(lines + set * ways, 0, ways * sizeof(Line));
        }
    }
    ASAN_POISON_MEMORY_REGION(lines, mappedBytes);
    tagPool().park(name, {lines, mappedBytes, std::move(dirtySets)});
}

Cache::Line*
Cache::findLine(Addr line_addr)
{
    Line* best = nullptr;
    for (auto& line : setFor(line_addr)) {
        if (line.valid && line.lineAddr == line_addr) {
            // Associativity scheme: the most recent version has the
            // highest NL field.
            if (!best || line.nl > best->nl)
                best = &line;
        }
    }
    return best;
}

const Cache::Line*
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache*>(this)->findLine(line_addr);
}

bool
Cache::contains(Addr line_addr) const
{
    return findLine(line_addr) != nullptr;
}

bool
Cache::lookup(Addr line_addr)
{
    Line* line = findLine(line_addr);
    if (line) {
        touch(*line);
        ++statHits;
        return true;
    }
    ++statMisses;
    return false;
}

Cache::Line*
Cache::allocate(Addr line_addr, EvictInfo* evict)
{
    auto set = setFor(line_addr);
    Line* victim = nullptr;
    // Prefer an invalid way, then the LRU non-transactional line, then
    // the LRU line overall (which forces a transactional overflow).
    for (auto& line : set) {
        if (!line.valid) {
            victim = &line;
            break;
        }
    }
    if (!victim) {
        Line* lruPlain = nullptr;
        Line* lruAny = nullptr;
        for (auto& line : set) {
            if (!lruAny || line.lru < lruAny->lru)
                lruAny = &line;
            if (!line.isTx() && (!lruPlain || line.lru < lruPlain->lru))
                lruPlain = &line;
        }
        victim = lruPlain ? lruPlain : lruAny;
        ++statEvictions;
        if (victim->isTx())
            ++statTxOverflows;
        if (evict) {
            evict->evicted = true;
            evict->lineAddr = victim->lineAddr;
            evict->transactional = victim->isTx();
        }
    }
    wipe(*victim);
    const Addr setNo = (line_addr >> lineShift) & setMask;
    dirtySets[setNo / 64] |= std::uint64_t{1} << (setNo % 64);
    victim->valid = true;
    victim->lineAddr = line_addr;
    touch(*victim);
    return victim;
}

EvictInfo
Cache::fill(Addr line_addr)
{
    EvictInfo evict;
    if (Line* line = findLine(line_addr)) {
        touch(*line);
        return evict;
    }
    allocate(line_addr, &evict);
    return evict;
}

void
Cache::invalidateNonSpec(Addr line_addr)
{
    for (auto& line : setFor(line_addr)) {
        if (line.valid && line.lineAddr == line_addr && !line.isTx() &&
            line.nl == 0) {
            wipe(line);
        }
    }
}

namespace {

std::uint32_t
levelBit(int level)
{
    return 1u << (level - 1);
}

} // namespace

void
Cache::mark(Addr line_addr, int level, bool is_write)
{
    if (level < 1)
        panic("mark at non-transactional level %d", level);
    const auto eff =
        static_cast<std::int16_t>(std::min(level, maxLevels));
    std::uint32_t Line::*mask = is_write ? &Line::writeMask : &Line::readMask;

    Line* line = findLine(line_addr);
    if (scheme == NestScheme::MultiTracking) {
        if (!line)
            line = allocate(line_addr, nullptr);
        line->*mask |= levelBit(eff);
        syncTx(*line);
        touch(*line);
        return;
    }

    // Associativity scheme.
    if (!line) {
        line = allocate(line_addr, nullptr);
        line->nl = eff;
    } else if (line->nl == 0) {
        line->nl = eff;
    } else if (line->nl < eff) {
        // A version belonging to an ancestor exists: replicate into a
        // new way of the same set (paper section 6.3.2).
        ++statReplications;
        line = allocate(line_addr, nullptr);
        line->nl = eff;
    }
    line->*mask |= 1;
    syncTx(*line);
    touch(*line);
}

bool
Cache::hasTxMeta(Addr line_addr) const
{
    for (const auto& line : setFor(line_addr)) {
        if (line.valid && line.lineAddr == line_addr && line.isTx())
            return true;
    }
    return false;
}

bool
Cache::marked(Addr line_addr, int level, bool is_write) const
{
    int eff = std::min(level, maxLevels);
    std::uint32_t Line::*mask = is_write ? &Line::writeMask : &Line::readMask;
    for (const auto& line : setFor(line_addr)) {
        if (!line.valid || line.lineAddr != line_addr)
            continue;
        if (scheme == NestScheme::MultiTracking) {
            if (line.*mask & levelBit(eff))
                return true;
        } else if (line.nl == eff && (line.*mask & 1)) {
            return true;
        }
    }
    return false;
}

// The gang operations below walk the tx-line index instead of the
// whole cache: only lines carrying annotations can be affected, and
// each per-line transform is independent of every other annotated
// line (the associativity merge targets are addressed by (addr, nl),
// which is unique within a set), so index order does not matter.
// syncTx() may swap-remove the current slot, in which case the same
// slot index is revisited; lines it appends (a merge target gaining
// its first annotation) are no-ops for the running transform.

void
Cache::clearLevel(int level)
{
    int eff = std::min(level, maxLevels);
    for (size_t i = 0; i < txLines.size();) {
        Line& line = lines[txLines[i]];
        if (scheme == NestScheme::MultiTracking) {
            line.readMask &= ~levelBit(eff);
            line.writeMask &= ~levelBit(eff);
            syncTx(line);
        } else if (line.nl == eff) {
            if (line.writeMask) {
                // Dirty speculative version: discard (the committed
                // version, if any, lives in another way or in memory).
                wipe(line);
            } else {
                // Read-only at this level: the data is committed and
                // stays valid; only the annotation dies.
                line.nl = 0;
                line.readMask = 0;
                syncTx(line);
            }
        }
        if (line.txSlot == i + 1)
            ++i;
    }
}

void
Cache::mergeLevelDown(int level)
{
    int eff = std::min(level, maxLevels);
    std::uint32_t bit = levelBit(eff);
    std::uint32_t below = eff >= 2 ? levelBit(eff - 1) : 0;

    for (size_t i = 0; i < txLines.size();) {
        Line& line = lines[txLines[i]];
        if (scheme == NestScheme::MultiTracking) {
            if (line.readMask & bit) {
                line.readMask &= ~bit;
                line.readMask |= below;
            }
            if (line.writeMask & bit) {
                line.writeMask &= ~bit;
                line.writeMask |= below;
            }
            syncTx(line);
        } else if (line.nl == eff) {
            // Retag to the parent level; merge into an existing
            // parent version if one occupies the same set.
            auto set = setFor(line.lineAddr);
            Line* parent = nullptr;
            for (auto& other : set) {
                if (&other != &line && other.valid &&
                    other.lineAddr == line.lineAddr &&
                    other.nl == eff - 1) {
                    parent = &other;
                    break;
                }
            }
            if (parent) {
                parent->readMask |= line.readMask;
                parent->writeMask |= line.writeMask;
                syncTx(*parent);
                wipe(line);
            } else {
                --line.nl;
                if (line.nl == 0) {
                    line.readMask = 0;
                    line.writeMask = 0;
                }
                syncTx(line);
            }
        }
        if (line.txSlot == i + 1)
            ++i;
    }
}

void
Cache::commitOpenLevel(int level)
{
    int eff = std::min(level, maxLevels);
    for (size_t i = 0; i < txLines.size();) {
        Line& line = lines[txLines[i]];
        if (scheme == NestScheme::MultiTracking) {
            line.readMask &= ~levelBit(eff);
            line.writeMask &= ~levelBit(eff);
            syncTx(line);
        } else if (line.nl == eff) {
            // Keep the (now committed) data as a plain line unless
            // a plain copy already exists in the set.
            auto set = setFor(line.lineAddr);
            Line* plain = nullptr;
            for (auto& other : set) {
                if (&other != &line && other.valid &&
                    other.lineAddr == line.lineAddr && other.nl == 0) {
                    plain = &other;
                    break;
                }
            }
            if (plain) {
                wipe(line);
            } else {
                line.nl = 0;
                line.readMask = 0;
                line.writeMask = 0;
                syncTx(line);
            }
        }
        if (line.txSlot == i + 1)
            ++i;
    }
}

void
Cache::clearAllTx()
{
    for (size_t i = 0; i < txLines.size();) {
        Line& line = lines[txLines[i]];
        if (scheme == NestScheme::MultiTracking) {
            line.readMask = 0;
            line.writeMask = 0;
            syncTx(line);
        } else if (line.nl != 0) {
            wipe(line);
        }
        // else: an associativity-scheme plain (nl == 0) line carrying
        // masks from a level-1 merge; it keeps its annotations, same
        // as the whole-cache scan did.
        if (line.txSlot == i + 1)
            ++i;
    }
}

std::uint64_t
Cache::txLineCount() const
{
    return txLines.size();
}

int
Cache::versionCount(Addr line_addr) const
{
    int count = 0;
    for (const auto& line : setFor(line_addr))
        if (line.valid && line.lineAddr == line_addr)
            ++count;
    return count;
}

} // namespace tmsim

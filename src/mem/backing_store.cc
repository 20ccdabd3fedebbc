#include "mem/backing_store.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/logging.hh"

namespace tmsim {

Addr
watchAddrFromEnv(const char* env)
{
    if (!env || *env == '\0')
        return invalidAddr;
    // strtoull quietly maps garbage to 0 and wraps negatives: a typo'd
    // TMSIM_WATCH_ADDR would silently trace address 0 instead of the
    // intended word. Require a full, non-negative parse.
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = strtoull(env, &end, 0);
    if (end == env || *end != '\0' || errno == ERANGE ||
        strchr(env, '-') != nullptr) {
        warn("TMSIM_WATCH_ADDR='%s' is not a valid address; "
             "watchpoint disabled", env);
        return invalidAddr;
    }
    return static_cast<Addr>(v);
}

namespace {

/** TMSIM_WATCH_ADDR, parsed once per process: a malformed value warns
 *  once, not once per Machine. */
Addr
envWatchAddr()
{
    static const Addr addr = watchAddrFromEnv(getenv("TMSIM_WATCH_ADDR"));
    return addr;
}

} // namespace

BackingStore::BackingStore(Addr size_bytes)
    : bytes(size_bytes),
      // Keep address 0 unmapped-ish: start allocations at one line so a
      // zero Addr can serve as a null pointer in workloads.
      brkPtr(64),
      watchAddrVal(envWatchAddr())
{
    if (size_bytes == 0)
        fatal("BackingStore size must be nonzero");
}

void
BackingStore::checkAddr(Addr addr) const
{
    if (addr % wordBytes != 0)
        panic("unaligned word access at 0x%llx",
              static_cast<unsigned long long>(addr));
    // Subtraction form: `addr + wordBytes > bytes` wraps for addresses
    // near UINT64_MAX and would admit them.
    if (addr >= bytes || bytes - addr < wordBytes)
        panic("out-of-range memory access at 0x%llx",
              static_cast<unsigned long long>(addr));
}

Word*
BackingStore::chunkFor(Addr word_index, bool create) const
{
    const Addr chunk = word_index / chunkWords;
    const Addr offset = word_index % chunkWords;
    if (chunk == cachedChunk)
        return cachedPtr + offset;
    auto it = chunks.find(chunk);
    if (it == chunks.end()) {
        if (!create)
            return nullptr;
        // make_unique<Word[]> value-initializes: fresh chunks read 0.
        it = chunks.emplace(chunk,
                            std::make_unique<Word[]>(chunkWords)).first;
    }
    cachedChunk = chunk;
    cachedPtr = it->second.get();
    return cachedPtr + offset;
}

Word
BackingStore::read(Addr addr) const
{
    checkAddr(addr);
    const Word* w = chunkFor(addr / wordBytes, /*create=*/false);
    return w ? *w : 0;
}

void
BackingStore::write(Addr addr, Word value)
{
    checkAddr(addr);
    Word* slot = chunkFor(addr / wordBytes, /*create=*/true);
    // Debug watchpoint: set TMSIM_WATCH_ADDR=<addr> to trace every
    // architectural write to one simulated word (committed stores,
    // in-place speculative stores, and undo restores).
    if (addr == watchAddrVal) {
        fprintf(stderr, "[watch] 0x%llx: %llu -> %llu\n",
                (unsigned long long)addr,
                (unsigned long long)*slot,
                (unsigned long long)value);
    }
    *slot = value;
}

Addr
BackingStore::allocate(Addr n_bytes, Addr align)
{
    if (align == 0 || (align & (align - 1)) != 0)
        panic("allocation alignment must be a power of two");
    // All comparisons in subtraction form: `base + n_bytes > bytes`
    // wraps for huge n_bytes and would hand out a bogus base.
    Addr base = brkPtr;
    const Addr rem = base & (align - 1);
    if (rem != 0) {
        const Addr pad = align - rem;
        if (base > bytes || pad > bytes - base)
            fatal("simulated memory exhausted (%llu bytes requested "
                  "at alignment %llu)",
                  static_cast<unsigned long long>(n_bytes),
                  static_cast<unsigned long long>(align));
        base += pad;
    }
    if (base > bytes || n_bytes > bytes - base)
        fatal("simulated memory exhausted (%llu bytes requested)",
              static_cast<unsigned long long>(n_bytes));
    brkPtr = base + n_bytes;
    return base;
}

} // namespace tmsim

/**
 * @file
 * Layout of a thread's private runtime memory: the TCB stack and the
 * three handler stacks of paper figure 2, plus the memory-resident
 * pointer fields (xtcbptr/xchptr/xvhptr/xahptr analogues).
 *
 * The runtime manipulates these with imld/imst so TCB and handler
 * management generate realistic (thread-private, well-cached) memory
 * traffic with the instruction counts reported in paper section 7.
 */

#ifndef TMSIM_RUNTIME_THREAD_AREA_HH
#define TMSIM_RUNTIME_THREAD_AREA_HH

#include <cstddef>

#include "mem/backing_store.hh"
#include "sim/types.hh"

namespace tmsim {

struct ThreadArea
{
    /** Pointer-field block: [0] xtcbptr_top (kept in a register by the
     *  runtime), [1] xchptr_top, [2] xvhptr_top, [3] xahptr_top. */
    Addr regBase = 0;
    /** Base of the TCB frame stack. */
    Addr tcbBase = 0;
    /** Bases of the commit / violation / abort handler stacks. */
    Addr chBase = 0;
    Addr vhBase = 0;
    Addr ahBase = 0;

    /** TCB frames carved per thread. */
    static constexpr size_t tcbFrames = 16;
    /** Words per handler stack. */
    static constexpr size_t stackWords = 2048;

    /** Words per TCB frame (status + three handler-top snapshots +
     *  checkpoint slots). */
    static constexpr size_t frameWords = 8;

    /** Carve a thread area out of simulated memory. */
    static ThreadArea allocate(BackingStore& mem);

    Addr
    tcbFrameAddr(size_t frame) const
    {
        return tcbBase + frame * frameWords * wordBytes;
    }

    Addr chTopField() const { return regBase + 1 * wordBytes; }
    Addr vhTopField() const { return regBase + 2 * wordBytes; }
    Addr ahTopField() const { return regBase + 3 * wordBytes; }
};

} // namespace tmsim

#endif // TMSIM_RUNTIME_THREAD_AREA_HH

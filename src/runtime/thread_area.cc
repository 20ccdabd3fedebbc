#include "runtime/thread_area.hh"

namespace tmsim {

ThreadArea
ThreadArea::allocate(BackingStore& mem)
{
    ThreadArea area;
    area.regBase = mem.allocate(8 * wordBytes, 64);
    area.tcbBase = mem.allocate(tcbFrames * frameWords * wordBytes, 64);
    area.chBase = mem.allocate(stackWords * wordBytes, 64);
    area.vhBase = mem.allocate(stackWords * wordBytes, 64);
    area.ahBase = mem.allocate(stackWords * wordBytes, 64);
    return area;
}

} // namespace tmsim

#include "sim/task.hh"

namespace tmsim::detail {

namespace {

/** At thread exit, frees every frame parked on the thread's lists and
 *  sends later frees straight to the heap. */
class FrameReaper
{
  public:
    FrameReaper() = default;
    FrameReaper(const FrameReaper&) = delete;
    FrameReaper& operator=(const FrameReaper&) = delete;

    ~FrameReaper()
    {
        FramePool& pool = framePool;
        pool.state = FramePool::State::Gone;
        for (std::size_t c = 0; c < FramePool::classes; ++c) {
            while (void* p = pool.head[c]) {
                ASAN_UNPOISON_MEMORY_REGION(p, FramePool::blockBytes(c));
                pool.head[c] = *static_cast<void**>(p);
                ::operator delete(p, FramePool::blockBytes(c));
            }
        }
    }
};

} // namespace

void*
FramePool::miss(std::size_t c)
{
    if (state == State::Unarmed) {
        thread_local FrameReaper reaper;
        state = State::Armed;
    }
    return ::operator new(blockBytes(c));
}

} // namespace tmsim::detail

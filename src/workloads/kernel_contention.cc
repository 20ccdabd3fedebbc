#include "workloads/kernel_contention.hh"

namespace tmsim {

void
ContentionKernel::init(Machine& m, int /* n_threads */)
{
    // One line is enough: the hot words share it, so every
    // transaction collides on the same tracking unit under line
    // granularity (and on the same words under word granularity).
    hotBase = m.memory().allocate(64, 64);
}

SimTask
ContentionKernel::thread(TxThread& t, int tid, int n_threads)
{
    (void)n_threads;
    const bool isLong = tid < p.longThreads;
    const int hold = isLong ? holdCycles * longFactor : holdCycles;
    // Long-holding threads and short ones are distinct op classes, so
    // the dump splits tail latency by victim/aggressor role.
    t.setOpClass(t.registerOpClass(isLong ? "long" : "short"));
    for (int it = 0; it < itersPerThread; ++it) {
        co_await t.atomic([&](TxThread& tx) -> SimTask {
            for (int w = 0; w < hotWords; ++w) {
                const Addr a =
                    hotBase + static_cast<Addr>(w) * wordBytes;
                Word v = co_await tx.ld(a);
                co_await tx.work(static_cast<std::uint64_t>(hold));
                co_await tx.st(a, v + 1);
            }
        });
    }
}

bool
ContentionKernel::verify(Machine& m, int n_threads)
{
    const Word expect = static_cast<Word>(itersPerThread) *
                        static_cast<Word>(n_threads);
    for (int w = 0; w < hotWords; ++w) {
        if (m.memory().read(hotBase + static_cast<Addr>(w) * wordBytes) !=
            expect) {
            return false;
        }
    }
    return true;
}

} // namespace tmsim

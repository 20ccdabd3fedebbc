#include "workloads/kernels_scientific.hh"

#include "sim/rng.hh"

namespace tmsim {

int
SciKernel::itersFor(int tid, int n_threads) const
{
    int base = p.outerIters / n_threads;
    int extra = p.outerIters % n_threads;
    return base + (tid < extra ? 1 : 0);
}

void
SciKernel::init(Machine& m, int n_threads)
{
    BackingStore& mem = m.memory();
    // One cell per cache line so the conflict domain is exactly
    // p.sharedCells lines.
    cellsBase = mem.allocate(static_cast<Addr>(p.sharedCells) * 64, 64);
    if (p.reductionCells > 0) {
        reductionBase =
            mem.allocate(static_cast<Addr>(p.reductionCells) * 64, 64);
    }
    sharedReadBase =
        mem.allocate(static_cast<Addr>(std::max(p.sharedReads, 1)) * 64,
                     64);
    privateBase.clear();
    for (int t = 0; t < n_threads; ++t) {
        privateBase.push_back(mem.allocate(
            static_cast<Addr>(std::max(p.privateWords, 1)) * wordBytes,
            64));
    }
    for (int i = 0; i < p.sharedReads; ++i)
        mem.write(sharedReadBase + static_cast<Addr>(i) * 64,
                  static_cast<Word>(i + 1));
}

SimTask
SciKernel::thread(TxThread& t, int tid, int n_threads)
{
    const int iters = itersFor(tid, n_threads);
    Rng rng(p.seed * 7919 + static_cast<std::uint64_t>(tid));
    const Addr priv = privateBase[static_cast<size_t>(tid)];

    for (int it = 0; it < iters; ++it) {
        co_await t.atomic([&](TxThread& tx) -> SimTask {
            co_await tx.work(static_cast<std::uint64_t>(p.frontCycles));

            // Private streaming phase: loads and stores over the
            // thread's own data (cache traffic, no conflicts).
            for (int w = 0; w < p.privateWords; ++w) {
                Addr a = priv + static_cast<Addr>(w) * wordBytes;
                Word v = co_await tx.ld(a);
                co_await tx.st(a, v + 1);
            }

            // Read-mostly shared state (e.g. global parameters).
            for (int r = 0; r < p.sharedReads; ++r) {
                co_await tx.ld(sharedReadBase +
                               static_cast<Addr>(r) * 64);
            }

            // The inner transactions come after the bulk of the outer
            // work (mp3d-style: a late conflict costs the whole outer
            // transaction under flattening).
            co_await tx.work(static_cast<std::uint64_t>(p.backCycles));
            for (int k = 0; k < p.innerCount; ++k) {
                co_await tx.atomic([&](TxThread& ti) -> SimTask {
                    Addr cell =
                        cellsBase +
                        static_cast<Addr>(rng.below(
                            static_cast<std::uint64_t>(p.sharedCells))) *
                            64;
                    Word v = co_await ti.ld(cell);
                    co_await ti.work(
                        static_cast<std::uint64_t>(p.innerCycles));
                    co_await ti.st(cell, v + 1);
                });
            }

            // Reduction update at the very end of the outer
            // transaction: the flattening worst case (a conflict here
            // replays the entire outer transaction).
            if (p.reductionCells > 0) {
                Addr cell = reductionBase +
                            static_cast<Addr>(rng.below(
                                static_cast<std::uint64_t>(
                                    p.reductionCells))) *
                                64;
                co_await tx.atomic([&](TxThread& ti) -> SimTask {
                    Word v = co_await ti.ld(cell);
                    co_await ti.work(static_cast<std::uint64_t>(
                        p.reductionCycles));
                    co_await ti.st(cell, v + 1);
                });
            }
        });
    }
}

bool
SciKernel::verify(Machine& m, int /* n_threads */)
{
    // Every committed outer transaction contributes exactly
    // p.innerCount cell increments, regardless of retries (closed
    // nesting never publishes without the outermost commit).
    Word total = 0;
    for (int i = 0; i < p.sharedCells; ++i)
        total += m.memory().read(cellsBase + static_cast<Addr>(i) * 64);
    if (total != static_cast<Word>(p.outerIters) *
                     static_cast<Word>(p.innerCount)) {
        return false;
    }
    Word reductions = 0;
    for (int i = 0; i < p.reductionCells; ++i)
        reductions +=
            m.memory().read(reductionBase + static_cast<Addr>(i) * 64);
    return reductions ==
           (p.reductionCells > 0 ? static_cast<Word>(p.outerIters) : 0);
}

SciParams
sciBarnes()
{
    SciParams p;
    p.name = "barnes";
    p.outerIters = 96;
    p.frontCycles = 900;
    p.backCycles = 150;
    p.privateWords = 24;
    p.sharedReads = 4;
    p.innerCount = 4;
    p.innerCycles = 25;
    p.sharedCells = 64;
    p.reductionCells = 2;
    p.reductionCycles = 110;
    p.seed = 11;
    return p;
}

SciParams
sciFmm()
{
    SciParams p;
    p.name = "fmm";
    p.outerIters = 96;
    p.frontCycles = 1100;
    p.backCycles = 150;
    p.privateWords = 28;
    p.sharedReads = 6;
    p.innerCount = 3;
    p.innerCycles = 30;
    p.sharedCells = 96;
    p.reductionCells = 2;
    p.reductionCycles = 20;
    p.seed = 13;
    return p;
}

SciParams
sciMoldyn()
{
    SciParams p;
    p.name = "moldyn";
    p.outerIters = 96;
    p.frontCycles = 1000;
    p.backCycles = 100;
    p.privateWords = 20;
    p.sharedReads = 2;
    p.innerCount = 3;
    p.innerCycles = 20;
    p.sharedCells = 32;
    p.reductionCells = 1;
    p.reductionCycles = 140;
    p.seed = 17;
    return p;
}

SciParams
sciSwim()
{
    SciParams p;
    p.name = "swim";
    p.outerIters = 80;
    p.frontCycles = 2200;
    p.backCycles = 200;
    p.privateWords = 40;
    p.sharedReads = 2;
    p.innerCount = 1;
    p.innerCycles = 15;
    p.sharedCells = 16;
    p.reductionCells = 2;
    p.reductionCycles = 6;
    p.seed = 19;
    return p;
}

SciParams
sciTomcatv()
{
    SciParams p;
    p.name = "tomcatv";
    p.outerIters = 80;
    p.frontCycles = 1800;
    p.backCycles = 200;
    p.privateWords = 36;
    p.sharedReads = 2;
    p.innerCount = 2;
    p.innerCycles = 15;
    p.sharedCells = 16;
    p.reductionCells = 2;
    p.reductionCycles = 45;
    p.seed = 23;
    return p;
}

SciParams
sciWater()
{
    SciParams p;
    p.name = "water";
    p.outerIters = 96;
    p.frontCycles = 800;
    p.backCycles = 120;
    p.privateWords = 22;
    p.sharedReads = 3;
    p.innerCount = 4;
    p.innerCycles = 22;
    p.sharedCells = 40;
    p.reductionCells = 2;
    p.reductionCycles = 70;
    p.seed = 29;
    return p;
}

} // namespace tmsim

#include "workloads/kernel_mp3d.hh"

namespace tmsim {

Word
Mp3dKernel::advance(Word pos)
{
    return pos * 6364136223846793005ull + 1442695040888963407ull;
}

void
Mp3dKernel::init(Machine& m, int /* n_threads */)
{
    BackingStore& mem = m.memory();
    posBase = mem.allocate(static_cast<Addr>(p.particles) * wordBytes, 64);
    cellBase = mem.allocate(static_cast<Addr>(cells) * 64, 64);
    momentumAddr = mem.allocate(64, 64);
    for (int i = 0; i < p.particles; ++i) {
        mem.write(posBase + static_cast<Addr>(i) * wordBytes,
                  static_cast<Word>(i) * 2654435761ull + 12345);
    }
}

SimTask
Mp3dKernel::thread(TxThread& t, int tid, int n_threads)
{
    // Static partition of the particle array.
    const int lo = p.particles * tid / n_threads;
    const int hi = p.particles * (tid + 1) / n_threads;

    for (int step = 0; step < p.steps; ++step) {
        for (int base = lo; base < hi; base += batch) {
            const int end = std::min(base + batch, hi);
            co_await t.atomic([&](TxThread& tx) -> SimTask {
                Word localMomentum = 0;
                std::vector<Addr> collisions;

                // Move phase: long, conflict-free particle physics on
                // the thread's own partition. Collisions are gathered
                // and applied at the end -- the paper's motivating
                // structure: the conflict-prone shared updates sit at
                // the END of the long outer transaction, so a conflict
                // under flattening re-executes everything.
                for (int i = base; i < end; ++i) {
                    Addr pa = posBase + static_cast<Addr>(i) * wordBytes;
                    Word pos = co_await tx.ld(pa);
                    co_await tx.work(
                        static_cast<std::uint64_t>(moveCycles));
                    Word npos = advance(pos);
                    co_await tx.st(pa, npos);
                    localMomentum += momentumOf(npos);
                    if (collides(npos)) {
                        collisions.push_back(
                            cellBase +
                            static_cast<Addr>(
                                npos % static_cast<Word>(cells)) *
                                64);
                    }
                }

                // Shared-counter update: closed-nested by default;
                // optionally open-nested with compensation (the
                // commutative-reduction recipe: the update commits
                // immediately and a handler subtracts it again if the
                // enclosing transaction rolls back).
                auto reduce = [&](TxThread& txo, Addr addr, Word delta,
                                  std::uint64_t cycles) -> SimTask {
                    if (!p.openReductions) {
                        co_await txo.atomic(
                            [&](TxThread& ti) -> SimTask {
                                Word c = co_await ti.ld(addr);
                                co_await ti.work(cycles);
                                co_await ti.st(addr, c + delta);
                            });
                        co_return;
                    }
                    co_await txo.atomicOpen(
                        [&](TxThread& ti) -> SimTask {
                            Word c = co_await ti.ld(addr);
                            co_await ti.work(cycles);
                            co_await ti.st(addr, c + delta);
                        });
                    auto compensate = [addr,
                                       delta](TxThread& th) -> SimTask {
                        co_await th.atomicOpen(
                            [&](TxThread& ti) -> SimTask {
                                Word c = co_await ti.ld(addr);
                                co_await ti.st(addr, c - delta);
                            });
                    };
                    co_await txo.onViolation(
                        [compensate](TxThread& th, const ViolationInfo&,
                                     const std::vector<Word>&)
                            -> Task<VioAction> {
                            co_await compensate(th);
                            co_return VioAction::Proceed;
                        });
                    co_await txo.onAbort(
                        [compensate](TxThread& th,
                                     const std::vector<Word>&) -> SimTask {
                            co_await compensate(th);
                        });
                };

                // Collision phase: updates of shared cell occupancy
                // counters.
                for (Addr cell : collisions) {
                    co_await reduce(
                        tx, cell, 1,
                        static_cast<std::uint64_t>(collideCycles));
                }

                // Global momentum reduction at the very end of the
                // outer transaction: the flattening worst case.
                co_await reduce(
                    tx, momentumAddr, localMomentum,
                    static_cast<std::uint64_t>(momentumCycles));
            });
        }
    }
}

bool
Mp3dKernel::verify(Machine& m, int /* n_threads */)
{
    // Host-side reference: the physics is deterministic per particle.
    std::vector<Word> cellRef(static_cast<size_t>(cells), 0);
    Word momentumRef = 0;
    for (int i = 0; i < p.particles; ++i) {
        Word pos = static_cast<Word>(i) * 2654435761ull + 12345;
        for (int s = 0; s < p.steps; ++s) {
            pos = advance(pos);
            momentumRef += momentumOf(pos);
            if (collides(pos))
                ++cellRef[static_cast<size_t>(
                    pos % static_cast<Word>(cells))];
        }
    }
    for (int c = 0; c < cells; ++c) {
        if (m.memory().read(cellBase + static_cast<Addr>(c) * 64) !=
            cellRef[static_cast<size_t>(c)]) {
            return false;
        }
    }
    for (int i = 0; i < p.particles; ++i) {
        Word expect = static_cast<Word>(i) * 2654435761ull + 12345;
        for (int s = 0; s < p.steps; ++s)
            expect = advance(expect);
        if (m.memory().read(posBase + static_cast<Addr>(i) * wordBytes) !=
            expect) {
            return false;
        }
    }
    return m.memory().read(momentumAddr) == momentumRef;
}

} // namespace tmsim

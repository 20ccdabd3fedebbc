#include "workloads/kernel_condsync.hh"

namespace tmsim {

void
CondSyncKernel::init(Machine& m, int n_threads)
{
    workerCount = n_threads - 1;
    sched = std::make_unique<CondScheduler>(m.memory(),
                                            std::max(workerCount, 1));
    const int pairs = pairsFor(n_threads);
    slots.clear();
    received.assign(static_cast<size_t>(std::max(pairs, 1)), {});
    for (int i = 0; i < pairs; ++i) {
        Addr s = m.memory().allocate(64, 64);
        m.memory().write(s, 0);
        slots.push_back(s);
    }
}

SimTask
CondSyncKernel::producer(TxThread& t, int worker, Addr slot)
{
    const int pair = worker / 2;
    for (int i = 1; i <= p.itemsPerPair; ++i) {
        const Word item = static_cast<Word>(pair) * 10000 +
                          static_cast<Word>(i);
        const std::uint64_t produceWork =
            static_cast<std::uint64_t>(workCycles) *
            static_cast<std::uint64_t>(produceMult);
        if (p.useScheduler) {
            co_await t.atomic([&](TxThread& tx) -> SimTask {
                co_await sched->loadOrRetry(tx, worker, slot,
                                            [](Word w) { return w == 0; });
                co_await tx.work(produceWork);
                co_await tx.st(slot, item);
            });
        } else {
            for (;;) {
                TxOutcome out =
                    co_await t.atomic([&](TxThread& tx) -> SimTask {
                        Word v = co_await tx.ld(slot);
                        if (v != 0)
                            co_await tx.cpu().xabort(1); // poll again
                        co_await tx.work(produceWork);
                        co_await tx.st(slot, item);
                    });
                if (out.committed())
                    break;
            }
        }
    }
}

SimTask
CondSyncKernel::consumer(TxThread& t, int worker, Addr slot, int pair)
{
    for (int i = 0; i < p.itemsPerPair; ++i) {
        Word got = 0;
        if (p.useScheduler) {
            co_await t.atomic([&](TxThread& tx) -> SimTask {
                got = co_await sched->loadOrRetry(
                    tx, worker, slot, [](Word w) { return w != 0; });
                co_await tx.work(
                    static_cast<std::uint64_t>(workCycles));
                co_await tx.st(slot, 0);
            });
        } else {
            for (;;) {
                TxOutcome out =
                    co_await t.atomic([&](TxThread& tx) -> SimTask {
                        Word v = co_await tx.ld(slot);
                        if (v == 0)
                            co_await tx.cpu().xabort(1);
                        got = v;
                        co_await tx.work(
                            static_cast<std::uint64_t>(workCycles));
                        co_await tx.st(slot, 0);
                    });
                if (out.committed())
                    break;
            }
        }
        received[static_cast<size_t>(pair)].push_back(got);
    }
}

SimTask
CondSyncKernel::thread(TxThread& t, int tid, int n_threads)
{
    if (tid == 0) {
        if (p.useScheduler)
            co_await sched->schedulerBody(t, workerCount);
        co_return; // polling variant: CPU 0 idles for comparability
    }

    const int worker = tid - 1;
    if (p.useScheduler)
        sched->addWorker(worker, &t);

    const int pairs = pairsFor(n_threads);
    const int pair = worker / 2;
    if (pair < pairs) {
        if (worker % 2 == 0)
            co_await producer(t, worker, slots[static_cast<size_t>(pair)]);
        else
            co_await consumer(t, worker, slots[static_cast<size_t>(pair)],
                              pair);
    }
    if (p.useScheduler)
        co_await sched->workerDone(t);
}

bool
CondSyncKernel::verify(Machine& m, int n_threads)
{
    const int pairs = pairsFor(n_threads);
    for (int pr = 0; pr < pairs; ++pr) {
        const auto& got = received[static_cast<size_t>(pr)];
        if (got.size() != static_cast<size_t>(p.itemsPerPair))
            return false;
        for (int i = 0; i < p.itemsPerPair; ++i) {
            if (got[static_cast<size_t>(i)] !=
                static_cast<Word>(pr) * 10000 + static_cast<Word>(i + 1)) {
                return false;
            }
        }
        if (m.memory().read(slots[static_cast<size_t>(pr)]) != 0)
            return false;
    }
    return true;
}

} // namespace tmsim

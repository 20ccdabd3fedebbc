#include "workloads/kernel_iobench.hh"

namespace tmsim {

void
IoBenchKernel::init(Machine& m, int n_threads)
{
    log = std::make_unique<TxLogDevice>(TxLogDevice::create(
        m.memory(),
        static_cast<size_t>(n_threads * p.msgsPerThread * msgWords) +
            64));
    io = std::make_unique<TxIo>(*log);
    privBase.clear();
    for (int t = 0; t < n_threads; ++t)
        privBase.push_back(m.memory().allocate(16 * wordBytes, 64));
}

SimTask
IoBenchKernel::thread(TxThread& t, int tid, int /* n_threads */)
{
    const Addr priv = privBase[static_cast<size_t>(tid)];
    for (int i = 0; i < p.msgsPerThread; ++i) {
        std::vector<Word> record;
        record.reserve(static_cast<size_t>(msgWords));
        record.push_back(static_cast<Word>(tid + 1) * 1000000 +
                         static_cast<Word>(i));
        for (int w = 1; w < msgWords; ++w)
            record.push_back(static_cast<Word>(w));

        auto body = [&](TxThread& tx) -> SimTask {
            co_await tx.work(static_cast<std::uint64_t>(computeCycles));
            Word v = co_await tx.ld(priv);
            co_await tx.st(priv, v + 1);
            if (p.transactional)
                co_await io->txWrite(tx, record);
            else
                co_await io->directWrite(tx, record);
        };
        if (p.transactional)
            co_await t.atomic(body);
        else
            co_await t.serializedAtomic(body);
    }
}

bool
IoBenchKernel::verify(Machine& m, int n_threads)
{
    auto words = log->contents(m.memory());
    const size_t total = static_cast<size_t>(n_threads) *
                         static_cast<size_t>(p.msgsPerThread) *
                         static_cast<size_t>(msgWords);
    if (words.size() != total)
        return false;

    // Records must be contiguous (atomic appends) and complete: count
    // per-thread messages via the tag word.
    std::vector<int> counts(static_cast<size_t>(n_threads) + 1, 0);
    for (size_t off = 0; off < words.size();
         off += static_cast<size_t>(msgWords)) {
        Word tag = words[off] / 1000000;
        if (tag < 1 || tag > static_cast<Word>(n_threads))
            return false;
        for (int w = 1; w < msgWords; ++w) {
            if (words[off + static_cast<size_t>(w)] !=
                static_cast<Word>(w)) {
                return false;
            }
        }
        ++counts[static_cast<size_t>(tag)];
    }
    for (int t = 1; t <= n_threads; ++t) {
        if (counts[static_cast<size_t>(t)] != p.msgsPerThread)
            return false;
    }
    // Per-thread private counters must match the committed messages.
    for (int t = 0; t < n_threads; ++t) {
        if (m.memory().read(privBase[static_cast<size_t>(t)]) !=
            static_cast<Word>(p.msgsPerThread)) {
            return false;
        }
    }
    return true;
}

} // namespace tmsim

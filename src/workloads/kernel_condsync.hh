/**
 * @file
 * The paper's section-7.3 conditional-synchronisation benchmark:
 * producer/consumer pairs exchanging items through single-slot
 * channels. The scheduler variant blocks with watch/retry (figure 3);
 * the baseline spins with abort-and-retry polling transactions.
 */

#ifndef TMSIM_WORKLOADS_KERNEL_CONDSYNC_HH
#define TMSIM_WORKLOADS_KERNEL_CONDSYNC_HH

#include <memory>

#include "runtime/cond_sched.hh"
#include "workloads/harness.hh"

namespace tmsim {

struct CondSyncParams
{
    /** Items transferred per producer/consumer pair. */
    int itemsPerPair = 12;
    /** true: figure-3 watch/retry scheduler; false: polling. */
    bool useScheduler = true;
};

/**
 * CPU 0 hosts the scheduler (idle in the polling variant, keeping the
 * machine sizes comparable); the remaining CPUs form pairs: odd CPUs
 * produce, even CPUs consume.
 */
class CondSyncKernel : public Kernel
{
  public:
    explicit CondSyncKernel(CondSyncParams params = CondSyncParams{})
        : p(params)
    {
    }

    std::string
    name() const override
    {
        return p.useScheduler ? "condsync-sched" : "condsync-poll";
    }

    void init(Machine& m, int n_threads) override;
    SimTask thread(TxThread& t, int tid, int n_threads) override;
    bool verify(Machine& m, int n_threads) override;

    /** Items actually transferred (for throughput reporting). */
    int itemsTransferred(int n_threads) const
    {
        return pairsFor(n_threads) * p.itemsPerPair;
    }

  private:
    /** ALU cycles of work per consumed item. */
    static constexpr int workCycles = 150;
    /** Production is slower than consumption by this factor, so
     *  consumers genuinely wait (the interesting case for blocking
     *  vs. polling synchronisation). */
    static constexpr int produceMult = 5;

    static int pairsFor(int n_threads) { return (n_threads - 1) / 2; }

    SimTask producer(TxThread& t, int worker, Addr slot);
    SimTask consumer(TxThread& t, int worker, Addr slot, int pair);

    CondSyncParams p;
    std::unique_ptr<CondScheduler> sched;
    std::vector<Addr> slots;
    std::vector<std::vector<Word>> received;
    int workerCount = 0;
};

} // namespace tmsim

#endif // TMSIM_WORKLOADS_KERNEL_CONDSYNC_HH

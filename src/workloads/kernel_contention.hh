/**
 * @file
 * Adversarial high-contention kernel for exercising contention
 * management: every thread repeatedly read-modify-writes the SAME few
 * hot words, which all live on one cache line, inside short outer
 * transactions. Nearly every transaction conflicts with every
 * concurrent one, so which transaction wins — and how losers are
 * rescheduled — is decided almost entirely by the contention manager.
 * Throughput and the consecutive-abort distribution under this kernel
 * are the fairness/starvation observables the policy ablation sweeps.
 */

#ifndef TMSIM_WORKLOADS_KERNEL_CONTENTION_HH
#define TMSIM_WORKLOADS_KERNEL_CONTENTION_HH

#include "workloads/harness.hh"

namespace tmsim {

struct ContentionParams
{
    /** The first longThreads threads run their hold phase longFactor
     *  times longer. A long transaction among short ones is the
     *  classic lazy-commit starvation victim: every short commit
     *  violates it, and age-order arbitration has no lever at lazy
     *  commit time. Off by default: the throughput sweep and the
     *  fairness regression keep threads symmetric (a 6x-long window
     *  outlasts even the guard's commit-yield slot). */
    int longThreads = 0;
};

class ContentionKernel : public Kernel
{
  public:
    explicit ContentionKernel(ContentionParams params = ContentionParams{})
        : p(params)
    {
    }

    std::string
    name() const override
    {
        return p.longThreads > 0 ? "contend-mixed" : "contend";
    }
    void init(Machine& m, int n_threads) override;
    SimTask thread(TxThread& t, int tid, int n_threads) override;
    bool verify(Machine& m, int n_threads) override;

  private:
    /** Outer transactions per thread, back to back: every thread
     *  hammers the hot line (the starvation-adversarial setting). */
    static constexpr int itersPerThread = 32;
    /** Hot words per transaction, all on one shared line. */
    static constexpr int hotWords = 2;
    static_assert(hotWords * wordBytes <= 64);
    /** ALU cycles between the read and the write of each hot word —
     *  widens the conflict window so overlap is near-certain. */
    static constexpr int holdCycles = 40;
    /** How much longer a long thread holds (see longThreads). */
    static constexpr int longFactor = 6;

    ContentionParams p;
    Addr hotBase = 0; ///< the single contended line
};

} // namespace tmsim

#endif // TMSIM_WORKLOADS_KERNEL_CONTENTION_HH

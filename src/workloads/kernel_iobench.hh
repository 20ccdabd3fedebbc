/**
 * @file
 * The paper's section-7.2 I/O microbenchmark: every thread repeatedly
 * performs a small computation within a transaction and outputs a
 * message into a shared log.
 *
 * Transactional mode buffers the message privately and appends through
 * a commit handler (scales); the baseline serialises the whole
 * transaction around the direct "system call" (conventional HTMs
 * revert to sequential execution on I/O).
 */

#ifndef TMSIM_WORKLOADS_KERNEL_IOBENCH_HH
#define TMSIM_WORKLOADS_KERNEL_IOBENCH_HH

#include <memory>

#include "runtime/tx_io.hh"
#include "workloads/harness.hh"

namespace tmsim {

struct IoBenchParams
{
    int msgsPerThread = 16;
    /** true: commit-handler buffered output; false: serialised. */
    bool transactional = true;
};

class IoBenchKernel : public Kernel
{
  public:
    explicit IoBenchKernel(IoBenchParams params = IoBenchParams{})
        : p(params)
    {
    }

    std::string
    name() const override
    {
        return p.transactional ? "iobench-tx" : "iobench-serialized";
    }

    void init(Machine& m, int n_threads) override;
    SimTask thread(TxThread& t, int tid, int n_threads) override;
    bool verify(Machine& m, int n_threads) override;

  private:
    /** ALU cycles of work per message transaction. */
    static constexpr int computeCycles = 400;
    /** Words per log record (a tag word, then 1, 2, ...). */
    static constexpr int msgWords = 6;

    IoBenchParams p;
    std::unique_ptr<TxLogDevice> log;
    std::unique_ptr<TxIo> io;
    std::vector<Addr> privBase;
};

} // namespace tmsim

#endif // TMSIM_WORKLOADS_KERNEL_IOBENCH_HH

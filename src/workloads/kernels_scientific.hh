/**
 * @file
 * Substitute kernels for the paper's scientific benchmarks (SPECcpu
 * swim/tomcatv, SPLASH barnes/fmm/water, Java Grande moldyn).
 *
 * Each original was parallelised in the paper by wrapping loop bodies
 * in outer transactions, with reduction-variable / shared-cell updates
 * as closed-nested inner transactions. The kernels here reproduce that
 * transactional structure with tunable dimensions: outer length,
 * private streaming traffic, inner-transaction count and placement,
 * and the size of the shared conflict domain. Figure 5's shape depends
 * on exactly these dimensions, not on the original codes' arithmetic.
 */

#ifndef TMSIM_WORKLOADS_KERNELS_SCIENTIFIC_HH
#define TMSIM_WORKLOADS_KERNELS_SCIENTIFIC_HH

#include "workloads/harness.hh"

namespace tmsim {

/** Transactional-structure parameters of one scientific kernel. */
struct SciParams
{
    std::string name;
    /** Outer transactions in total (divided among threads). */
    int outerIters = 128;
    /** ALU work at the start of each outer transaction. */
    int frontCycles = 800;
    /** ALU work at the end of each outer transaction. */
    int backCycles = 200;
    /** Private words streamed (read+write) per outer transaction. */
    int privateWords = 24;
    /** Shared read-mostly words read per outer transaction. */
    int sharedReads = 4;
    /** Inner (closed-nested) transactions per outer transaction. */
    int innerCount = 2;
    /** ALU work inside each inner transaction. */
    int innerCycles = 20;
    /** Number of shared cells the inner transactions update. The
     *  smaller the domain, the higher the conflict rate. */
    int sharedCells = 128;
    /** Contended reduction variables updated by one closed-nested
     *  transaction at the very end of each outer transaction (0 =
     *  none). This is the paper's "update reduction variables within
     *  larger transactions" pattern. */
    int reductionCells = 0;
    /** ALU cycles inside the reduction transaction. */
    int reductionCycles = 30;
    /** RNG seed (per-thread streams derive from it). */
    std::uint64_t seed = 1;
};

/** The parameterised scientific kernel. */
class SciKernel : public Kernel
{
  public:
    explicit SciKernel(SciParams params) : p(std::move(params)) {}

    std::string name() const override { return p.name; }
    void init(Machine& m, int n_threads) override;
    SimTask thread(TxThread& t, int tid, int n_threads) override;
    bool verify(Machine& m, int n_threads) override;

    const SciParams& params() const { return p; }

  private:
    int itersFor(int tid, int n_threads) const;

    SciParams p;
    Addr cellsBase = 0;
    Addr reductionBase = 0;
    Addr sharedReadBase = 0;
    std::vector<Addr> privateBase;
};

/** Presets reproducing the paper's benchmark suite structure. */
SciParams sciBarnes();
SciParams sciFmm();
SciParams sciMoldyn();
SciParams sciSwim();
SciParams sciTomcatv();
SciParams sciWater();

} // namespace tmsim

#endif // TMSIM_WORKLOADS_KERNELS_SCIENTIFIC_HH

/**
 * @file
 * Workload harness: runs a kernel on a configured Machine with one
 * TxThread per CPU, verifies the result against a sequential
 * reference, and extracts the numbers the benches report.
 */

#ifndef TMSIM_WORKLOADS_HARNESS_HH
#define TMSIM_WORKLOADS_HARNESS_HH

#include <memory>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "runtime/tx_thread.hh"
#include "sim/parse.hh"

namespace tmsim {

/** Aggregate result of one workload run. */
struct RunResult
{
    std::string kernel;
    std::string htm;
    int threads = 0;
    Tick cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t commits = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t violationsTaken = 0;
    std::uint64_t busBusyCycles = 0;
    bool verified = false;
};

/** A parallel workload with built-in verification. */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    virtual std::string name() const = 0;

    /** Build the initial memory image (host-side, untimed). */
    virtual void init(Machine& m, int n_threads) = 0;

    /** Body of thread @p tid of @p n_threads. */
    virtual SimTask thread(TxThread& t, int tid, int n_threads) = 0;

    /** Check the final memory image against the expected result. */
    virtual bool verify(Machine& m, int n_threads) = 0;

    /**
     * Minimum simulated address-space size this kernel's configured
     * dataset needs (0 = any). runKernel raises its mem_bytes to this;
     * with the sparse backing store, a large hint costs only the
     * chunks actually touched.
     */
    virtual Addr memBytesHint() const { return 0; }
};

/** Run @p kernel with @p n_threads CPUs under @p htm. With
 *  @p stats_out, the machine's full stats registry merges into it
 *  after the run (sweep/campaign aggregation). */
RunResult runKernel(Kernel& kernel, const HtmConfig& htm, int n_threads,
                    Addr mem_bytes = 64ull * 1024 * 1024,
                    StatsRegistry* stats_out = nullptr);

/** The Machine runKernel builds for @p kernel: @p n_threads CPUs
 *  under @p htm, with @p mem_bytes raised to its memBytesHint(). */
MachineConfig kernelMachineConfig(const Kernel& kernel,
                                  const HtmConfig& htm, int n_threads,
                                  Addr mem_bytes = 64ull * 1024 * 1024);

/** runKernel's run on a Machine the caller built (from
 *  kernelMachineConfig) and keeps, e.g. to write its trace: init, one
 *  TxThread per CPU, run, summarise, verify. */
RunResult runKernelOn(Machine& m, Kernel& kernel);

/** Names of every bundled kernel, in listing order. */
const std::vector<std::string>& namedKernels();

/**
 * Bundled-kernel construction knobs (CLI surface). Negative values
 * mean "kernel default" so tools can pass a partially filled struct.
 */
struct KernelParams
{
    /** Parameterises the 'fuzz' kernel's program draw. */
    std::uint64_t fuzzSeed = 1;
    // specjbb-* scaling knobs (see JbbParams).
    int jbbOps = -1;
    int jbbCustomers = -1;
    int jbbStockItems = -1;
    int jbbWarehouses = -1;
    int jbbThinkCycles = -1;
    int jbbRemotePct = -1;
    double zipfS = -1.0;
};

/** One of the eight kernel flags (--fuzz-seed, --jbb-*, --zipf) into
 *  @p kp; false for any other flag (see walkArgs in sim/parse.hh). */
bool parseKernelFlag(const std::string& arg, const NextArg& next,
                     KernelParams& kp);

/** Help lines for the kernel flags, in the tools' usage layout. */
void printKernelFlagsHelp();

/** Instantiate a bundled kernel by name (nullptr if unknown). */
std::unique_ptr<Kernel> makeNamedKernel(const std::string& name,
                                        const KernelParams& kp = {});

/** One bar of the paper's figure 5. */
struct Fig5Row
{
    std::string name;
    /** Speedup of full nesting over flattening at n threads. */
    double nestingSpeedup = 0.0;
    /** Speedup of the nested version over 1-thread execution. */
    double nestedVsSeq = 0.0;
    /** Speedup of the flattened version over 1-thread execution. */
    double flatVsSeq = 0.0;
    RunResult nested;
    RunResult flat;
    RunResult seq;
    bool allVerified = false;
};

/** Factory type so each configuration gets a fresh kernel instance. */
using KernelFactory = std::function<std::unique_ptr<Kernel>()>;

/** Run seq/flat/nested for one kernel and compute the figure-5 bar. */
Fig5Row fig5Row(const KernelFactory& make, int n_threads,
                const HtmConfig& base = HtmConfig::paperLazy());

} // namespace tmsim

#endif // TMSIM_WORKLOADS_HARNESS_HH

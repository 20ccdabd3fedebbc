/**
 * @file
 * Simulator adapter of the fuzz walk (check/fuzz_walk): executes a
 * FuzzProgram on a Machine while logging the chip-global serialization
 * order (via the commit-order hooks) and every checked access each
 * committed unit performed. The resulting ObservedRun is the input to
 * check/oracle.
 */

#ifndef TMSIM_CHECK_FUZZ_INTERP_HH
#define TMSIM_CHECK_FUZZ_INTERP_HH

#include <vector>

#include "check/fuzz_walk.hh"
#include "core/machine.hh"
#include "runtime/tx_thread.hh"

namespace tmsim {

/**
 * Executes one FuzzProgram under one HtmConfig. Single-shot: construct,
 * then either call run() (owns the Machine) or drive the attach /
 * threadBody / finish pieces from an external harness (kernel_fuzz).
 */
class FuzzInterp : public FuzzWalk<FuzzInterp, TxThread>
{
  public:
    static constexpr Tick defaultMaxTicks = 4'000'000;

    FuzzInterp(const FuzzProgram& program, const HtmConfig& htm);

    /** Build a machine, execute the program, return the observation.
     *  With @p stats_out, the machine's stats registry is merged into
     *  it after the run (campaign aggregation). */
    ObservedRun run(Tick max_ticks = defaultMaxTicks,
                    StatsRegistry* stats_out = nullptr);

    // --- pieces for external harnesses (threadBody is the walk's) ---

    /** Allocate the region layout, write the initial image, install
     *  the commit-order hooks. Call once before spawning threads. */
    void attach(Machine& m);

    /** Validate recorder consistency and snapshot the final memory
     *  image. @p hang marks a run cut off by the tick limit. */
    ObservedRun finish(Machine& m, bool hang);

  private:
    friend class FuzzWalk<FuzzInterp, TxThread>;

    // --- ISA forwards: the TxThread/Cpu awaitables themselves ---
    WordTask ld(TxThread& t, Addr a) { return t.ld(a); }
    SimTask st(TxThread& t, Addr a, Word v) { return t.st(a, v); }
    SimTask release(TxThread& t, Addr a) { return t.cpu().release(a); }
    WordTask imld(TxThread& t, Addr a) { return t.cpu().imld(a); }
    SimTask imst(TxThread& t, Addr a, Word v) { return t.cpu().imst(a, v); }
    SimTask imstid(TxThread& t, Addr a, Word v)
    {
        return t.cpu().imstid(a, v);
    }
    SimTask work(TxThread& t, Word n) { return t.work(n); }
    SimTask xabort(TxThread& t, Word code) { return t.cpu().xabort(code); }
    SimTask onCommit(TxThread& t, Addr a, Word v);
    SimTask onViolation(TxThread& t, Addr a);
    SimTask onAbort(TxThread& t, Addr a, Word v);
    Task<TxOutcome> atomic(TxThread& t, bool open, TxBody body)
    {
        return open ? t.atomicOpen(std::move(body))
                    : t.atomic(std::move(body));
    }
    SimTask hiddenStore(TxThread& t, Addr a, Word v) { return t.st(a, v); }

    // --- what the simulator decides ---
    SimTask nakedLoad(TxThread& t, Addr a);
    SimTask nakedStore(TxThread& t, Addr a, Word v);
    void commitUnit(TxThread& t, ObservedUnit::Kind kind,
                    std::vector<ObservedAccess> accesses);
    bool openCommitsMemory() const
    {
        return htmCfg.nesting == NestingMode::Full;
    }
    void unwound(TxThread& t, int tid, bool open, int depth);
    Addr trackUnitMask() const;

    void onSerialized(CpuId cpu, bool open);
    void onCancelled(CpuId cpu);
    /** True if @p cpu holds a serialized-but-unfilled unit. */
    bool hasPending(CpuId cpu) const;

    HtmConfig htmCfg;
    Addr lineBytes = 32;
    ObservedRun rec;
    /** Per-cpu index into rec.units of the serialized-but-unfilled
     *  unit, or -1. A thread is sequential, so at most one. */
    std::vector<int> pending;
};

} // namespace tmsim

#endif // TMSIM_CHECK_FUZZ_INTERP_HH

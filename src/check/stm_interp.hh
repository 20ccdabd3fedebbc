/**
 * @file
 * STM adapter of the fuzz walk (check/fuzz_walk): executes the same
 * FuzzProgram that check/fuzz_interp runs on the simulator, but on
 * real host threads over an StmRuntime, and reconstructs a global
 * serialization order from each unit's commit key (stm/stm_thread's
 * StmCommitInfo). The resulting ObservedRun feeds the same
 * serializability oracle (check/oracle) — the STM is scheduled
 * nondeterministically, so the oracle's golden sequential replay of
 * the *observed* order is the correctness contract, not bit-identical
 * commit order across engines or runs.
 */

#ifndef TMSIM_CHECK_STM_INTERP_HH
#define TMSIM_CHECK_STM_INTERP_HH

#include <coroutine>
#include <functional>
#include <utility>
#include <vector>

#include "check/fuzz_walk.hh"
#include "stm/stm_thread.hh"

namespace tmsim {

class StatsRegistry;

/**
 * Executes one FuzzProgram on the STM backend. Single-shot: construct,
 * call run() once. Thread t of the program maps to one host thread
 * owning one StmThread. Every op completes before its forward returns,
 * so each walk coroutine runs inline and never suspends.
 */
class StmFuzzInterp : public FuzzWalk<StmFuzzInterp, StmThread>
{
  public:
    explicit StmFuzzInterp(const FuzzProgram& program,
                           StmConfig cfg = StmConfig{});

    /** Execute the program and return the observation. With
     *  @p stats_out, the runtime's stm.* stats merge into it. */
    ObservedRun run(StatsRegistry* stats_out = nullptr);

  private:
    friend class FuzzWalk<StmFuzzInterp, StmThread>;

    /** Awaitable for an op that completed before its forward
     *  returned: co_await never suspends and yields @p value. */
    template <typename T>
    struct Ready
    {
        T value;

        bool await_ready() const noexcept { return true; }
        void await_suspend(std::coroutine_handle<>) const noexcept {}
        T await_resume() { return std::move(value); }
    };
    using Now = std::suspend_never;

    struct KeyedUnit
    {
        StmCommitInfo key;
        ObservedUnit unit;
    };

    // --- ISA forwards: each op has completed when they return ---
    Ready<Word> ld(StmThread& t, Addr a) { return {t.txLoad(a)}; }
    Now st(StmThread& t, Addr a, Word v) { t.txStore(a, v); return {}; }
    Now release(StmThread& t, Addr a) { t.release(a); return {}; }
    Ready<Word> imld(StmThread& t, Addr a) { return {t.imld(a)}; }
    Now imst(StmThread& t, Addr a, Word v) { t.imst(a, v); return {}; }
    Now imstid(StmThread& t, Addr a, Word v) { t.imstid(a, v); return {}; }
    Now work(StmThread& t, Word n);
    Now xabort(StmThread& t, Word code) { t.xabort(code); return {}; }
    Now onCommit(StmThread& t, Addr a, Word v);
    Now onViolation(StmThread& t, Addr a);
    Now onAbort(StmThread& t, Addr a, Word v);
    Ready<StmTxOutcome> atomic(StmThread& t, bool open,
                               const std::function<SimTask(StmThread&)>&
                                   body);
    Now hiddenStore(StmThread& t, Addr a, Word v)
    {
        t.nakedStore(a, v);
        return {};
    }

    // --- what the STM decides ---
    Now nakedLoad(StmThread& t, Addr a);
    Now nakedStore(StmThread& t, Addr a, Word v);
    void commitUnit(StmThread& t, ObservedUnit::Kind kind,
                    std::vector<ObservedAccess> accesses);
    /** The STM nests fully: every open-nested level commits memory. */
    bool openCommitsMemory() const { return true; }
    /** Nothing to attach: an open-nested commit is recorded as soon
     *  as its atomicOpen() returns, and no violation can reach the
     *  thread between its xcommit and that return. */
    void unwound(StmThread&, int, bool, int) {}
    Addr trackUnitMask() const { return ~(wordBytes - 1); }

    StmConfig cfg;
    /** Per-tid units in program order, each with its commit key. */
    std::vector<std::vector<KeyedUnit>> keyed;
};

} // namespace tmsim

#endif // TMSIM_CHECK_STM_INTERP_HH

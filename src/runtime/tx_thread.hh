/**
 * @file
 * TxThread: the software conventions of paper sections 4-5 layered on
 * the raw ISA — TCB stack management, commit/violation/abort handler
 * stacks, and the atomic()/atomicOpen() retry drivers that language
 * implementations build on.
 *
 * Calibrated fast paths (verified by tests, reported in paper sec. 7):
 *   - transaction start (TCB allocation): 6 instructions
 *   - commit without handlers:           10 instructions
 *   - rollback without handlers:          6 instructions
 *   - handler registration (no args):     9 instructions
 */

#ifndef TMSIM_RUNTIME_TX_THREAD_HH
#define TMSIM_RUNTIME_TX_THREAD_HH

#include <functional>
#include <optional>
#include <vector>

#include "core/cpu.hh"
#include "runtime/handler_stack.hh"
#include "runtime/thread_area.hh"
#include "sim/rng.hh"
#include "sim/task.hh"

namespace tmsim {

class TxThread;

/** A transaction body: re-invoked from scratch on every retry. A
 *  rollback leaves it by a jump that a try/catch in the body cannot
 *  see; destructors in its frames still run. */
using TxBody = std::function<SimTask(TxThread&)>;

/** Information handed to violation handlers (xvaddr / xvcurrent). */
struct ViolationInfo
{
    Addr vaddr;
    std::uint32_t mask;
};

/** What a violation handler wants done after it ran. */
enum class VioAction
{
    /** Fall through to the default: roll back and retry. */
    Proceed,
    /** Resume the interrupted transaction (xvret to xvpc). */
    Continue,
};

using CommitHandlerFn =
    std::function<SimTask(TxThread&, const std::vector<Word>&)>;
using AbortHandlerFn = CommitHandlerFn;
using ViolationHandlerFn = std::function<Task<VioAction>(
    TxThread&, const ViolationInfo&, const std::vector<Word>&)>;

/** Why atomic() returned. */
enum class TxResult
{
    Committed,
    Aborted,
};

struct TxOutcome
{
    TxResult result = TxResult::Committed;
    Word abortCode = 0;
    int retries = 0;

    bool committed() const { return result == TxResult::Committed; }
};

/**
 * One logical software thread bound 1:1 to a Cpu. Installs the runtime
 * violation/abort protocols into the Cpu at construction.
 */
class TxThread
{
  public:
    /** Abort code used by retryYield(): the owning atomic() parks the
     *  thread until wake() instead of returning Aborted. */
    static constexpr Word retryYieldCode = 0x52455452; // 'RETR'

    /** Abort code reported when a handler registration would overflow
     *  its handler stack: the transaction aborts recoverably (through
     *  the normal abort-handler path) instead of killing the sim. */
    static constexpr Word handlerOverflowCode = 0x484F5646; // 'HOVF'

    /** Abort code reported when an append would run past a
     *  TxLogDevice's capacity: the writing transaction aborts
     *  recoverably and the log is left untouched. */
    static constexpr Word logFullCode = 0x4C4F4746; // 'LOGF'

    explicit TxThread(Cpu& cpu);

    TxThread(const TxThread&) = delete;
    TxThread& operator=(const TxThread&) = delete;

    Cpu& cpu() { return cpuRef; }
    EventQueue& eventQueue() { return cpuRef.eventQueue(); }
    BackingStore& memory() { return cpuRef.memory(); }
    Rng& rng() { return threadRng; }

    // --- convenience passthroughs ---
    WordTask ld(Addr a) { return cpuRef.load(a); }
    SimTask st(Addr a, Word v) { return cpuRef.store(a, v); }
    SimTask work(std::uint64_t n) { return cpuRef.exec(n); }

    // --- op-class tagging (per-class tail latency; host-side only) ---

    /** Register a named op class on the bound Cpu; the returned id is
     *  only valid for this thread's setOpClass(). */
    int registerOpClass(const std::string& name)
    {
        return cpuRef.registerOpClass(name);
    }

    /** Tag subsequent transactions started by this thread (-1 clears).
     *  Typically called right before atomic(). */
    void setOpClass(int id) { cpuRef.setOpClass(id); }

    // --- transactions ---

    /** Run @p body as a closed-nested transaction, retrying on
     *  violation until it commits or aborts. Between retries it backs
     *  off as the contention manager says, unless the Machine's
     *  HtmConfig::retryBackoff is off. */
    Task<TxOutcome> atomic(TxBody body);

    /** Run @p body as an open-nested transaction. */
    Task<TxOutcome> atomicOpen(TxBody body);

    /**
     * tryatomic/orElse: run @p body; if it aborts voluntarily, run
     * @p alt instead (violations still retry each path normally).
     */
    Task<TxOutcome> atomicOrElse(TxBody body, TxBody alt);

    /**
     * Baseline for systems without transactional I/O support: the
     * whole transaction runs while holding the global serialization
     * resource (conventional HTMs "revert to sequential execution").
     */
    Task<TxOutcome> serializedAtomic(TxBody body);

    // --- handler registration (must be inside a transaction) ---

    SimTask onCommit(CommitHandlerFn fn, std::vector<Word> args = {});
    SimTask onViolation(ViolationHandlerFn fn, std::vector<Word> args = {});
    SimTask onAbort(AbortHandlerFn fn, std::vector<Word> args = {});

    // --- conditional synchronisation support ---

    /**
     * Abort the innermost transaction and yield until wake(); the
     * owning atomic() then re-executes the body (Atomos retry).
     */
    SimTask retryYield();

    /** Wake a thread parked in retryYield(). Safe to call early. */
    void wake() { retryWaker.wake(1); }

    /** Nesting depth of live runtime frames (tests). */
    size_t frameCount() const { return frames.size(); }

  private:
    struct Frame
    {
        int hwLevel;
        TxKind kind;
        size_t chSave;
        size_t vhSave;
        size_t ahSave;
        /** The runTx that pushed this frame: where a rollback of this
         *  level jumps (the TCB's restart point). */
        std::coroutine_handle<> restart;
    };

    /** How an attempt ended without committing. */
    struct Signal
    {
        /** xabort (else a violation rollback). */
        bool abort;
        /** The xabort code. */
        Word code;
    };

    Task<TxOutcome> runTx(TxKind kind, TxBody body);
    SimTask beginTx(TxKind kind, std::coroutine_handle<> restart);
    SimTask commitSequence();
    SimTask backoff(int retries);

    SimTask violationProtocolImpl(Cpu& c);
    SimTask abortProtocolImpl(Cpu& c, Word code);

    /** Deliver @p sig to the runTx that owns the rolled-back frame
     *  @p f: record it and jump there. */
    JumpTo
    jumpToOwner(const Frame& f, Signal sig)
    {
        delivered = sig;
        return JumpTo{f.restart};
    }

    /** onCommit/onViolation/onAbort: push @p fn with @p args on
     *  @p st and charge the registration traffic; @p what names the
     *  call in the outside-a-transaction fatal. */
    template <typename Fn>
    SimTask registerHandler(HandlerStack<Fn>& st, Fn fn,
                            std::vector<Word> args, const char* what);

    /** Drop the frames of levels @p target and deeper, and every
     *  handler registered since frame @p f began (a copy, as @p f may
     *  be among the frames dropped). */
    void unwindTo(int target, Frame f);

    /** Charge the imld/alu traffic of dispatching one handler entry. */
    template <typename Fn>
    SimTask chargeDispatch(const HandlerStack<Fn>& st,
                           const typename HandlerStack<Fn>::Entry& e);

    Cpu& cpuRef;
    ThreadArea area;
    HandlerStack<CommitHandlerFn> ch;
    HandlerStack<ViolationHandlerFn> vh;
    HandlerStack<AbortHandlerFn> ah;
    std::vector<Frame> frames;
    /** Set by jumpToOwner, taken by the runTx it resumes. */
    std::optional<Signal> delivered;
    Waker retryWaker;
    Rng threadRng;
};

} // namespace tmsim

#endif // TMSIM_RUNTIME_TX_THREAD_HH

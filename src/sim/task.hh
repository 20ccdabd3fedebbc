/**
 * @file
 * Coroutine task types for simulated threads.
 *
 * All simulated software (workload bodies, runtime conventions, handlers)
 * is written as C++20 coroutines returning Task<T>. A co_await on a
 * simulator awaitable (Delay, WaitOn, memory operations) suspends the
 * whole logical thread; the EventQueue resumes it at the right tick.
 *
 * Exceptions propagate through co_await chains exactly like ordinary
 * call stacks; raw-ISA code rolls back that way, by throwing a signal
 * its own try/catch retry loop catches. A rollback of a level the
 * runtime owns is a jump instead (JumpTo): the protocol resumes the
 * suspended atomic() frame that owns the level, which then destroys the
 * abandoned body's frames innermost first (Task::abandon), as unwinding
 * would. A try/catch in the body cannot see such a rollback; RAII
 * destructors and OnUnwind guards can.
 *
 * Every operation of the simulated ISA and every cache, bus and
 * runtime step below it is a coroutine call, so frames are made and
 * freed at the rate of simulated events. A new frame reuses the memory
 * of a frame of its size class that its host thread freed before
 * (FramePool), and asks the heap only when there is none.
 */

#ifndef TMSIM_SIM_TASK_HH
#define TMSIM_SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <utility>

// Its poison macros are no-ops outside AddressSanitizer builds.
#include <sanitizer/asan_interface.h>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tmsim {

template <typename T>
class Task;

namespace detail {

/** How the suspended frames now being destroyed on this host thread
 *  die: None while no unfinished task is being destroyed. */
enum class FrameDeath
{
    None,
    /** A rollback jumped past them (Task::abandon). */
    Abandoned,
    /** Their owner dropped them unfinished (simulation teardown). */
    TornDown,
};

inline thread_local FrameDeath frameDeath = FrameDeath::None;

struct FinalAwaiter
{
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<Promise> h) noexcept
    {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
    }

    void await_resume() const noexcept {}
};

/**
 * This host thread's free lists of coroutine frames: one LIFO list per
 * 32-byte size class, up to 1 KiB. A parked block's first word links
 * it to the next one. Every block is its own ::operator new allocation
 * of its class's full size, so a frame may be freed on another thread
 * than the one that made it and parks there. The pool is constant-
 * initialised and trivially destructible, so a frame allocation reads
 * it with no TLS guard; the first miss makes a thread-local reaper
 * that frees every parked block at thread exit, after which frees go
 * straight to ::operator delete. A parked block stays ASan-poisoned
 * until it is handed out again.
 */
struct FramePool
{
    static constexpr std::size_t classBytes = 32;
    static constexpr std::size_t classes = 32;

    enum class State : unsigned char
    {
        /** No reaper yet: frees go to the heap, not to the lists. */
        Unarmed,
        /** The reaper exists: frees park. */
        Armed,
        /** The reaper ran (thread exit): everything goes to the heap. */
        Gone,
    };

    /** The size class of an @p n-byte frame (n > 0). */
    static constexpr std::size_t
    classOf(std::size_t n)
    {
        return (n - 1) / classBytes;
    }

    /** The bytes of every block of class @p c. */
    static constexpr std::size_t
    blockBytes(std::size_t c)
    {
        return (c + 1) * classBytes;
    }

    /** A fresh block of class @p c, making the reaper first if this
     *  thread has none yet. */
    void* miss(std::size_t c);

    void* head[classes];
    State state;
};

inline constinit thread_local FramePool framePool{};

struct PromiseBase
{
    /** A coroutine frame of @p n bytes, from this thread's free list
     *  for its size class when that is not empty. */
    static void*
    operator new(std::size_t n)
    {
        const std::size_t c = FramePool::classOf(n);
        if (c >= FramePool::classes)
            return ::operator new(n);
        FramePool& pool = framePool;
        void* p = pool.head[c];
        if (!p)
            return pool.miss(c);
        ASAN_UNPOISON_MEMORY_REGION(p, n);
        pool.head[c] = *static_cast<void**>(p);
        return p;
    }

    /** Park an @p n-byte frame on this thread's free list for its
     *  size class, or free it while the thread has no reaper. */
    static void
    operator delete(void* p, std::size_t n) noexcept
    {
        const std::size_t c = FramePool::classOf(n);
        if (c >= FramePool::classes)
            return ::operator delete(p, n);
        FramePool& pool = framePool;
        if (pool.state != FramePool::State::Armed)
            return ::operator delete(p, FramePool::blockBytes(c));
        *static_cast<void**>(p) = pool.head[c];
        pool.head[c] = p;
        ASAN_POISON_MEMORY_REGION(p, FramePool::blockBytes(c));
    }

    std::coroutine_handle<> continuation = nullptr;
    std::exception_ptr exception = nullptr;
    bool completed = false;

    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }

    void
    unhandled_exception()
    {
        exception = std::current_exception();
        completed = true;
    }
};

template <typename T>
struct Promise : PromiseBase
{
    std::optional<T> value;

    Task<T> get_return_object();

    void
    return_value(T v)
    {
        value = std::move(v);
        completed = true;
    }
};

template <>
struct Promise<void> : PromiseBase
{
    Task<void> get_return_object();

    void return_void() { completed = true; }
};

} // namespace detail

/**
 * An eagerly-ownable, lazily-started coroutine task.
 *
 * The Task object owns the coroutine frame. Awaiting it starts the
 * child coroutine and resumes the awaiter when the child completes
 * (symmetric transfer). Top-level tasks are started with start() and
 * polled with done().
 */
template <typename T>
class Task
{
  public:
    using promise_type = detail::Promise<T>;
    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle(h) {}

    Task(Task&& other) noexcept : handle(std::exchange(other.handle, {})) {}

    Task&
    operator=(Task&& other) noexcept
    {
        if (this != &other) {
            destroy();
            handle = std::exchange(other.handle, {});
        }
        return *this;
    }

    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;

    ~Task() { destroy(); }

    /** True once the coroutine has run to completion (or thrown). */
    bool done() const { return handle && handle.promise().completed; }

    /**
     * Destroy an unfinished task because a rollback jumped past it. Its
     * frames die innermost first, as exception unwinding would destroy
     * them, and their OnUnwind guards run.
     */
    void abandon() { destroy(detail::FrameDeath::Abandoned); }

    /** Start a top-level task (resume from the initial suspend point). */
    void
    start()
    {
        if (!handle)
            panic("start() on empty Task");
        handle.resume();
    }

    /**
     * Retrieve the result of a completed task, rethrowing any exception
     * that escaped the coroutine.
     */
    T
    result()
    {
        if (!done())
            panic("result() on unfinished Task");
        if (handle.promise().exception)
            std::rethrow_exception(handle.promise().exception);
        if constexpr (!std::is_void_v<T>)
            return std::move(*handle.promise().value);
    }

    // --- awaiter interface ---
    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle.promise().continuation = cont;
        return handle;
    }

    T
    await_resume()
    {
        if (handle.promise().exception)
            std::rethrow_exception(handle.promise().exception);
        if constexpr (!std::is_void_v<T>)
            return std::move(*handle.promise().value);
    }

  private:
    void
    destroy(detail::FrameDeath why = detail::FrameDeath::TornDown)
    {
        if (!handle)
            return;
        // The outermost unfinished frame of a chain says why the
        // suspended frames below it die; completed frames just go.
        if (handle.promise().completed ||
            detail::frameDeath != detail::FrameDeath::None) {
            handle.destroy();
        } else {
            detail::frameDeath = why;
            handle.destroy();
            detail::frameDeath = detail::FrameDeath::None;
        }
        handle = {};
    }

    Handle handle{};
};

namespace detail {

template <typename T>
Task<T>
Promise<T>::get_return_object()
{
    return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void>
Promise<void>::get_return_object()
{
    return Task<void>(
        std::coroutine_handle<Promise<void>>::from_promise(*this));
}

} // namespace detail

/** The common task types used throughout the simulator. */
using SimTask = Task<void>;
using WordTask = Task<Word>;

/** Awaitable: the awaiting coroutine's own handle, without suspending. */
struct CurrentHandle
{
    std::coroutine_handle<> handle{};

    bool await_ready() const noexcept { return false; }

    bool
    await_suspend(std::coroutine_handle<> h) noexcept
    {
        handle = h;
        return false;
    }

    std::coroutine_handle<> await_resume() const noexcept { return handle; }
};

/**
 * Awaitable: suspend for good and resume @p target instead, by
 * symmetric transfer. The target must be a suspended ancestor in the
 * awaiter's co_await chain; once it runs it owns the frames in between
 * and must Task::abandon() the one it awaited.
 */
struct JumpTo
{
    std::coroutine_handle<> target;

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<>) const noexcept
    {
        return target;
    }

    void await_resume() const { panic("resumed past a jump"); }
};

/**
 * Scope guard for cleanup a coroutine frame owes when a rollback leaves
 * it: runs @p fn if a thrown signal unwinds the frame, or if a rollback
 * jumps past it (Task::abandon). It runs nothing after dismiss(), nor
 * when a simulation tears its suspended frames down. @p fn must not
 * throw.
 */
template <typename Fn>
class OnUnwind
{
  public:
    explicit OnUnwind(Fn f) : fn(std::move(f)) {}

    OnUnwind(const OnUnwind&) = delete;
    OnUnwind& operator=(const OnUnwind&) = delete;

    ~OnUnwind()
    {
        using detail::FrameDeath;
        const bool unwound =
            detail::frameDeath == FrameDeath::None
                ? std::uncaught_exceptions() > uncaught
                : detail::frameDeath == FrameDeath::Abandoned;
        if (armed && unwound)
            fn();
    }

    /** The frame is leaving normally: run nothing. */
    void dismiss() { armed = false; }

  private:
    Fn fn;
    int uncaught = std::uncaught_exceptions();
    bool armed = true;
};

/** Awaitable: suspend the current logical thread for @p n cycles. */
struct Delay
{
    EventQueue& eq;
    Cycles n;

    bool await_ready() const noexcept { return n == 0; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        eq.schedule(n, [h] { h.resume(); });
    }

    void await_resume() const noexcept {}
};

/**
 * A one-shot wake slot. A coroutine parks itself on a Waker via WaitOn;
 * some other simulated agent later calls wake(), scheduling the resume.
 */
class Waker
{
  public:
    explicit Waker(EventQueue& eq) : eq(&eq) {}

    bool armed() const { return static_cast<bool>(handle); }

    void
    arm(std::coroutine_handle<> h)
    {
        if (handle)
            panic("Waker armed twice");
        handle = h;
    }

    /**
     * Resume the parked coroutine @p delay cycles from now. A wake with
     * nobody parked is remembered and satisfies the next WaitOn
     * immediately (no lost wake-ups).
     */
    void
    wake(Cycles delay = 0)
    {
        if (!handle) {
            pending = true;
            return;
        }
        auto h = std::exchange(handle, {});
        eq->schedule(delay, [h] { h.resume(); });
    }

    /** Consume a remembered wake, if any. */
    bool
    consumePending()
    {
        return std::exchange(pending, false);
    }

  private:
    EventQueue* eq;
    std::coroutine_handle<> handle{};
    bool pending = false;
};

/** Awaitable: park on a Waker until somebody calls wake(). */
struct WaitOn
{
    Waker& waker;

    bool await_ready() const noexcept { return waker.consumePending(); }
    void await_suspend(std::coroutine_handle<> h) const { waker.arm(h); }
    void await_resume() const noexcept {}
};

} // namespace tmsim

#endif // TMSIM_SIM_TASK_HH

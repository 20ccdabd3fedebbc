/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and
 * determinism, coroutine task chaining, exception propagation, wakers,
 * stats, and the RNG; and the heap traffic of both layers: a fresh
 * queue grows one node array, warm coroutine chains allocate nothing,
 * and a frame's memory stays sound across threads, at thread exit and
 * under AddressSanitizer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

#if defined(__SANITIZE_ADDRESS__)
#define TMSIM_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TMSIM_TEST_ASAN 1
#endif
#endif

// Every heap allocation and free in this binary goes through here, so
// a test can count what the queue and the frames ask of the heap. (The
// deletes stay out of line: inlined next to the library's operator
// new, GCC would warn that free() does not match it.)
namespace {
std::atomic<long> newCalls{0};
std::atomic<long> deleteCalls{0};
} // namespace

void*
operator new(std::size_t n)
{
    newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    if (p)
        deleteCalls.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    if (p)
        deleteCalls.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

using namespace tmsim;

namespace {

/** Heap allocations made on any thread while @p fn runs. */
template <typename Fn>
long
allocationsDuring(Fn fn)
{
    const long before = newCalls.load();
    fn();
    return newCalls.load() - before;
}

} // namespace

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 20u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(7, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(1, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 2u);
}

TEST(EventQueue, RunStopsAtMaxTick)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(100, [&] { fired = true; });
    eq.run(50);
    EXPECT_FALSE(fired);
    EXPECT_EQ(eq.curTick(), 50u);
    eq.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, RunWithPastLimitNeitherRunsNorRewinds)
{
    EventQueue eq;
    std::vector<int> fired;
    eq.schedule(10, [&] { fired.push_back(10); });
    EXPECT_EQ(eq.run(5), 5u);
    EXPECT_EQ(eq.run(3), 5u);
    EXPECT_EQ(eq.curTick(), 5u);

    // An event due now does not run either when the limit is past.
    eq.schedule(0, [&] { fired.push_back(5); });
    EXPECT_EQ(eq.run(4), 5u);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(eq.pending(), 2u);

    EXPECT_EQ(eq.run(), 10u);
    EXPECT_EQ(fired, (std::vector<int>{5, 10}));
}

TEST(EventQueue, FreshQueueGrowsOneNodeArray)
{
    EventQueue eq;
    std::vector<int> order;
    order.reserve(128);
    auto record = [&order](int v) {
        return [&order, v] { order.push_back(v); };
    };

    // 64 pending events at distinct ticks: one array that doubles, not
    // one vector per tick.
    const long allocs = allocationsDuring([&] {
        for (int t = 0; t < 64; ++t)
            eq.schedule(static_cast<Cycles>(t), record(t));
    });
    EXPECT_LE(allocs, 8);
    EXPECT_EQ(eq.pending(), 64u);

    // Same tick: FIFO, and a callback's same-tick pushes run in the
    // same pass, after what was already queued for the tick.
    eq.schedule(10, [&order, &eq] {
        order.push_back(1000);
        eq.schedule(0, [&order] { order.push_back(1001); });
    });
    eq.schedule(10, [&order, &eq] {
        order.push_back(1002);
        eq.schedule(0, [&order, &eq] {
            order.push_back(1003);
            eq.schedule(0, [&order] { order.push_back(1004); });
        });
    });

    // Overflow: far events drain in (when, seq) order, ahead of a ring
    // push for the same tick made after they were scheduled.
    eq.schedule(200, record(2200));
    eq.schedule(100, record(2100));
    eq.schedule(100, record(2101));
    eq.schedule(50, [&order, &eq] {
        order.push_back(3050);
        eq.schedule(50, [&order] { order.push_back(2102); });
    });

    EXPECT_EQ(eq.run(), 200u);
    std::vector<int> want;
    for (int t = 0; t < 64; ++t) {
        want.push_back(t);
        if (t == 10)
            want.insert(want.end(), {1000, 1002, 1001, 1003, 1004});
        if (t == 50)
            want.push_back(3050);
    }
    want.insert(want.end(), {2100, 2101, 2102, 2200});
    EXPECT_EQ(order, want);
    EXPECT_TRUE(eq.empty());
}

namespace {

SimTask
child(EventQueue& eq, int& counter)
{
    co_await Delay{eq, 5};
    ++counter;
}

SimTask
parent(EventQueue& eq, int& counter)
{
    co_await child(eq, counter);
    co_await child(eq, counter);
    ++counter;
}

SimTask
thrower(EventQueue& eq)
{
    co_await Delay{eq, 1};
    throw std::runtime_error("boom");
}

SimTask
catcher(EventQueue& eq, bool& caught)
{
    try {
        co_await thrower(eq);
    } catch (const std::runtime_error&) {
        caught = true;
    }
}

} // namespace

TEST(Task, ChainedChildrenAdvanceTime)
{
    EventQueue eq;
    int counter = 0;
    SimTask t = parent(eq, counter);
    t.start();
    eq.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(counter, 3);
    EXPECT_EQ(eq.curTick(), 10u);
}

TEST(Task, ExceptionPropagatesThroughAwait)
{
    EventQueue eq;
    bool caught = false;
    SimTask t = catcher(eq, caught);
    t.start();
    eq.run();
    EXPECT_TRUE(t.done());
    EXPECT_TRUE(caught);
}

TEST(Task, ResultRethrowsTopLevelException)
{
    EventQueue eq;
    SimTask t = thrower(eq);
    t.start();
    eq.run();
    ASSERT_TRUE(t.done());
    EXPECT_THROW(t.result(), std::runtime_error);
}

namespace {

WordTask
produceValue(EventQueue& eq)
{
    co_await Delay{eq, 3};
    co_return 42;
}

WordTask
consumeValue(EventQueue& eq)
{
    Word v = co_await produceValue(eq);
    co_return v * 2;
}

} // namespace

TEST(Task, ValueTasksReturnThroughAwait)
{
    EventQueue eq;
    WordTask t = consumeValue(eq);
    t.start();
    eq.run();
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.result(), 84u);
}

namespace {

SimTask
waiter(Waker& w, int& state)
{
    state = 1;
    co_await WaitOn{w};
    state = 2;
}

} // namespace

TEST(Waker, WakeResumesParkedCoroutine)
{
    EventQueue eq;
    Waker w(eq);
    int state = 0;
    SimTask t = waiter(w, state);
    t.start();
    eq.run();
    EXPECT_EQ(state, 1);
    EXPECT_FALSE(t.done());
    w.wake();
    eq.run();
    EXPECT_EQ(state, 2);
    EXPECT_TRUE(t.done());
}

TEST(Waker, EarlyWakeIsNotLost)
{
    EventQueue eq;
    Waker w(eq);
    w.wake(); // nobody parked yet
    int state = 0;
    SimTask t = waiter(w, state);
    t.start();
    eq.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(state, 2);
}

namespace {

WordTask
leaf(EventQueue& eq, Word v)
{
    co_await Delay{eq, 1 + v % 3};
    co_return v + 1;
}

WordTask
middle(EventQueue& eq, Word v)
{
    const Word a = co_await leaf(eq, v);
    const Word b = co_await leaf(eq, a);
    co_return a + b;
}

SimTask
sleeper(EventQueue& eq, Waker& w, Word& out)
{
    co_await WaitOn{w};
    out += co_await middle(eq, 7);
}

SimTask
worker(EventQueue& eq, Waker& w, Word& out)
{
    for (Word i = 0; i < 4; ++i)
        out += co_await middle(eq, i);
    co_await Delay{eq, 100}; // through the overflow heap
    // A same-tick callback that schedules another same-tick callback.
    eq.schedule(0, [&eq, &out] {
        ++out;
        eq.schedule(0, [&out] { ++out; });
    });
    w.wake();
    co_await Delay{eq, 1};
}

/** Two simulated threads of nested value and void awaits, a waker and
 *  same-tick schedules, run to completion on @p eq. */
Word
runChains(EventQueue& eq)
{
    Waker w(eq);
    Word out = 0;
    SimTask s = sleeper(eq, w, out);
    SimTask t = worker(eq, w, out);
    s.start();
    t.start();
    eq.run();
    return s.done() && t.done() ? out : 0;
}

#ifdef TMSIM_TEST_ASAN
/** Stores the address of its own frame in @p frame. */
SimTask
recordFrame(void*& frame)
{
    std::coroutine_handle<> h = co_await CurrentHandle{};
    frame = h.address();
}
#endif

} // namespace

TEST(Task, WarmCoroutineChainsAllocateNothing)
{
    EventQueue eq;
    const Word cold = runChains(eq);
    ASSERT_NE(cold, 0u);
    Word warm = 0;
    // The second run makes as many frames and events as the first, and
    // takes every one from memory the first left behind.
    EXPECT_EQ(allocationsDuring([&] { warm = runChains(eq); }), 0);
    EXPECT_EQ(warm, cold);
}

TEST(Task, FrameDestroyedOnAnotherThreadIsSafe)
{
    // A frame made on thread a is freed on thread b, whose free lists
    // already hold frames of its own; then both threads keep making
    // and freeing frames at once (ASan and TSan watch).
    std::promise<SimTask> made;
    std::promise<void> freed;
    auto madeF = made.get_future();
    auto freedF = freed.get_future();
    Word fromA = 0, fromB = 0;
    std::thread a([&] {
        EventQueue eq;
        int counter = 0;
        SimTask t = parent(eq, counter);
        t.start();
        eq.run();
        made.set_value(std::move(t));
        freedF.wait();
        for (int i = 0; i < 50; ++i)
            fromA += runChains(eq);
    });
    std::thread b([&] {
        EventQueue eq;
        fromB += runChains(eq);
        {
            SimTask t = madeF.get();
            EXPECT_TRUE(t.done());
        }
        freed.set_value();
        for (int i = 0; i < 49; ++i)
            fromB += runChains(eq);
    });
    a.join();
    b.join();
    EXPECT_NE(fromA, 0u);
    EXPECT_EQ(fromA, fromB);
}

TEST(Task, ThreadExitFreesParkedFrames)
{
    // The thread's frames park on its free lists; its exit must hand
    // every parked block back to the heap (LSan reports a leak in the
    // ASan build, and the count below in every build).
    const long live = newCalls.load() - deleteCalls.load();
    long warmAllocs = -1;
    std::thread t([&] {
        EventQueue eq;
        runChains(eq);
        warmAllocs = allocationsDuring([&] { runChains(eq); });
    });
    t.join();
    EXPECT_EQ(warmAllocs, 0);
    EXPECT_EQ(newCalls.load() - deleteCalls.load(), live);
}

TEST(Task, ParkedFrameIsPoisoned)
{
#ifndef TMSIM_TEST_ASAN
    GTEST_SKIP() << "needs AddressSanitizer";
#else
    void* frame = nullptr;
    {
        SimTask t = recordFrame(frame);
        t.start();
        ASSERT_TRUE(t.done());
        EXPECT_FALSE(__asan_address_is_poisoned(frame));
    }
    EXPECT_TRUE(__asan_address_is_poisoned(frame));
#endif
}

TEST(Stats, CounterRegistryAndPatterns)
{
    StatsRegistry stats;
    stats.counter("cpu0.loads") += 5;
    stats.counter("cpu1.loads") += 7;
    stats.counter("cpu0.stores") += 3;
    EXPECT_EQ(stats.value("cpu0.loads"), 5u);
    EXPECT_EQ(stats.value("missing"), 0u);
    EXPECT_EQ(stats.sum("cpu*.loads"), 12u);
    EXPECT_EQ(stats.sum("cpu0.loads"), 5u);
    stats.resetAll();
    EXPECT_EQ(stats.sum("cpu*.loads"), 0u);
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(123), b(123), c(124);
    bool allEqual = true, anyDiff = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.next(), vb = b.next(), vc = c.next();
        allEqual = allEqual && (va == vb);
        anyDiff = anyDiff || (va != vc);
    }
    EXPECT_TRUE(allEqual);
    EXPECT_TRUE(anyDiff);

    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
}

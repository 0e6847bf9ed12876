/**
 * @file
 * Unit tests for the discrete-event kernel: event ordering, fibers,
 * processes, wait queues, stats, RNG determinism.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/time_account.hh"

using namespace shrimp;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    auto h = q.scheduleCancellable(10, [&] { ran = true; });
    h.cancel();
    q.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue q;
    int runs = 0;
    auto h = q.scheduleCancellable(10, [&] { ++runs; });
    q.run();
    h.cancel();
    q.run();
    EXPECT_EQ(runs, 1);
}

TEST(EventQueue, DoubleCancelIsNoop)
{
    EventQueue q;
    bool ran = false;
    auto h = q.scheduleCancellable(10, [&] { ran = true; });
    h.cancel();
    h.cancel(); // second cancel must not disturb anything
    q.schedule(20, [&] {});
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, StaleHandleDoesNotCancelRecycledSlot)
{
    EventQueue q;
    int first = 0, second = 0;
    auto h = q.scheduleCancellable(10, [&] { ++first; });
    q.run();
    EXPECT_EQ(first, 1);

    // The fired event's pool slot is recycled; the next cancellable
    // event reuses it (LIFO free list). The stale handle must target
    // the old generation and leave the new occupant alone.
    auto h2 = q.scheduleCancellable(10, [&] { ++second; });
    h.cancel(); // stale: must not cancel the recycled slot
    q.run();
    EXPECT_EQ(second, 1);

    // And a live cancel on the new handle still works.
    auto h3 = q.scheduleCancellable(10, [&] { ++second; });
    h3.cancel();
    q.run();
    EXPECT_EQ(second, 1);
    (void)h2;
}

TEST(EventQueue, CancelledHandleStaysStaleAfterSlotReuse)
{
    EventQueue q;
    int runs = 0;
    auto h = q.scheduleCancellable(10, [&] { ++runs; });
    h.cancel();
    q.run(); // cancelled event drains and its slot recycles
    auto h2 = q.scheduleCancellable(10, [&] { ++runs; });
    h.cancel(); // stale again: slot belongs to h2's event now
    q.run();
    EXPECT_EQ(runs, 1);
    (void)h2;
}

TEST(EventQueue, SameTickFifoAcrossHeapRebuilds)
{
    // Interleave same-tick scheduling with event execution so keys
    // move through many sift-up/sift-down cycles; scheduling order
    // must survive as execution order within each tick.
    EventQueue q;
    std::vector<int> order;
    int n = 0;
    for (int wave = 0; wave < 8; ++wave) {
        for (int i = 0; i < 50; ++i) {
            q.schedule(100, [&order, v = n] { order.push_back(v); });
            ++n;
        }
        // Earlier filler events force pops (heap rebuilds) between
        // the same-tick waves.
        q.schedule(Tick(wave + 1), [] {});
        q.step();
    }
    q.run();
    ASSERT_EQ(order.size(), 400u);
    for (int i = 0; i < 400; ++i)
        EXPECT_EQ(order[i], i) << "at " << i;
}

TEST(EventQueue, PoolRecyclingSurvivesChurn)
{
    // Push/pop far more events than one slab holds, with a cancel mix,
    // so slots recycle many times over.
    EventQueue q;
    std::uint64_t fired = 0;
    for (int round = 0; round < 100; ++round) {
        std::vector<EventHandle> hs;
        for (int i = 0; i < 600; ++i)
            hs.push_back(
                q.scheduleCancellable(Tick(i % 7), [&] { ++fired; }));
        for (std::size_t i = 0; i < hs.size(); i += 3)
            hs[i].cancel();
        q.run();
    }
    EXPECT_EQ(fired, 100u * 400u);
}

TEST(InlineCallback, HoldsAndReleasesCapturedState)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        EventQueue q;
        q.schedule(5, [t = std::move(token)] { (void)t; });
        EXPECT_FALSE(watch.expired()); // held by the pending event
        q.run();
        EXPECT_TRUE(watch.expired()); // released after firing
    }

    // And un-fired callbacks are destroyed with the queue.
    auto token2 = std::make_shared<int>(8);
    std::weak_ptr<int> watch2 = token2;
    {
        EventQueue q;
        q.schedule(5, [t = std::move(token2)] { (void)t; });
        EXPECT_FALSE(watch2.expired());
    }
    EXPECT_TRUE(watch2.expired());
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.schedule(30, [&] { ++count; });
    EXPECT_FALSE(q.runUntil(20));
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_TRUE(q.runUntil(100));
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue q;
    Tick fired_at = 0;
    q.schedule(10, [&] {
        q.schedule(15, [&] { fired_at = q.now(); });
    });
    q.run();
    EXPECT_EQ(fired_at, 25u);
}

TEST(Fiber, RunsAndFinishes)
{
    int steps = 0;
    Fiber f([&] { steps = 42; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(steps, 42);
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> trace;
    Fiber *self = nullptr;
    Fiber f([&] {
        trace.push_back(1);
        self->yield();
        trace.push_back(2);
        self->yield();
        trace.push_back(3);
    });
    self = &f;
    f.resume();
    trace.push_back(10);
    f.resume();
    trace.push_back(20);
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 10, 2, 20, 3}));
}

namespace
{

/**
 * Burn stack in 4 KB bites, touching both ends of every frame so the
 * pages are really dirtied; returns the depth reached. noinline +
 * volatile defeat the optimizer's urge to flatten the recursion.
 */
__attribute__((noinline)) int
burnStack(int frames)
{
    volatile char frame[4096];
    // Sub-page stride so the descent cannot step over a lone guard
    // page no matter how the compiler pads the frame.
    for (std::size_t i = 0; i < sizeof(frame); i += 1024)
        frame[i] = char(frames);
    frame[sizeof(frame) - 1] = char(frames);
    if (frames <= 1)
        return int(frame[0]);
    return burnStack(frames - 1) + int(frame[sizeof(frame) - 1]);
}

} // anonymous namespace

/**
 * An overflowing fiber must die on the PROT_NONE guard page below its
 * stack — a clean SIGSEGV at the fault point — instead of silently
 * scribbling over whatever mapping the allocator placed beneath.
 */
TEST(FiberDeathTest, GuardPageCatchesOverflow)
{
    EXPECT_DEATH(
        {
            Fiber f([] { burnStack(64); }, 64 * 1024);
            f.resume();
        },
        "");
}

/**
 * The mincore high-water probe sees real stack consumption: a fiber
 * that recursed ~40 KB deep on a 64 KB stack reports at least that
 * much, never more than the stack, and feeds the process-wide mark.
 */
TEST(Fiber, StackHighWaterProbe)
{
    Fiber f([] { burnStack(10); }, 64 * 1024);
    f.resume();
    ASSERT_TRUE(f.finished());
    EXPECT_GE(f.stackHighWaterBytes(), 10u * 4096);
    EXPECT_LE(f.stackHighWaterBytes(), 64u * 1024);
    EXPECT_GE(FiberStack::globalHighWaterBytes(),
              std::uint64_t(f.stackHighWaterBytes()));
}

/**
 * The switch counter is a pure function of the fiber's execution:
 * n yields cost n+1 resumes in, n yields out, and one final exit —
 * 2n+2 one-way transfers. Host-perf reports build on this being
 * deterministic.
 */
TEST(Fiber, SwitchCountIsDeterministic)
{
    constexpr int kYields = 5;
    Fiber f([] {
        for (int i = 0; i < kYields; ++i)
            Fiber::current()->yield();
    });
    EXPECT_EQ(f.switches(), 0u);
    for (int i = 0; i < kYields + 1; ++i)
        f.resume();
    ASSERT_TRUE(f.finished());
    EXPECT_EQ(f.switches(), 2u * kYields + 2);
}

TEST(Simulation, DelayAdvancesTime)
{
    Simulation sim;
    Tick observed = 0;
    sim.spawn("p", [&] {
        sim.delay(microseconds(5));
        observed = sim.now();
    });
    sim.run();
    EXPECT_EQ(observed, microseconds(5));
}

TEST(Simulation, DelayCostsOneEventWhenNothingElseIsDue)
{
    Simulation sim;
    constexpr int kDelays = 100;
    Tick finished_at = 0;
    sim.spawn("p", [&] {
        for (int i = 0; i < kDelays; ++i)
            sim.delay(10);
        finished_at = sim.now();
    });
    sim.run();
    EXPECT_EQ(finished_at, Tick(10 * kDelays));
    // The start event, then one timer per delay: each resume runs
    // inside its timer.
    EXPECT_EQ(sim.executedEvents(), std::uint64_t(1 + kDelays));
}

TEST(Simulation, DelayResumesAfterEventsDueAtItsTick)
{
    // p's timer for tick 10 is scheduled first; E, for the same tick,
    // follows it in sequence. p must still resume after E, where the
    // resume event wake() schedules would run.
    Simulation sim;
    bool e_ran = false;
    bool p_saw_e = false;
    sim.spawn("p", [&] {
        sim.delay(10);
        p_saw_e = e_ran;
    });
    sim.schedule(5, [&] { sim.schedule(5, [&] { e_ran = true; }); });
    sim.run();
    EXPECT_TRUE(e_ran);
    EXPECT_TRUE(p_saw_e);
    EXPECT_EQ(sim.now(), Tick(10));
}

TEST(Simulation, ProcessesInterleave)
{
    Simulation sim;
    std::vector<std::string> trace;
    sim.spawn("a", [&] {
        trace.push_back("a1");
        sim.delay(10);
        trace.push_back("a2");
        sim.delay(20);
        trace.push_back("a3");
    });
    sim.spawn("b", [&] {
        trace.push_back("b1");
        sim.delay(15);
        trace.push_back("b2");
    });
    sim.run();
    EXPECT_EQ(trace,
              (std::vector<std::string>{"a1", "b1", "a2", "b2", "a3"}));
}

TEST(Simulation, WaitQueueBlocksUntilWoken)
{
    Simulation sim;
    WaitQueue wq;
    std::vector<int> trace;
    Process *waiter = sim.spawn("waiter", [&] {
        trace.push_back(1);
        wq.wait(sim);
        trace.push_back(2);
    });
    sim.spawn("waker", [&] {
        sim.delay(100);
        wq.wakeOne(sim);
    });
    sim.run();
    EXPECT_TRUE(waiter->finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 2}));
}

TEST(Simulation, WakeAllReleasesEveryWaiter)
{
    Simulation sim;
    WaitQueue wq;
    int released = 0;
    for (int i = 0; i < 5; ++i) {
        sim.spawn("w", [&] {
            wq.wait(sim);
            ++released;
        });
    }
    sim.spawn("waker", [&] {
        sim.delay(10);
        EXPECT_EQ(wq.wakeAll(sim), 5u);
    });
    sim.run();
    EXPECT_EQ(released, 5);
}

TEST(Simulation, WakeWhileRunningIsRemembered)
{
    // A process that is woken while running should not block at its
    // next suspend.
    Simulation sim;
    Process *p = nullptr;
    bool done = false;
    p = sim.spawn("self", [&] {
        sim.wake(p); // wake while running
        sim.suspend(); // should return immediately
        done = true;
    });
    sim.run();
    EXPECT_TRUE(done);
}

TEST(Simulation, DoubleWakeIsIdempotent)
{
    Simulation sim;
    WaitQueue wq;
    int wakeups = 0;
    Process *w = sim.spawn("w", [&] {
        wq.wait(sim);
        ++wakeups;
        wq.wait(sim); // second wait: must not be woken by stale event
        ++wakeups;
    });
    sim.spawn("waker", [&] {
        sim.delay(10);
        sim.wake(w);
        sim.wake(w); // duplicate
        sim.delay(10);
        EXPECT_EQ(wakeups, 1);
        sim.wake(w);
    });
    sim.run();
    EXPECT_EQ(wakeups, 2);
}

TEST(Stats, CountersAndAccumulators)
{
    StatsRegistry reg;
    reg.counter("a.x").inc();
    reg.counter("a.x").inc(4);
    reg.counter("a.y").inc(2);
    reg.counter("b.z").inc(9);
    EXPECT_EQ(reg.counterValue("a.x"), 5u);
    EXPECT_EQ(reg.counterValue("missing"), 0u);
    EXPECT_EQ(reg.sumCounters("a."), 7u);

    auto &acc = reg.accumulator("lat");
    acc.sample(1.0);
    acc.sample(3.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 3.0);

    reg.reset();
    EXPECT_EQ(reg.counterValue("a.x"), 0u);
}

TEST(Random, DeterministicGivenSeed)
{
    Random a(123), b(123), c(456);
    bool all_equal = true, any_diff = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.next();
        all_equal = all_equal && (va == b.next());
        any_diff = any_diff || (va != c.next());
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff);
}

TEST(Random, UniformInRange)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        auto v = r.range(-5, 5);
        ASSERT_GE(v, -5);
        ASSERT_LE(v, 5);
    }
}

TEST(TimeAccount, EachProcessHoldsOnlyItsOwnSlices)
{
    Simulation sim;
    Process *a = nullptr;
    Process *b = nullptr;
    a = sim.spawn("a", [&] {
        a->account.start(sim.now());
        sim.delay(100); // compute
        {
            ScopedCategory cat(sim, TimeCategory::Lock);
            sim.delay(30);
        }
        sim.delay(50); // compute
        {
            ScopedCategory cat(sim, TimeCategory::Barrier);
            sim.delay(20);
        }
        a->account.stop(sim.now());
    });
    b = sim.spawn("b", [&] {
        b->account.start(sim.now());
        sim.delay(40); // compute
        {
            ScopedCategory cat(sim, TimeCategory::Communication);
            sim.delay(100);
        }
        b->account.stop(sim.now());
    });
    // Both processes are inside a scope at tick 110; a scope built in
    // an event callback belongs to no process and switches neither.
    sim.schedule(110, [&] {
        ScopedCategory cat(sim, TimeCategory::Overhead);
        EXPECT_EQ(a->account.category(), TimeCategory::Lock);
        EXPECT_EQ(b->account.category(), TimeCategory::Communication);
    });
    sim.run();

    EXPECT_EQ(a->account.total(TimeCategory::Compute), 150u);
    EXPECT_EQ(a->account.total(TimeCategory::Lock), 30u);
    EXPECT_EQ(a->account.total(TimeCategory::Barrier), 20u);
    EXPECT_EQ(a->account.total(TimeCategory::Communication), 0u);
    EXPECT_EQ(a->account.total(TimeCategory::Overhead), 0u);
    EXPECT_EQ(a->account.grandTotal(), 200u);

    EXPECT_EQ(b->account.total(TimeCategory::Compute), 40u);
    EXPECT_EQ(b->account.total(TimeCategory::Communication), 100u);
    EXPECT_EQ(b->account.total(TimeCategory::Lock), 0u);
    EXPECT_EQ(b->account.total(TimeCategory::Overhead), 0u);
    EXPECT_EQ(b->account.grandTotal(), 140u);
}

TEST(TimeAccount, ScopeAfterStopAddsNothing)
{
    Simulation sim;
    Process *p = nullptr;
    p = sim.spawn("p", [&] {
        p->account.start(sim.now());
        sim.delay(100); // compute
        p->account.stop(sim.now());
        ScopedCategory cat(sim, TimeCategory::Communication);
        sim.delay(50);
    });
    sim.run();

    EXPECT_EQ(p->account.total(TimeCategory::Compute), 100u);
    EXPECT_EQ(p->account.total(TimeCategory::Communication), 0u);
    EXPECT_EQ(p->account.grandTotal(), 100u);
}

TEST(Types, TimeConversions)
{
    EXPECT_EQ(nanoseconds(1), 1000u);
    EXPECT_EQ(microseconds(1), 1000000u);
    EXPECT_EQ(seconds(1), kPsPerSec);
    EXPECT_DOUBLE_EQ(toSeconds(kPsPerSec), 1.0);
    EXPECT_EQ(transferTime(100, 100.0), seconds(1.0));
    EXPECT_EQ(transferTime(100, 0.0), 0u);
}

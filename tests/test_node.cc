/**
 * @file
 * Unit tests for the node substrate: memory arena, memory bus
 * timeline, CPU charging model, OS costs and notification dispatch.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "node/node.hh"

using namespace shrimp;
using namespace shrimp::node;

TEST(NodeMemory, AllocatesAndTranslates)
{
    NodeMemory mem(1 << 20);
    void *a = mem.alloc(100);
    void *b = mem.alloc(4096, /*page_aligned=*/true);
    EXPECT_TRUE(mem.contains(a));
    EXPECT_TRUE(mem.contains(b));
    EXPECT_EQ(mem.offsetOf(b) % kPageBytes, 0u);

    Frame f = mem.frameOf(b);
    EXPECT_EQ(mem.ptrOf(f), b);
    EXPECT_EQ(mem.ptrOf(f, 123), static_cast<char *>(b) + 123);
    EXPECT_FALSE(mem.contains(&f));
}

TEST(NodeMemory, PageAlignedAllocationReadsZero)
{
    // No subsystem clears arena memory after allocation (rings,
    // inboxes, control pages, SVM heap replicas): it relies on the
    // arena handing out pages no earlier allocation touched, which
    // read as zero.
    NodeMemory mem(1 << 20);
    constexpr std::size_t kUsed = kPageBytes + 100;
    auto *used = static_cast<unsigned char *>(mem.alloc(kUsed));
    std::memset(used, 0xff, kUsed);

    constexpr std::size_t kFresh = 3 * kPageBytes;
    auto *fresh =
        static_cast<const unsigned char *>(mem.alloc(kFresh, true));
    EXPECT_EQ(mem.offsetOf(fresh) % kPageBytes, 0u);
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < kFresh; ++i)
        nonzero += fresh[i] != 0;
    EXPECT_EQ(nonzero, 0u);
}

TEST(NodeMemory, ExhaustionIsFatal)
{
    NodeMemory mem(2 * kPageBytes);
    mem.alloc(kPageBytes);
    EXPECT_DEATH(
        {
            NodeMemory m2(kPageBytes);
            m2.alloc(2 * kPageBytes);
        },
        "exhausted");
}

TEST(MemoryBus, SerializesReservations)
{
    Simulation sim;
    MemoryBus bus(sim, "t");
    Tick a = bus.reserve(100);
    Tick b = bus.reserve(50);
    EXPECT_EQ(a, 100u);
    EXPECT_EQ(b, 150u);
    // After time passes, new reservations start from now.
    sim.schedule(1000, [] {});
    sim.run();
    Tick c2 = bus.reserve(10);
    EXPECT_EQ(c2, 1010u);
}

TEST(MemoryBus, BlockingUseAdvancesTime)
{
    Simulation sim;
    MachineParams mp;
    Node n(sim, 0, mp, 1 << 20);
    Tick when = 0;
    n.spawnProcess("p", [&] {
        n.bus().use(microseconds(5));
        when = sim.now();
    });
    sim.run();
    EXPECT_EQ(when, microseconds(5));
}

TEST(Cpu, ComputeIsLazyUntilSync)
{
    Simulation sim;
    MachineParams mp;
    Node n(sim, 0, mp, 1 << 20);
    Tick t_after = 0;
    n.spawnProcess("p", [&] {
        n.cpu().compute(microseconds(10));
        EXPECT_EQ(sim.now(), 0u); // not yet charged
        n.cpu().sync();
        t_after = sim.now();
    });
    sim.run();
    EXPECT_EQ(t_after, microseconds(10));
}

TEST(Cpu, KernelWorkDelaysApplication)
{
    Simulation sim;
    MachineParams mp;
    Node n(sim, 0, mp, 1 << 20);
    Tick t_after = 0;
    // Kernel reservation at t=0 for 20us.
    n.cpu().reserveKernel(microseconds(20));
    n.spawnProcess("p", [&] {
        n.cpu().compute(microseconds(5));
        n.cpu().sync();
        t_after = sim.now();
    });
    sim.run();
    // Application work queues behind the kernel reservation.
    EXPECT_EQ(t_after, microseconds(25));
}

TEST(Cpu, ChargeHelpersScale)
{
    Simulation sim;
    MachineParams mp;
    Node n(sim, 0, mp, 1 << 20);
    n.cpu().chargeAccess(10);
    EXPECT_EQ(n.cpu().pendingWork(), 10 * mp.cachedAccess);
    n.cpu().computeCycles(60);
    EXPECT_EQ(n.cpu().pendingWork(),
              10 * mp.cachedAccess + 60 * mp.cpuCycle);
}

TEST(Os, SyscallChargesConfiguredCost)
{
    Simulation sim;
    MachineParams mp;
    Node n(sim, 0, mp, 1 << 20);
    Tick t_after = 0;
    n.spawnProcess("p", [&] {
        n.os().syscall();
        t_after = sim.now();
    });
    sim.run();
    EXPECT_EQ(t_after, mp.syscallCost);
    EXPECT_EQ(sim.stats().counterValue("node0.syscalls"), 1u);
}

TEST(Os, NotificationsRunOnDispatcherInOrder)
{
    Simulation sim;
    MachineParams mp;
    Node n(sim, 0, mp, 1 << 20);
    std::vector<int> order;
    n.os().postNotification([&] { order.push_back(1); });
    n.os().postNotification([&] { order.push_back(2); });
    n.os().postNotification([&] { order.push_back(3); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.stats().counterValue("node0.notifications"), 3u);
}

TEST(Os, BlockedNotificationsWaitForUnblock)
{
    Simulation sim;
    MachineParams mp;
    Node n(sim, 0, mp, 1 << 20);
    int ran = 0;
    n.os().blockNotifications();
    n.os().postNotification([&] { ++ran; });
    sim.runUntil(seconds(0.01));
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(n.os().pendingNotifications(), 1u);
    n.os().unblockNotifications();
    sim.run();
    EXPECT_EQ(ran, 1);
}

TEST(Os, NotificationCostIsCharged)
{
    Simulation sim;
    MachineParams mp;
    Node n(sim, 0, mp, 1 << 20);
    Tick ran_at = 0;
    n.os().postNotification([&] { ran_at = sim.now(); });
    sim.run();
    EXPECT_EQ(ran_at, mp.notificationCost);
}

TEST(Os, InterruptReservesCpu)
{
    Simulation sim;
    MachineParams mp;
    Node n(sim, 0, mp, 1 << 20);
    Tick done = n.os().interrupt(mp.interruptCost);
    EXPECT_EQ(done, mp.interruptCost);
    EXPECT_EQ(sim.stats().counterValue("node0.interrupts"), 1u);
}

TEST(MachineParams, PageArithmetic)
{
    EXPECT_EQ(pageOf(0), 0u);
    EXPECT_EQ(pageOf(4095), 0u);
    EXPECT_EQ(pageOf(4096), 1u);
    EXPECT_EQ(pageOffset(4097), 1u);
}

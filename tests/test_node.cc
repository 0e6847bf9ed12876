/**
 * @file
 * Unit tests for the node substrate: memory arena, memory bus
 * timeline, CPU charging model, OS costs and notification dispatch.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include <sys/mman.h>
#include <unistd.h>

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

namespace
{

/** The host's page size: release() drops only whole host pages. */
std::size_t
hostPage()
{
    return std::size_t(::sysconf(_SC_PAGESIZE));
}

/** Whether the host page holding @p p is resident. */
bool
resident(const unsigned char *p)
{
    auto *page = const_cast<unsigned char *>(
        p - reinterpret_cast<std::uintptr_t>(p) % hostPage());
    unsigned char v = 0;
    EXPECT_EQ(::mincore(page, hostPage(), &v), 0);
    return (v & 1) != 0;
}

} // anonymous namespace

/**
 * release() gives host pages back to the host: they stop being
 * resident and read as zero, like pages nobody has touched, and the
 * pages after them keep their contents. An unaligned pointer, and a
 * range that runs past the arena, panic.
 */
TEST(NodeMemory, ReleasedPagesReadZeroAndAreNotResident)
{
    const std::size_t host = hostPage();
    const std::size_t pages = 8 * host / kPageBytes;
    NodeMemory mem(pages * kPageBytes);
    auto *p = static_cast<unsigned char *>(mem.alloc(3 * host, true));
    std::memset(p, 0xab, 3 * host);
    ASSERT_TRUE(resident(p));
    ASSERT_TRUE(resident(p + host));

    mem.release(p, 2 * host);
    EXPECT_FALSE(resident(p));
    EXPECT_FALSE(resident(p + host));
    EXPECT_TRUE(resident(p + 2 * host));
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < 2 * host; ++i)
        nonzero += p[i] != 0;
    EXPECT_EQ(nonzero, 0u);
    EXPECT_EQ(p[2 * host], 0xab);

    EXPECT_DEATH(mem.release(p + 8, kPageBytes), "not a page");
    EXPECT_DEATH(mem.release(p + (pages - 2) * kPageBytes, 3 * kPageBytes),
                 "past the arena");
    // A partial page rounds up to a whole one, past the arena's last.
    EXPECT_DEATH(mem.release(p + (pages - 1) * kPageBytes, kPageBytes + 1),
                 "past the arena");
    EXPECT_DEATH(mem.release(p + pages * kPageBytes, kPageBytes),
                 "not a page");
}

/**
 * A release changes no byte outside its range, whatever the host's
 * page size: of the arena pages inside it, those on host pages it
 * covers whole read zero and the rest keep their bytes. Where the
 * host page is an arena page, as on x86-64, every page of the range
 * reads zero, and releasing one page leaves both neighbours as they
 * were.
 */
TEST(NodeMemory, ReleaseNeverChangesNeighbouringPages)
{
    const std::size_t host = hostPage();
    const std::size_t pages = 3 * host / kPageBytes;
    NodeMemory mem(pages * kPageBytes);
    auto *p =
        static_cast<unsigned char *>(mem.alloc(pages * kPageBytes, true));

    auto check = [&](std::size_t first, std::size_t count) {
        for (std::size_t i = 0; i < pages; ++i)
            std::memset(p + i * kPageBytes, int(i + 1), kPageBytes);
        mem.release(p + first * kPageBytes, count * kPageBytes);
        std::size_t lo = (first * kPageBytes + host - 1) / host * host;
        std::size_t hi = (first + count) * kPageBytes / host * host;
        for (std::size_t i = 0; i < pages; ++i) {
            std::size_t at = i * kPageBytes;
            bool dropped = at >= lo && at + kPageBytes <= hi;
            auto want = static_cast<unsigned char>(dropped ? 0 : i + 1);
            std::size_t wrong = 0;
            for (std::size_t b = 0; b < kPageBytes; ++b)
                wrong += p[at + b] != want;
            EXPECT_EQ(wrong, 0u) << "page " << i << " after releasing "
                                 << count << " at page " << first;
        }
    };
    for (std::size_t first = 0; first < pages; ++first)
        check(first, 1);
    check(1, pages - 2);
    check(0, pages);
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

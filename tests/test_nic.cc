/**
 * @file
 * Unit tests for the SHRIMP network interface: page tables, DU engine
 * and queueing, AU trains and combining arithmetic, outgoing-FIFO
 * flow control, notification bits, forced-interrupt mode.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/cluster.hh"
#include "mesh/network.hh"
#include "nic/modern_nic.hh"
#include "nic/nic_kind.hh"
#include "nic/shrimp_nic.hh"
#include "node/node.hh"

using namespace shrimp;
using namespace shrimp::nic;

namespace
{

/** Two-node harness wiring nodes straight to a mesh. */
struct NicHarness
{
    Simulation sim;
    mesh::Network net;
    node::Node n0, n1;
    ShrimpNic nic0, nic1;

    explicit NicHarness(const ShrimpNicParams &p = ShrimpNicParams())
        : net(sim, 2, 1),
          n0(sim, 0, node::MachineParams(), 1 << 22),
          n1(sim, 1, node::MachineParams(), 1 << 22),
          nic0(n0, net, p), nic1(n1, net, p)
    {
    }
};

} // anonymous namespace

TEST(PageTables, OptProxyAllocationAndLookup)
{
    OutgoingPageTable opt;
    OptIndex a = opt.allocate(3, 17, 1);
    OptIndex b = opt.allocate(5, 99, 1);
    EXPECT_EQ(opt.proxy(a).dstNode, 3u);
    EXPECT_EQ(opt.proxy(a).dstFrame, 17u);
    EXPECT_EQ(opt.proxy(b).dstNode, 5u);
    EXPECT_EQ(opt.proxyCount(), 2u);
}

TEST(PageTables, OptImportIsOneRangeOfConsecutiveIndices)
{
    // A 256-rank mailbox inbox: 768 pages in one import.
    OutgoingPageTable opt;
    OptIndex a = opt.allocate(3, 40, 768);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(opt.proxyCount(), 768u);
    for (OptIndex i = 0; i < 768; ++i) {
        EXPECT_EQ(opt.proxy(a + i).dstNode, 3u);
        EXPECT_EQ(opt.proxy(a + i).dstFrame, 40u + i);
    }

    // The next import continues the numbering.
    OptIndex b = opt.allocate(5, 7, 2);
    EXPECT_EQ(b, 768u);
    EXPECT_EQ(opt.proxyCount(), 770u);
    EXPECT_EQ(opt.proxy(b).dstNode, 5u);
    EXPECT_EQ(opt.proxy(b + 1).dstFrame, 8u);
    EXPECT_EQ(opt.proxy(b - 1).dstFrame, 40u + 767);
}

TEST(PageTablesDeathTest, InvalidateKillsTheWholeImportOnly)
{
    OutgoingPageTable opt;
    OptIndex a = opt.allocate(1, 10, 3);
    OptIndex b = opt.allocate(2, 50, 3);
    OptIndex c = opt.allocate(3, 90, 3);
    opt.invalidate(b);
    for (OptIndex i = 0; i < 3; ++i)
        EXPECT_DEATH(opt.proxy(b + i), "stale");
    // The neighbouring imports still resolve.
    EXPECT_EQ(opt.proxy(a + 2).dstFrame, 12u);
    EXPECT_EQ(opt.proxy(c).dstNode, 3u);
    EXPECT_EQ(opt.proxy(c).dstFrame, 90u);
}

TEST(PageTablesDeathTest, IndexPastProxyCountPanics)
{
    OutgoingPageTable opt;
    EXPECT_DEATH(opt.proxy(0), "out of range");
    opt.allocate(1, 10, 4);
    EXPECT_DEATH(opt.proxy(4), "out of range");
    EXPECT_DEATH(opt.invalidate(4), "out of range");
    // Ranges make a huge import cheap, so the index space is checked.
    EXPECT_DEATH(opt.allocate(1, 0, kInvalidOpt), "exhausted");
}

TEST(PageTables, AuBindingLifecycle)
{
    OutgoingPageTable opt;
    EXPECT_EQ(opt.auBinding(7), nullptr);
    EXPECT_EQ(opt.auBindingCount(), 0u);
    opt.bindAu(7, 2, 40, /*combining=*/true, /*irq=*/false);
    ASSERT_NE(opt.auBinding(7), nullptr);
    EXPECT_EQ(opt.auBinding(7)->dstFrame, 40u);
    EXPECT_TRUE(opt.auBinding(7)->combining);
    EXPECT_EQ(opt.auBindingCount(), 1u);

    // A lookup past the highest frame bound so far.
    EXPECT_EQ(opt.auBinding(8), nullptr);
    EXPECT_EQ(opt.auBinding(1u << 20), nullptr);

    // A low frame after a high one; the frames between stay unbound.
    opt.bindAu(2, 3, 50, /*combining=*/false, /*irq=*/true);
    ASSERT_NE(opt.auBinding(2), nullptr);
    EXPECT_EQ(opt.auBinding(2)->dstNode, 3u);
    EXPECT_TRUE(opt.auBinding(2)->interruptRequest);
    EXPECT_EQ(opt.auBinding(5), nullptr);
    EXPECT_EQ(opt.auBindingCount(), 2u);

    // Rebinding a bound frame replaces it without counting twice.
    opt.bindAu(7, 2, 41, /*combining=*/true, /*irq=*/false);
    EXPECT_EQ(opt.auBinding(7)->dstFrame, 41u);
    EXPECT_EQ(opt.auBindingCount(), 2u);

    opt.unbindAu(7);
    EXPECT_EQ(opt.auBinding(7), nullptr);
    EXPECT_EQ(opt.auBindingCount(), 1u);

    // Unbinding a frame that was never bound, inside and past the
    // table, changes nothing.
    opt.unbindAu(5);
    opt.unbindAu(1u << 20);
    EXPECT_EQ(opt.auBindingCount(), 1u);
    ASSERT_NE(opt.auBinding(2), nullptr);

    // Rebinding after an unbind.
    opt.bindAu(7, 1, 60, /*combining=*/false, /*irq=*/false);
    ASSERT_NE(opt.auBinding(7), nullptr);
    EXPECT_EQ(opt.auBinding(7)->dstFrame, 60u);
    EXPECT_FALSE(opt.auBinding(7)->combining);
    EXPECT_EQ(opt.auBindingCount(), 2u);
}

TEST(PageTables, IptInterruptBits)
{
    IncomingPageTable ipt;
    EXPECT_FALSE(ipt.interruptEnable(4));
    ipt.setInterruptEnable(4, true);
    EXPECT_TRUE(ipt.interruptEnable(4));
    ipt.setInterruptEnable(4, false);
    EXPECT_FALSE(ipt.interruptEnable(4));
}

TEST(ShrimpNic, DeliberateUpdateWritesRemoteMemory)
{
    NicHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    std::memset(dst, 0, 4096);
    node::Frame dst_frame = h.n1.mem().frameOf(dst);

    OptIndex proxy = h.nic0.importPage(1, dst_frame, 1);
    bool delivered = false;
    h.nic1.setDeliverHook([&](const Delivery &d) {
        delivered = true;
        EXPECT_EQ(d.srcNode, 0u);
        EXPECT_EQ(d.offset, 64u);
        EXPECT_EQ(d.bytes, 5u);
        EXPECT_FALSE(d.automatic);
    });

    h.sim.spawn("send", [&] {
        SendDesc req;
        char payload[5] = {'h', 'e', 'l', 'l', 'o'};
        req.src = payload;
        req.proxy = proxy;
        req.dstOffset = 64;
        req.bytes = 5;
        h.nic0.post(req);
    });
    h.sim.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(std::memcmp(dst + 64, "hello", 5), 0);
}

TEST(ShrimpNic, PageCrossingTransferPanics)
{
    NicHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(8192, true));
    OptIndex proxy = h.nic0.importPage(1, h.n1.mem().frameOf(dst), 1);
    h.sim.spawn("send", [&] {
        SendDesc req;
        char buf[64] = {};
        req.src = buf;
        req.proxy = proxy;
        req.dstOffset = 4090;
        req.bytes = 20;
        EXPECT_DEATH(h.nic0.post(req), "crosses");
    });
    h.sim.run();
}

TEST(ShrimpNic, AuStoreToUnboundPageIsIgnored)
{
    NicHarness h;
    char *local = static_cast<char *>(h.n0.mem().alloc(4096, true));
    bool delivered = false;
    h.nic1.setDeliverHook([&](const Delivery &) { delivered = true; });
    h.sim.spawn("p", [&] {
        h.nic0.auStore(local, 8);
        h.nic0.auFlush();
    });
    h.sim.run();
    EXPECT_FALSE(delivered);
}

TEST(ShrimpNic, AuTrainCountsUncombinedPackets)
{
    ShrimpNicParams p;
    p.combiningEnabled = false;
    NicHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(4096, true));
    h.nic0.bindAu(h.n0.mem().frameOf(local), 1,
                  h.n1.mem().frameOf(dst), /*combining=*/false,
                  false);

    h.sim.spawn("p", [&] {
        // 16 separate 8-byte stores: 16 hardware packets.
        for (int i = 0; i < 16; ++i) {
            std::uint64_t v = i;
            std::memcpy(local + i * 8, &v, 8);
            h.nic0.auStore(local + i * 8, 8);
        }
        h.nic0.auFlush();
    });
    h.sim.run();
    EXPECT_EQ(h.sim.stats().counterValue("node0.nic.au_packets"), 16u);
    // The mesh and the receiving NIC agree: both count the 16 wire
    // packets the train stands for, not the single mesh event.
    EXPECT_EQ(h.sim.stats().counterValue("mesh.packets"), 16u);
    EXPECT_EQ(h.sim.stats().counterValue("node1.nic.packets_in"), 16u);
    // Data landed correctly.
    for (int i = 0; i < 16; ++i) {
        std::uint64_t v;
        std::memcpy(&v, dst + i * 8, 8);
        EXPECT_EQ(v, std::uint64_t(i));
    }
}

TEST(ShrimpNic, CombiningMergesConsecutiveStores)
{
    ShrimpNicParams p;
    p.combineMaxBytes = 64;
    NicHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(4096, true));
    h.nic0.bindAu(h.n0.mem().frameOf(local), 1,
                  h.n1.mem().frameOf(dst), /*combining=*/true, false);

    h.sim.spawn("p", [&] {
        // 16 consecutive 8-byte stores = 128 bytes -> 2 packets of
        // 64 bytes under the sub-page combining boundary.
        for (int i = 0; i < 16; ++i)
            h.nic0.auStore(local + i * 8, 8);
        h.nic0.auFlush();
    });
    h.sim.run();
    EXPECT_EQ(h.sim.stats().counterValue("node0.nic.au_packets"), 2u);
}

TEST(ShrimpNic, NonConsecutiveStoresBreakCombining)
{
    ShrimpNicParams p;
    p.combineMaxBytes = 256;
    NicHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(4096, true));
    h.nic0.bindAu(h.n0.mem().frameOf(local), 1,
                  h.n1.mem().frameOf(dst), true, false);

    h.sim.spawn("p", [&] {
        // Scattered stores: each opens a new packet.
        for (int i = 0; i < 8; ++i)
            h.nic0.auStore(local + i * 128, 8);
        h.nic0.auFlush();
    });
    h.sim.run();
    EXPECT_EQ(h.sim.stats().counterValue("node0.nic.au_packets"), 8u);
}

TEST(ShrimpNic, AuTrainLandsItsStoresInStoreOrder)
{
    NicHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(4096, true));
    h.nic0.bindAu(h.n0.mem().frameOf(local), 1,
                  h.n1.mem().frameOf(dst), /*combining=*/true, false);
    std::vector<Delivery> deliveries;
    h.nic1.setDeliverHook(
        [&](const Delivery &d) { deliveries.push_back(d); });

    // One train: two stores to one offset, stores of every Pentium
    // width, a 256-byte store and a store inside it.
    auto store = [&](std::uint32_t offset, const void *v,
                     std::uint32_t bytes) {
        std::memcpy(local + offset, v, bytes);
        h.nic0.auStore(local + offset, bytes);
    };
    const std::uint64_t first = 0x1111111111111111;
    const std::uint64_t last = 0x2222222222222222;
    const std::uint8_t b1 = 0x33;
    const std::uint16_t b2 = 0x4444;
    const std::uint32_t b4 = 0x55555555, inside = 0x77777777;
    const std::uint64_t b8 = 0x6666666666666666;
    std::vector<char> block(256);
    for (int i = 0; i < 256; ++i)
        block[i] = char(i + 1);
    h.sim.spawn("p", [&] {
        store(0, &first, 8);
        store(0, &last, 8);
        store(100, &b1, 1);
        store(200, &b2, 2);
        store(300, &b4, 4);
        store(400, &b8, 8);
        store(1024, block.data(), 256);
        store(1040, &inside, 4);
        h.nic0.auFlush();
    });
    h.sim.run();

    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_EQ(deliveries[0].srcNode, 0u);
    EXPECT_EQ(deliveries[0].offset, 0u);
    EXPECT_EQ(deliveries[0].bytes, 291u);
    // The same packet and byte counts as the per-store vectors the
    // record stream replaced.
    EXPECT_EQ(h.sim.stats().counterValue("node0.nic.au_packets"), 8u);
    EXPECT_EQ(h.sim.stats().counterValue("node0.nic.au_bytes"), 291u);

    // The later store to each byte wins; every other byte stays zero.
    std::vector<char> want(4096, 0);
    std::memcpy(&want[0], &last, 8);
    std::memcpy(&want[100], &b1, 1);
    std::memcpy(&want[200], &b2, 2);
    std::memcpy(&want[300], &b4, 4);
    std::memcpy(&want[400], &b8, 8);
    std::memcpy(&want[1024], block.data(), 256);
    std::memcpy(&want[1040], &inside, 4);
    EXPECT_EQ(std::memcmp(dst, want.data(), 4096), 0);
}

TEST(ShrimpNic, AuTrainPastItsInlineRecordsLandsEveryByte)
{
    NicHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(2 * 4096, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(2 * 4096, true));
    for (int page = 0; page < 2; ++page)
        h.nic0.bindAu(h.n0.mem().frameOf(local + page * 4096), 1,
                      h.n1.mem().frameOf(dst + page * 4096), true,
                      false);

    h.sim.spawn("p", [&] {
        // 64 8-byte stores: 768 bytes of records, past the inline 48.
        for (int i = 0; i < 64; ++i) {
            std::uint64_t v = 0x0101010101010101ull * std::uint64_t(i + 1);
            std::memcpy(local + i * 8, &v, 8);
            h.nic0.auStore(local + i * 8, 8);
        }
        h.nic0.auFlush();
        // The next train, on the other page, has one store.
        std::uint64_t v = 0xfedcba9876543210ull;
        std::memcpy(local + 4096 + 72, &v, 8);
        h.nic0.auStore(local + 4096 + 72, 8);
        h.nic0.auFlush();
    });
    h.sim.run();

    for (int i = 0; i < 64; ++i) {
        std::uint64_t got = 0;
        std::memcpy(&got, dst + i * 8, 8);
        EXPECT_EQ(got, 0x0101010101010101ull * std::uint64_t(i + 1)) << i;
    }
    std::vector<char> want(4096, 0);
    std::uint64_t v = 0xfedcba9876543210ull;
    std::memcpy(&want[72], &v, 8);
    EXPECT_EQ(std::memcmp(dst + 4096, want.data(), 4096), 0);
    // Combining: 512 contiguous bytes are two 256-byte packets.
    EXPECT_EQ(h.sim.stats().counterValue("node0.nic.au_packets"), 3u);
    EXPECT_EQ(h.sim.stats().counterValue("node0.nic.au_bytes"), 520u);
}

TEST(ShrimpNic, FifoThresholdStallsAndRecovers)
{
    ShrimpNicParams p;
    p.outFifoBytes = 1024; // tiny FIFO
    NicHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(32768, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(32768, true));
    for (int pg = 0; pg < 8; ++pg)
        h.nic0.bindAu(h.n0.mem().frameOf(local) + pg, 1,
                      h.n1.mem().frameOf(dst) + pg, true, false);

    bool finished = false;
    h.sim.spawn("p", [&] {
        for (int i = 0; i < 32; ++i) {
            char buf[512];
            std::memset(buf, i, sizeof(buf));
            std::memcpy(local + (i % 64) * 512, buf, 512);
            h.nic0.auStore(local + (i % 64) * 512, 512);
            h.nic0.auFlush();
        }
        h.nic0.auFence();
        finished = true;
    });
    h.sim.run();
    EXPECT_TRUE(finished);
    EXPECT_GT(
        h.sim.stats().counterValue("node0.nic.fifo_threshold_irqs"),
        0u);
    EXPECT_EQ(h.nic0.fifoFill(), 0u);
}

TEST(ShrimpNic, NotificationRequiresBothBits)
{
    NicHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    node::Frame frame = h.n1.mem().frameOf(dst);
    OptIndex proxy = h.nic0.importPage(1, frame, 1);

    int notified = 0;
    int delivered = 0;
    h.nic1.setDeliverHook([&](const Delivery &d) {
        ++delivered;
        if (d.notify)
            ++notified;
    });

    // The IPT bit is sampled at packet *arrival*, so each step waits
    // for the delivery before flipping receiver state.
    auto send = [&](bool sender_bit) {
        SendDesc req;
        char v = 1;
        req.src = &v;
        req.proxy = proxy;
        req.dstOffset = 0;
        req.bytes = 1;
        req.notify = sender_bit;
        int before = delivered;
        h.nic0.post(req);
        h.nic0.drainSends();
        while (delivered == before)
            h.sim.delay(microseconds(2));
    };

    h.sim.spawn("p", [&] {
        send(true); // receiver bit off: no notification
        h.nic1.setInterruptEnable(frame, true);
        send(false); // sender bit off: no notification
        send(true);  // both: notification
    });
    h.sim.run();
    EXPECT_EQ(notified, 1);
}

TEST(ShrimpNic, ForcedInterruptModeChargesReceiverCpu)
{
    ShrimpNicParams p;
    p.interruptPerMessage = true;
    NicHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    OptIndex proxy = h.nic0.importPage(1, h.n1.mem().frameOf(dst), 1);

    h.sim.spawn("p", [&] {
        for (int i = 0; i < 10; ++i) {
            SendDesc req;
            char v = char(i);
            req.src = &v;
            req.proxy = proxy;
            req.dstOffset = 0;
            req.bytes = 1;
            h.nic0.post(req);
        }
        h.nic0.drainSends();
    });
    h.sim.run();
    EXPECT_EQ(h.sim.stats().counterValue("node1.interrupts"), 10u);
}

TEST(ShrimpNic, DuQueueDepthAllowsPipelinedSubmit)
{
    // With a 2-deep queue the second submit returns without waiting
    // for the first transfer's DMA; without it, it must wait.
    auto submit_two = [](int depth) {
        ShrimpNicParams p;
        p.duQueueDepth = depth;
        NicHarness h(p);
        char *dst = static_cast<char *>(h.n1.mem().alloc(8192, true));
        OptIndex proxy =
            h.nic0.importPage(1, h.n1.mem().frameOf(dst), 1);
        Tick second_accepted = 0;
        h.sim.spawn("p", [&] {
            std::vector<char> buf(4096, 'x');
            SendDesc req;
            req.src = buf.data();
            req.proxy = proxy;
            req.dstOffset = 0;
            req.bytes = 4096;
            h.nic0.post(req);
            h.nic0.post(req);
            second_accepted = h.sim.now();
        });
        h.sim.run();
        return second_accepted;
    };
    Tick no_queue = submit_two(1);
    Tick with_queue = submit_two(2);
    EXPECT_LT(with_queue, no_queue);
}

TEST(ShrimpNic, AuFenceWaitsForRemoteApplication)
{
    NicHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(4096, true));
    h.nic0.bindAu(h.n0.mem().frameOf(local), 1,
                  h.n1.mem().frameOf(dst), true, false);

    bool value_present_at_fence = false;
    h.sim.spawn("p", [&] {
        std::uint64_t v = 0xabcdef;
        std::memcpy(local, &v, 8);
        h.nic0.auStore(local, 8);
        h.nic0.auFence();
        std::uint64_t got;
        std::memcpy(&got, dst, 8);
        value_present_at_fence = (got == v);
    });
    h.sim.run();
    EXPECT_TRUE(value_present_at_fence);
}

TEST(ShrimpNic, UnbindAuFlushesTheOpenTrain)
{
    NicHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    char *local = static_cast<char *>(h.n0.mem().alloc(4096, true));
    node::Frame local_frame = h.n0.mem().frameOf(local);
    node::Frame dst_frame = h.n1.mem().frameOf(dst);
    std::vector<std::uint32_t> offsets;
    h.nic1.setDeliverHook(
        [&](const Delivery &d) { offsets.push_back(d.offset); });

    h.sim.spawn("p", [&] {
        h.nic0.bindAu(local_frame, 1, dst_frame, true, false);
        std::uint64_t v = 11;
        std::memcpy(local, &v, 8);
        h.nic0.auStore(local, 8);
        // Unbinding closes the page's open train: the store goes out
        // with no flush.
        h.nic0.unbindAu(local_frame);
        h.sim.delay(microseconds(100));
        EXPECT_EQ(offsets, (std::vector<std::uint32_t>{0}));

        // After rebinding, a store opens a new train, which the next
        // flush delivers.
        h.nic0.bindAu(local_frame, 1, dst_frame, true, false);
        v = 22;
        std::memcpy(local + 64, &v, 8);
        h.nic0.auStore(local + 64, 8);
        h.sim.delay(microseconds(100));
        EXPECT_EQ(offsets.size(), 1u);
        h.nic0.auFlush();
    });
    h.sim.run();
    EXPECT_EQ(offsets, (std::vector<std::uint32_t>{0, 64}));
    std::uint64_t got = 0;
    std::memcpy(&got, dst, 8);
    EXPECT_EQ(got, 11u);
    std::memcpy(&got, dst + 64, 8);
    EXPECT_EQ(got, 22u);
    EXPECT_EQ(h.sim.stats().counterValue("node0.nic.au_packets"), 2u);
}

// ---------------------------------------------------------------------
// The NIC-kind registry (shared --nic / SHRIMP_NIC parsing + caps)
// ---------------------------------------------------------------------

TEST(NicKind, ParseNamesAndCapsTable)
{
    NicKind k = NicKind::Shrimp;
    EXPECT_TRUE(parseNicKind("modern", k));
    EXPECT_EQ(k, NicKind::Modern);
    EXPECT_TRUE(parseNicKind("baseline", k));
    EXPECT_EQ(k, NicKind::Baseline);
    EXPECT_TRUE(parseNicKind("shrimp", k));
    EXPECT_EQ(k, NicKind::Shrimp);
    k = NicKind::Modern;
    EXPECT_FALSE(parseNicKind("myrinet", k));
    EXPECT_EQ(k, NicKind::Modern); // untouched on failure

    EXPECT_STREQ(nicKindName(NicKind::Shrimp), "shrimp");
    EXPECT_STREQ(nicKindName(NicKind::Baseline), "baseline");
    EXPECT_STREQ(nicKindName(NicKind::Modern), "modern");

    NicCaps s = nicKindCaps(NicKind::Shrimp);
    EXPECT_TRUE(s.autoUpdate);
    EXPECT_FALSE(s.doorbell);
    EXPECT_FALSE(s.batchedNotify);
    NicCaps b = nicKindCaps(NicKind::Baseline);
    EXPECT_FALSE(b.autoUpdate);
    EXPECT_FALSE(b.doorbell);
    EXPECT_FALSE(b.batchedNotify);
    NicCaps m = nicKindCaps(NicKind::Modern);
    EXPECT_FALSE(m.autoUpdate);
    EXPECT_TRUE(m.doorbell);
    EXPECT_TRUE(m.batchedNotify);
}

TEST(NicKind, EnvOverride)
{
    ::setenv("SHRIMP_NIC", "modern", 1);
    EXPECT_EQ(core::envClusterConfig().nicKind, NicKind::Modern);
    ::unsetenv("SHRIMP_NIC");
    EXPECT_EQ(core::envClusterConfig().nicKind,
              core::ClusterConfig().nicKind);
}

// ---------------------------------------------------------------------
// ModernNic: doorbells, completion queues, notifiable writes
// ---------------------------------------------------------------------

namespace
{

/** Two-node harness around the modern adapter. */
struct ModernHarness
{
    Simulation sim;
    mesh::Network net;
    node::Node n0, n1;
    ModernNic nic0, nic1;

    explicit ModernHarness(
        const ModernNicParams &p = ModernNicParams())
        : net(sim, 2, 1),
          n0(sim, 0, node::MachineParams(), 1 << 22),
          n1(sim, 1, node::MachineParams(), 1 << 22),
          nic0(n0, net, p), nic1(n1, net, p)
    {
    }
};

} // anonymous namespace

TEST(ModernNic, InstanceCapsMatchKindTable)
{
    ModernHarness h;
    NicCaps c = h.nic0.caps();
    NicCaps t = nicKindCaps(NicKind::Modern);
    EXPECT_EQ(c.autoUpdate, t.autoUpdate);
    EXPECT_EQ(c.doorbell, t.doorbell);
    EXPECT_EQ(c.batchedNotify, t.batchedNotify);
    EXPECT_FALSE(h.nic0.supportsAutomaticUpdate());
}

TEST(ModernNic, DoorbellPostIsCheapAndDelivers)
{
    ModernHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    std::memset(dst, 0, 4096);
    OptIndex proxy = h.nic0.importPage(1, h.n1.mem().frameOf(dst), 1);

    bool delivered = false;
    h.nic1.setDeliverHook([&](const Delivery &d) {
        delivered = true;
        EXPECT_EQ(d.srcNode, 0u);
        EXPECT_EQ(d.bytes, 5u);
        EXPECT_FALSE(d.notify); // no interrupt was requested
    });

    Tick post_returned = 0;
    h.sim.spawn("send", [&] {
        char payload[5] = {'w', 'o', 'r', 'l', 'd'};
        SendDesc req;
        req.src = payload;
        req.proxy = proxy;
        req.dstOffset = 128;
        req.bytes = 5;
        h.nic0.post(req);
        post_returned = h.sim.now();
    });
    h.sim.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(std::memcmp(dst + 128, "world", 5), 0);
    // The host paid only the doorbell write; the queue had a slot, so
    // posting returned before any wire or DMA time elapsed.
    EXPECT_EQ(post_returned, h.nic0.params().doorbellCost);
}

TEST(ModernNic, NotifiableWriteWakesUserLevelWaiter)
{
    ModernHarness h;
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    std::memset(dst, 0, 4096);
    OptIndex proxy = h.nic0.importPage(1, h.n1.mem().frameOf(dst), 1);

    bool data_present_at_wake = false;
    h.sim.spawn("waiter", [&] {
        h.nic1.notifyWait(42, 1);
        std::uint64_t got;
        std::memcpy(&got, dst, 8);
        data_present_at_wake = (got == 0x1234u);
    });
    h.sim.spawn("send", [&] {
        std::uint64_t v = 0x1234;
        SendDesc req;
        req.src = &v;
        req.proxy = proxy;
        req.dstOffset = 0;
        req.bytes = 8;
        req.notifyId = 42;
        h.nic0.post(req);
    });
    h.sim.run();
    EXPECT_TRUE(data_present_at_wake);
    EXPECT_EQ(h.nic1.notifyCount(42), 1u);
    EXPECT_EQ(h.nic1.notifyCount(7), 0u); // other ids untouched
    EXPECT_EQ(h.sim.stats().counterValue("node1.mnic.notify_writes"),
              1u);
    // No interrupt was involved: counter wait is user-level.
    EXPECT_EQ(h.sim.stats().counterValue("node1.interrupts"), 0u);
}

TEST(ModernNic, CqCoalescesNotificationsIntoOneInterrupt)
{
    ModernNicParams p;
    p.cqThreshold = 8;
    ModernHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    node::Frame frame = h.n1.mem().frameOf(dst);
    OptIndex proxy = h.nic0.importPage(1, frame, 1);
    h.nic1.setInterruptEnable(frame, true);

    int notified = 0;
    h.nic1.setDeliverHook([&](const Delivery &d) {
        if (d.notify)
            ++notified;
    });
    h.sim.spawn("send", [&] {
        std::uint64_t v = 1;
        for (int i = 0; i < 8; ++i) {
            SendDesc req;
            req.src = &v;
            req.proxy = proxy;
            req.dstOffset = std::uint32_t(i) * 8;
            req.bytes = 8;
            req.notify = true;
            h.nic0.post(req);
        }
    });
    h.sim.run();
    EXPECT_EQ(notified, 8);
    // Eight notified arrivals, one coalesced interrupt.
    EXPECT_EQ(h.sim.stats().counterValue("node1.mnic.cq_events"), 8u);
    EXPECT_EQ(h.sim.stats().counterValue("node1.mnic.cq_interrupts"),
              1u);
    EXPECT_EQ(h.sim.stats().counterValue("node1.interrupts"), 1u);
}

TEST(ModernNic, CqTimeoutDrainsPartialBatch)
{
    ModernNicParams p;
    p.cqThreshold = 8;
    ModernHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    node::Frame frame = h.n1.mem().frameOf(dst);
    OptIndex proxy = h.nic0.importPage(1, frame, 1);
    h.nic1.setInterruptEnable(frame, true);

    Tick notified_at = 0;
    h.nic1.setDeliverHook([&](const Delivery &d) {
        if (d.notify)
            notified_at = h.sim.now();
    });
    h.sim.spawn("send", [&] {
        std::uint64_t v = 1;
        SendDesc req;
        req.src = &v;
        req.proxy = proxy;
        req.dstOffset = 0;
        req.bytes = 8;
        req.notify = true;
        h.nic0.post(req);
    });
    h.sim.run();
    // One lone CQE sat out the coalescing window, then interrupted.
    EXPECT_GT(notified_at, h.nic0.params().cqTimeout);
    EXPECT_EQ(h.sim.stats().counterValue("node1.mnic.cq_interrupts"),
              1u);
    EXPECT_EQ(h.sim.stats().counterValue("node1.mnic.cq_events"), 1u);
}

TEST(ModernNic, UrgentEventBypassesCoalescing)
{
    ModernNicParams p;
    p.cqThreshold = 8;
    ModernHarness h(p);
    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    node::Frame frame = h.n1.mem().frameOf(dst);
    OptIndex proxy = h.nic0.importPage(1, frame, 1);
    h.nic1.setInterruptEnable(frame, true);

    Tick notified_at = 0;
    h.nic1.setDeliverHook([&](const Delivery &d) {
        if (d.notify)
            notified_at = h.sim.now();
    });
    h.sim.spawn("send", [&] {
        std::uint64_t v = 1;
        SendDesc req;
        req.src = &v;
        req.proxy = proxy;
        req.dstOffset = 0;
        req.bytes = 8;
        req.notify = true;
        req.urgent = true;
        h.nic0.post(req);
    });
    h.sim.run();
    // Solicited event: the interrupt fired well before the timer.
    EXPECT_GT(notified_at, 0u);
    EXPECT_LT(notified_at, h.nic0.params().cqTimeout);
    EXPECT_EQ(h.sim.stats().counterValue("node1.mnic.cq_interrupts"),
              1u);
}

TEST(ModernNic, NotifyWaitOnNonBatchedAdapterDies)
{
    NicHarness h; // ShrimpNic: no batched-notification support
    h.sim.spawn("p", [&] {
        EXPECT_DEATH(h.nic0.notifyWait(1, 1), "batchedNotify");
    });
    h.sim.run();
}

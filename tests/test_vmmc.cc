/**
 * @file
 * Integration tests for VMMC on the SHRIMP NIC: export/import,
 * deliberate update, automatic update, notifications, collectives.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "core/collective.hh"
#include "core/vmmc.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

/** Allocate a zeroed page-aligned buffer on a node. */
char *
pageBuf(Cluster &c, int node, std::size_t bytes)
{
    char *p = static_cast<char *>(c.node(node).mem().alloc(bytes, true));
    std::memset(p, 0, bytes);
    return p;
}

} // anonymous namespace

TEST(Vmmc, DeliberateUpdateMovesData)
{
    Cluster c;
    char *rbuf = pageBuf(c, 1, 8192);
    ExportId exp = kInvalidExport;
    bool receiver_saw = false;

    c.spawnOn(1, "recv", [&] {
        exp = c.vmmc(1).exportBuffer(rbuf, 8192);
        c.vmmc(1).waitUntil([&] { return rbuf[100] == 'x'; });
        receiver_saw = true;
    });
    c.spawnOn(0, "send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        ProxyId p = ep.import(1, exp);
        EXPECT_EQ(ep.importSize(p), 8192u);
        char data[200];
        std::memset(data, 'x', sizeof(data));
        ep.send(p, data, sizeof(data), 90);
    });
    c.run();
    EXPECT_TRUE(receiver_saw);
    EXPECT_EQ(rbuf[90], 'x');
    EXPECT_EQ(rbuf[289], 'x');
    EXPECT_EQ(rbuf[290], 0);
}

TEST(Vmmc, LargeSendSpansPages)
{
    Cluster c;
    const std::size_t kBytes = 5 * node::kPageBytes + 123;
    char *rbuf = pageBuf(c, 2, 6 * node::kPageBytes);
    ExportId exp = kInvalidExport;

    c.spawnOn(2, "recv", [&] {
        exp = c.vmmc(2).exportBuffer(rbuf, 6 * node::kPageBytes);
        c.vmmc(2).waitUntil(
            [&] { return rbuf[kBytes - 1] == char(77); });
    });
    c.spawnOn(0, "send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        ProxyId p = ep.import(2, exp);
        std::vector<char> data(kBytes);
        for (std::size_t i = 0; i < kBytes; ++i)
            data[i] = char(i * 31 + 77);
        data[kBytes - 1] = char(77);
        ep.send(p, data.data(), kBytes, 0);
        ep.drainSends();
    });
    c.run();
    for (std::size_t i = 0; i + 1 < kBytes; ++i)
        ASSERT_EQ(rbuf[i], char(i * 31 + 77)) << "at " << i;
    // Multiple hardware transfers were needed.
    EXPECT_GE(c.sim().stats().counterValue("node0.nic.du_transfers"), 6u);
    // One VMMC message.
    EXPECT_EQ(c.sim().stats().counterValue("node0.vmmc.messages"), 1u);
}

TEST(Vmmc, SendLatencyIsAroundSixMicroseconds)
{
    // Sec 4.1: deliberate update end-to-end latency ~6 us for small
    // messages on the SHRIMP prototype.
    Cluster c;
    char *rbuf = pageBuf(c, 1, node::kPageBytes);
    ExportId exp = kInvalidExport;
    Tick sent_at = 0, seen_at = 0;

    c.spawnOn(1, "recv", [&] {
        exp = c.vmmc(1).exportBuffer(rbuf, node::kPageBytes);
        c.vmmc(1).waitUntil([&] { return rbuf[0] == 1; });
        seen_at = c.sim().now();
    });
    c.spawnOn(0, "send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        ProxyId p = ep.import(1, exp);
        c.sim().delay(microseconds(50)); // let receiver enter its poll
        char one = 1;
        sent_at = c.sim().now();
        ep.send(p, &one, 1, 0);
    });
    c.run();
    double us = toMicroseconds(seen_at - sent_at);
    EXPECT_GT(us, 3.0);
    EXPECT_LT(us, 9.0);
}

TEST(Vmmc, AutomaticUpdatePropagatesStores)
{
    Cluster c;
    const std::size_t kBytes = 2 * node::kPageBytes;
    char *rbuf = pageBuf(c, 3, kBytes);
    char *lbuf = pageBuf(c, 0, kBytes);
    ExportId exp = kInvalidExport;

    c.spawnOn(3, "recv", [&] {
        exp = c.vmmc(3).exportBuffer(rbuf, kBytes);
        c.vmmc(3).waitUntil([&] {
            return rbuf[0] == 'a' && rbuf[node::kPageBytes + 7] == 'b';
        });
    });
    c.spawnOn(0, "send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        ProxyId p = ep.import(3, exp);
        ep.bindAu(lbuf, p, 0, kBytes);
        ep.auWrite<char>(&lbuf[0], 'a');
        ep.auWrite<char>(&lbuf[node::kPageBytes + 7], 'b');
        ep.auFlush();
    });
    c.run();
    EXPECT_EQ(rbuf[0], 'a');
    EXPECT_EQ(rbuf[node::kPageBytes + 7], 'b');
    // Local (write-through) copy was updated too.
    EXPECT_EQ(lbuf[0], 'a');
}

TEST(Vmmc, AuLatencyIsAroundFourMicroseconds)
{
    // Sec 4.2: 3.71 us single-word AU latency between user processes.
    Cluster c;
    char *rbuf = pageBuf(c, 1, node::kPageBytes);
    char *lbuf = pageBuf(c, 0, node::kPageBytes);
    ExportId exp = kInvalidExport;
    Tick sent_at = 0, seen_at = 0;

    c.spawnOn(1, "recv", [&] {
        exp = c.vmmc(1).exportBuffer(rbuf, node::kPageBytes);
        c.vmmc(1).waitUntil([&] {
            return *reinterpret_cast<std::uint32_t *>(rbuf) != 0;
        });
        seen_at = c.sim().now();
    });
    c.spawnOn(0, "send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        ProxyId p = ep.import(1, exp);
        ep.bindAu(lbuf, p, 0, node::kPageBytes);
        c.sim().delay(microseconds(50));
        sent_at = c.sim().now();
        ep.auWrite<std::uint32_t>(
            reinterpret_cast<std::uint32_t *>(lbuf), 0xdeadbeef);
        ep.auFlush();
    });
    c.run();
    double us = toMicroseconds(seen_at - sent_at);
    EXPECT_GT(us, 1.5);
    EXPECT_LT(us, 6.0);
    // And AU beats DU for a single word.
}

TEST(Vmmc, NotificationsInvokeHandler)
{
    Cluster c;
    char *rbuf = pageBuf(c, 1, node::kPageBytes);
    ExportId exp = kInvalidExport;
    int notified = 0;
    NodeId notified_src = kInvalidNode;
    std::uint32_t notified_off = 0;
    bool done = false;

    c.spawnOn(1, "recv", [&] {
        auto &ep = c.vmmc(1);
        exp = ep.exportBuffer(rbuf, node::kPageBytes);
        ep.enableNotifications(
            exp, [&](NodeId src, std::uint32_t off, std::uint32_t) {
                ++notified;
                notified_src = src;
                notified_off = off;
            });
        ep.waitUntil([&] { return notified > 0; });
        done = true;
    });
    c.spawnOn(0, "send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        ProxyId p = ep.import(1, exp);
        char v = 9;
        ep.send(p, &v, 1, 64, /*notify=*/true);
    });
    c.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(notified, 1);
    EXPECT_EQ(notified_src, 0u);
    EXPECT_EQ(notified_off, 64u);
    EXPECT_EQ(
        c.sim().stats().counterValue("node1.vmmc.notifications"), 1u);
}

TEST(Vmmc, NoNotificationWithoutSenderBit)
{
    Cluster c;
    char *rbuf = pageBuf(c, 1, node::kPageBytes);
    ExportId exp = kInvalidExport;
    int notified = 0;

    c.spawnOn(1, "recv", [&] {
        auto &ep = c.vmmc(1);
        exp = ep.exportBuffer(rbuf, node::kPageBytes);
        ep.enableNotifications(
            exp,
            [&](NodeId, std::uint32_t, std::uint32_t) { ++notified; });
        ep.waitUntil([&] { return rbuf[0] == 1; });
    });
    c.spawnOn(0, "send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        ProxyId p = ep.import(1, exp);
        char v = 1;
        ep.send(p, &v, 1, 0, /*notify=*/false);
    });
    c.run();
    EXPECT_EQ(notified, 0);
}

TEST(Vmmc, BlockedNotificationsAreQueued)
{
    Cluster c;
    char *rbuf = pageBuf(c, 1, node::kPageBytes);
    ExportId exp = kInvalidExport;
    int notified = 0;

    c.spawnOn(1, "recv", [&] {
        auto &ep = c.vmmc(1);
        exp = ep.exportBuffer(rbuf, node::kPageBytes);
        ep.enableNotifications(
            exp,
            [&](NodeId, std::uint32_t, std::uint32_t) { ++notified; });
        ep.blockNotifications();
        ep.waitUntil([&] { return rbuf[0] == 3; });
        EXPECT_EQ(notified, 0); // blocked: delivered data, no upcall yet
        ep.unblockNotifications();
        ep.waitUntil([&] { return notified == 3; });
    });
    c.spawnOn(0, "send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        ProxyId p = ep.import(1, exp);
        for (char v = 1; v <= 3; ++v)
            ep.send(p, &v, 1, 0, /*notify=*/true);
    });
    c.run();
    EXPECT_EQ(notified, 3);
}

namespace
{

/** What polledWaitUnderTraffic observed of the waiting rank. */
struct PolledWait
{
    std::uint64_t switches = 0; //!< the waiter's fiber switches
    std::uint64_t busyPs = 0;   //!< node1.cpu_busy_ps
};

/**
 * Rank 1 waits on a flag while rank 0 sends @p messages small DU
 * messages elsewhere into the same buffer, 20 us apart, then sets the
 * flag. Each message is a delivery that re-checks the predicate and
 * pays one poll.
 */
PolledWait
polledWaitUnderTraffic(int messages)
{
    Cluster c;
    char *rbuf = pageBuf(c, 1, node::kPageBytes);
    ExportId exp = kInvalidExport;
    PolledWait out;
    Process *waiter = c.spawnOn(1, "waiter", [&] {
        exp = c.vmmc(1).exportBuffer(rbuf, node::kPageBytes);
        c.vmmc(1).waitUntil([&] { return rbuf[0] == 1; });
    });
    c.spawnOn(0, "sender", [&] {
        auto &ep = c.vmmc(0);
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        ProxyId p = ep.import(1, exp);
        c.sim().delay(microseconds(50)); // let the waiter park
        std::uint64_t word = 7;
        for (int i = 0; i < messages; ++i) {
            ep.send(p, &word, sizeof(word), 64 + 8 * std::size_t(i));
            c.sim().delay(microseconds(20));
        }
        char one = 1;
        ep.send(p, &one, 1, 0);
    });
    c.run();
    EXPECT_TRUE(waiter->finished());
    out.switches = waiter->switches();
    out.busyPs = c.sim().stats().counterValue("node1.cpu_busy_ps");
    return out;
}

} // anonymous namespace

TEST(Vmmc, PolledWaitResumesItsFiberOnce)
{
    // Deliveries that leave the predicate false are re-checked in
    // event context, so they cost the waiter no fiber switches. They
    // still cost its CPU one 300 ns poll each, and the busy times are
    // pinned: where a re-check runs must not change what it books.
    PolledWait eight = polledWaitUnderTraffic(8);
    PolledWait sixteen = polledWaitUnderTraffic(16);
    EXPECT_EQ(eight.switches, sixteen.switches);
    // The first poll runs in event context too: the wait parks once
    // and resumes once. Start, the export's sync (out and in), the
    // wait (out and in) and the finish make six.
    EXPECT_EQ(eight.switches, 6u);
    EXPECT_EQ(eight.busyPs, 12700000u);
    EXPECT_EQ(sixteen.busyPs, 15100000u);
}

TEST(Vmmc, SyscallModeChargesMorePerSend)
{
    auto run_once = [](bool udma) {
        ClusterConfig cfg;
        cfg.udmaSends = udma;
        Cluster c(cfg);
        char *rbuf = pageBuf(c, 1, node::kPageBytes);
        ExportId exp = kInvalidExport;
        Tick elapsed = 0;
        c.spawnOn(1, "recv", [&] {
            exp = c.vmmc(1).exportBuffer(rbuf, node::kPageBytes);
        });
        c.spawnOn(0, "send", [&] {
            auto &ep = c.vmmc(0);
            while (exp == kInvalidExport)
                c.sim().delay(microseconds(10));
            ProxyId p = ep.import(1, exp);
            Tick t0 = c.sim().now();
            char v = 1;
            for (int i = 0; i < 100; ++i)
                ep.send(p, &v, 1, 0);
            ep.drainSends();
            elapsed = c.sim().now() - t0;
        });
        c.run();
        return elapsed;
    };
    Tick with_udma = run_once(true);
    Tick with_syscall = run_once(false);
    EXPECT_GT(with_syscall, with_udma);
    // The added cost should be roughly 100 syscalls.
    node::MachineParams mp;
    Tick added = with_syscall - with_udma;
    EXPECT_GT(added, 100 * mp.syscallCost / 2);
}

TEST(Collective, BarrierSynchronizesRanks)
{
    Cluster c;
    const int kProcs = 8;
    Collective coll(c, kProcs);
    std::vector<Tick> after(kProcs, 0);

    for (int r = 0; r < kProcs; ++r) {
        c.spawnOn(r, "rank", [&, r] {
            coll.init(r);
            // Stagger arrival.
            c.sim().delay(microseconds(10 * (r + 1)));
            coll.barrier(r);
            after[r] = c.sim().now();
        });
    }
    c.run();
    // Nobody leaves before the last arrival.
    for (int r = 0; r < kProcs; ++r)
        EXPECT_GE(after[r], microseconds(10 * kProcs));
}

TEST(Collective, ReductionsComputeGlobalValues)
{
    Cluster c;
    const int kProcs = 6;
    Collective coll(c, kProcs);
    std::vector<double> sums(kProcs), maxes(kProcs);

    for (int r = 0; r < kProcs; ++r) {
        c.spawnOn(r, "rank", [&, r] {
            coll.init(r);
            sums[r] = coll.reduceSum(r, double(r + 1));
            maxes[r] = coll.reduceMax(r, double((r * 7) % 5));
        });
    }
    c.run();
    for (int r = 0; r < kProcs; ++r) {
        EXPECT_DOUBLE_EQ(sums[r], 21.0);
        EXPECT_DOUBLE_EQ(maxes[r], 4.0);
    }
}

TEST(Collective, RepeatedBarriersStayCoherent)
{
    Cluster c;
    const int kProcs = 4;
    const int kIters = 50;
    Collective coll(c, kProcs);
    std::vector<int> counts(kProcs, 0);
    int shared_phase = 0;
    bool mismatch = false;

    for (int r = 0; r < kProcs; ++r) {
        c.spawnOn(r, "rank", [&, r] {
            coll.init(r);
            for (int i = 0; i < kIters; ++i) {
                if (r == 0)
                    ++shared_phase;
                coll.barrier(r);
                if (shared_phase != i + 1)
                    mismatch = true;
                coll.barrier(r);
                ++counts[r];
            }
        });
    }
    c.run();
    EXPECT_FALSE(mismatch);
    for (int r = 0; r < kProcs; ++r)
        EXPECT_EQ(counts[r], kIters);
}

TEST(Vmmc, BaselineNicMovesDataButSlower)
{
    auto latency = [](NicKind kind) {
        ClusterConfig cfg;
        cfg.nicKind = kind;
        Cluster c(cfg);
        char *rbuf = pageBuf(c, 1, node::kPageBytes);
        ExportId exp = kInvalidExport;
        Tick sent_at = 0, seen_at = 0;
        c.spawnOn(1, "recv", [&] {
            exp = c.vmmc(1).exportBuffer(rbuf, node::kPageBytes);
            c.vmmc(1).waitUntil([&] { return rbuf[0] == 1; });
            seen_at = c.sim().now();
        });
        c.spawnOn(0, "send", [&] {
            auto &ep = c.vmmc(0);
            while (exp == kInvalidExport)
                c.sim().delay(microseconds(10));
            ProxyId p = ep.import(1, exp);
            c.sim().delay(microseconds(50));
            char one = 1;
            sent_at = c.sim().now();
            ep.send(p, &one, 1, 0);
        });
        c.run();
        return toMicroseconds(seen_at - sent_at);
    };

    double shrimp = latency(NicKind::Shrimp);
    double myrinet = latency(NicKind::Baseline);
    // Sec 4.1: SHRIMP ~6 us, Myrinet VMMC ~10 us.
    EXPECT_LT(shrimp, myrinet);
    EXPECT_GT(myrinet, 7.0);
    EXPECT_LT(myrinet, 14.0);
}

TEST(Vmmc, AuBindingOnBaselineNicFails)
{
    ClusterConfig cfg;
    cfg.nicKind = NicKind::Baseline;
    Cluster c(cfg);
    EXPECT_FALSE(c.vmmc(0).auSupported());
}

/**
 * @file
 * Unit tests for the mesh: topology/routing, delivery timing,
 * contention and ordering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mesh/network.hh"
#include "mesh/topology.hh"
#include "sim/simulation.hh"

using namespace shrimp;
using namespace shrimp::mesh;

TEST(Topology, CoordinateMapping)
{
    Topology t(4, 4);
    EXPECT_EQ(t.nodeCount(), 16);
    EXPECT_EQ(t.coordOf(0), (Coord{0, 0}));
    EXPECT_EQ(t.coordOf(5), (Coord{1, 1}));
    EXPECT_EQ(t.coordOf(15), (Coord{3, 3}));
    for (NodeId id = 0; id < 16; ++id)
        EXPECT_EQ(t.idOf(t.coordOf(id)), id);
}

TEST(Topology, HopCounts)
{
    Topology t(4, 4);
    EXPECT_EQ(t.hops(0, 0), 0);
    EXPECT_EQ(t.hops(0, 3), 3);
    EXPECT_EQ(t.hops(0, 15), 6);
    EXPECT_EQ(t.hops(5, 6), 1);
}

TEST(Topology, XyRouteIsDimensionOrdered)
{
    Topology t(4, 4);
    // 0 (0,0) -> 10 (2,2): two +x links then two +y links.
    auto path = t.route(0, 10);
    ASSERT_EQ(path.size(), 4u);
    EXPECT_EQ(path[0], t.linkIndex(0, 0));
    EXPECT_EQ(path[1], t.linkIndex(1, 0));
    EXPECT_EQ(path[2], t.linkIndex(2, 2));
    EXPECT_EQ(path[3], t.linkIndex(6, 2));
}

TEST(Topology, RouteToSelfIsEmpty)
{
    Topology t(4, 4);
    EXPECT_TRUE(t.route(7, 7).empty());
}

TEST(Topology, ReverseRouteUsesOppositeLinks)
{
    Topology t(4, 4);
    auto fwd = t.route(0, 3);
    auto rev = t.route(3, 0);
    EXPECT_EQ(fwd.size(), rev.size());
    // Forward uses +x from nodes 0,1,2; reverse uses -x from 3,2,1.
    EXPECT_EQ(rev[0], t.linkIndex(3, 1));
}

namespace
{

struct Arrival
{
    NodeId src;
    Tick when;
    std::uint32_t bytes;
};

/** Small harness collecting deliveries per node. */
struct NetHarness
{
    Simulation sim;
    Network net;
    std::vector<std::vector<Arrival>> arrivals;

    explicit NetHarness(const NetworkParams &p = NetworkParams())
        : net(sim, 4, 4, p), arrivals(16)
    {
        for (NodeId n = 0; n < 16; ++n) {
            net.attach(n, [this, n](const Packet &pkt) {
                arrivals[n].push_back(
                    Arrival{pkt.src, sim.now(), pkt.wireBytes});
            });
        }
    }

    void
    send(NodeId src, NodeId dst, std::uint32_t bytes)
    {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.wireBytes = bytes;
        net.send(std::move(p));
    }
};

} // anonymous namespace

TEST(Network, DeliversWithExpectedLatency)
{
    NetworkParams p;
    p.linkBytesPerSec = 200e6;
    p.hopLatency = nanoseconds(40);
    p.transceiverLatency = nanoseconds(50);
    NetHarness h(p);

    h.send(0, 1, 100);
    h.sim.run();
    ASSERT_EQ(h.arrivals[1].size(), 1u);
    // 1 hop: 2 transceivers + hop latency + serialization (100 B at
    // 200 MB/s = 500 ns).
    Tick expect = nanoseconds(50) + nanoseconds(40) +
                  transferTime(100, 200e6) + nanoseconds(50);
    EXPECT_EQ(h.arrivals[1][0].when, expect);
}

TEST(Network, FartherNodesTakeLonger)
{
    NetHarness h;
    h.send(0, 1, 64);
    h.send(0, 15, 64);
    h.sim.run();
    ASSERT_EQ(h.arrivals[1].size(), 1u);
    ASSERT_EQ(h.arrivals[15].size(), 1u);
    EXPECT_LT(h.arrivals[1][0].when, h.arrivals[15][0].when);
}

TEST(Network, SamePairDeliveryIsInOrder)
{
    NetHarness h;
    for (std::uint32_t i = 1; i <= 20; ++i)
        h.send(2, 9, i * 16);
    h.sim.run();
    ASSERT_EQ(h.arrivals[9].size(), 20u);
    for (size_t i = 1; i < 20; ++i) {
        EXPECT_LE(h.arrivals[9][i - 1].when, h.arrivals[9][i].when);
        EXPECT_EQ(h.arrivals[9][i].bytes, (i + 1) * 16);
    }
}

TEST(Network, ContentionSerializesSharedLinks)
{
    // Two large packets crossing the same link back-to-back arrive
    // roughly a serialization time apart; independent paths don't.
    NetHarness h;
    h.send(0, 3, 4096);
    h.send(0, 3, 4096);
    h.sim.run();
    ASSERT_EQ(h.arrivals[3].size(), 2u);
    Tick gap = h.arrivals[3][1].when - h.arrivals[3][0].when;
    EXPECT_GE(gap, transferTime(4096, 200e6));
}

TEST(Network, DisjointPathsDontInterfere)
{
    NetHarness h;
    h.send(0, 1, 4096);
    h.send(4, 5, 4096);
    h.sim.run();
    ASSERT_EQ(h.arrivals[1].size(), 1u);
    ASSERT_EQ(h.arrivals[5].size(), 1u);
    EXPECT_EQ(h.arrivals[1][0].when, h.arrivals[5][0].when);
}

TEST(Network, LoopbackChargesSerialization)
{
    // Regression: loopback used to deliver after loopbackLatency alone,
    // making a node-local 4 KB transfer as fast as a 4-byte one. The
    // payload still streams through the adapter at link bandwidth.
    NetworkParams p;
    NetHarness h(p);
    h.send(6, 6, 512);
    h.sim.run();
    ASSERT_EQ(h.arrivals[6].size(), 1u);
    EXPECT_EQ(h.arrivals[6][0].when,
              p.loopbackLatency + transferTime(512, p.linkBytesPerSec));
}

TEST(Network, LoopbackBigPacketsSlowerThanSmall)
{
    NetworkParams p;
    NetHarness small(p), big(p);
    small.send(6, 6, 4);
    big.send(6, 6, 4096);
    small.sim.run();
    big.sim.run();
    ASSERT_EQ(small.arrivals[6].size(), 1u);
    ASSERT_EQ(big.arrivals[6].size(), 1u);
    Tick gap = big.arrivals[6][0].when - small.arrivals[6][0].when;
    EXPECT_EQ(gap, transferTime(4096, p.linkBytesPerSec) -
                       transferTime(4, p.linkBytesPerSec));
}

TEST(Network, LoopbackBackToBackSerializes)
{
    // Two loopback sends issued at the same instant share the internal
    // path, like two packets sharing a link.
    NetworkParams p;
    NetHarness h(p);
    h.send(6, 6, 2048);
    h.send(6, 6, 2048);
    h.sim.run();
    ASSERT_EQ(h.arrivals[6].size(), 2u);
    Tick gap = h.arrivals[6][1].when - h.arrivals[6][0].when;
    EXPECT_EQ(gap, transferTime(2048, p.linkBytesPerSec));
}

TEST(Network, MemoizedRouteMatchesTopology)
{
    NetHarness h;
    const Topology &t = h.net.topology();
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            auto expect = t.route(s, d);
            // Query twice: the second hit must come from the cache and
            // still match.
            for (int pass = 0; pass < 2; ++pass) {
                auto [begin, end] = h.net.route(s, d);
                ASSERT_EQ(std::size_t(end - begin), expect.size());
                EXPECT_TRUE(std::equal(begin, end, expect.begin()));
            }
        }
    }
}

TEST(Network, MeshPacketsCountsHardwarePackets)
{
    // An AU train event carries hwPackets wire packets; mesh.packets
    // must count them all so it agrees with the NIC's packets_in.
    NetHarness h;
    Packet p;
    p.src = 0;
    p.dst = 3;
    p.wireBytes = 256;
    p.hwPackets = 16;
    h.net.send(std::move(p));
    h.sim.run();
    EXPECT_EQ(h.sim.stats().counterValue("mesh.packets"), 16u);
}

TEST(Network, ManyToOneCongestsEjectionLinks)
{
    // All nodes blast node 0; total delivery span must be at least
    // the serialization of all traffic over node 0's ejection links.
    NetHarness h;
    const std::uint32_t kBytes = 2048;
    for (NodeId n = 1; n < 16; ++n)
        for (int i = 0; i < 4; ++i)
            h.send(n, 0, kBytes);
    h.sim.run();
    ASSERT_EQ(h.arrivals[0].size(), 60u);
    Tick last = 0;
    for (auto &a : h.arrivals[0])
        last = std::max(last, a.when);
    // Node 0 has two incoming links (from +x and +y neighbours); at
    // most 2 x 200 MB/s can arrive concurrently.
    Tick floor = transferTime(60 * kBytes / 2, 200e6);
    EXPECT_GE(last, floor);
}

// ----------------------------------------------------------------------
// The packet pool
// ----------------------------------------------------------------------

TEST(PacketPool, RecyclesSlotsLifo)
{
    PacketPool pool;
    PacketPool::Ref a = pool.acquire();
    EXPECT_EQ(pool.inUse(), 1u);
    pool.release(a.id);
    EXPECT_EQ(pool.inUse(), 0u);
    // The freed slot is the next one handed out: steady-state traffic
    // keeps touching the same hot records.
    PacketPool::Ref b = pool.acquire();
    EXPECT_EQ(b.pkt, a.pkt);
    EXPECT_EQ(b.id, a.id);
    pool.release(b.id);
}

TEST(PacketPool, GrowsByWholeSlabsAndKeepsOldSlots)
{
    PacketPool pool;
    std::vector<PacketPool::Ref> held;
    for (int i = 0; i < 300; ++i)
        held.push_back(pool.acquire());
    EXPECT_EQ(pool.inUse(), 300u);
    EXPECT_EQ(pool.capacity(), 512u); // two 256-slot slabs
    // Slabs never move: every pointer handed out stays distinct and
    // valid across growth, and ids go out lowest first.
    std::vector<Packet *> sorted;
    for (std::size_t i = 0; i < held.size(); ++i) {
        EXPECT_EQ(held[i].id, std::uint32_t(i));
        sorted.push_back(held[i].pkt);
    }
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());
    for (const PacketPool::Ref &r : held)
        pool.release(r.id);
    EXPECT_EQ(pool.inUse(), 0u);
    EXPECT_EQ(pool.capacity(), 512u);
}

TEST(PacketPool, ReleaseDropsPayloadReference)
{
    PacketPool pool;
    std::shared_ptr<void> payload =
        std::make_shared<std::vector<std::uint8_t>>(64);
    PacketPool::Ref r = pool.acquire();
    Packet src;
    src.payload = payload;
    *r.pkt = src;
    EXPECT_EQ(payload.use_count(), 3); // local + src + pool slot
    pool.release(r.id);
    src.payload.reset();
    // The pool does not pin payload memory while a slot sits free.
    EXPECT_EQ(payload.use_count(), 1);
}

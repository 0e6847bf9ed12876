/**
 * @file
 * Tests for the NX message-passing library: typed delivery, ordering,
 * flow control, collectives, and the AU variant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "msg/nx.hh"

using namespace shrimp;
using namespace shrimp::msg;

namespace
{

struct NxFixtureResult
{
    bool ok = true;
};

} // anonymous namespace

TEST(Nx, PingPong)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    NxDomain dom(c, cfg);
    std::vector<int> got;

    c.spawnOn(0, "rank0", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        int v = 42;
        nx.csend(7, &v, sizeof(v), 1);
        int r = 0;
        EXPECT_EQ(nx.crecv(8, &r, sizeof(r)), sizeof(r));
        got.push_back(r);
    });
    c.spawnOn(1, "rank1", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        int r = 0;
        EXPECT_EQ(nx.crecv(7, &r, sizeof(r)), sizeof(r));
        got.push_back(r);
        int v = r + 1;
        nx.csend(8, &v, sizeof(v), 0);
    });
    c.run();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], 42);
    EXPECT_EQ(got[1], 43);
}

TEST(Nx, MessagesArriveInOrderPerPair)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    NxDomain dom(c, cfg);
    std::vector<int> received;

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        for (int i = 0; i < 200; ++i)
            nx.csend(1, &i, sizeof(i), 1);
    });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        for (int i = 0; i < 200; ++i) {
            int v;
            nx.crecv(1, &v, sizeof(v));
            received.push_back(v);
        }
    });
    c.run();
    ASSERT_EQ(received.size(), 200u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(received[i], i);
}

TEST(Nx, TypeSelectorsMatchSelectively)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    NxDomain dom(c, cfg);
    std::vector<int> order;

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        int a = 100, b = 200;
        nx.csend(/*type=*/5, &a, sizeof(a), 1);
        nx.csend(/*type=*/6, &b, sizeof(b), 1);
    });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        int v;
        // Receive type 6 first even though type 5 arrived earlier.
        nx.crecv(6, &v, sizeof(v));
        order.push_back(v);
        nx.crecv(5, &v, sizeof(v));
        order.push_back(v);
    });
    c.run();
    EXPECT_EQ(order, (std::vector<int>{200, 100}));
}

TEST(Nx, WildcardReceivesAnything)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 3;
    NxDomain dom(c, cfg);
    int total = 0;

    for (int r = 1; r < 3; ++r) {
        c.spawnOn(r, "sender", [&, r] {
            dom.init(r);
            auto &nx = dom.process(r);
            int v = r;
            nx.csend(r, &v, sizeof(v), 0);
        });
    }
    c.spawnOn(0, "receiver", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        for (int i = 0; i < 2; ++i) {
            int v = 0, src = -1;
            nx.crecvProbe(-1, -1, &v, sizeof(v), &src);
            EXPECT_EQ(v, src);
            total += v;
        }
    });
    c.run();
    EXPECT_EQ(total, 3);
}

TEST(Nx, TypedReceivesFollowDrainOrderAcrossSenders)
{
    // Every message lands before rank 0's first receive, so its first
    // drain queues them sender by sender, each in ring order:
    //   rank 1: 101 A, 102 B, 103 A, 104 C
    //   rank 2: 201 B, 202 C, 203 A
    //   rank 3: 301 C, 302 A, 303 B, 304 B
    // Each receive, named or not, and each iprobe takes the earliest
    // drained message that matches. A message's length is its value.
    constexpr int A = 1, B = 2, C = 3;
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 4;
    NxDomain dom(c, cfg);
    const std::vector<std::vector<std::pair<int, int>>> sends = {
        {},
        {{A, 101}, {B, 102}, {A, 103}, {C, 104}},
        {{B, 201}, {C, 202}, {A, 203}},
        {{C, 301}, {A, 302}, {B, 303}, {B, 304}},
    };
    std::vector<long> got;

    for (int r = 1; r < 4; ++r) {
        c.spawnOn(r, "sender", [&, r] {
            dom.init(r);
            auto &nx = dom.process(r);
            for (auto [type, value] : sends[r]) {
                std::vector<char> payload(value, char(value));
                nx.csend(type, payload.data(), payload.size(), 0);
            }
            nx.gsync();
            if (r == 1) {
                std::vector<char> payload(105, char(105));
                nx.csend(C, payload.data(), payload.size(), 0);
            }
        });
    }
    c.spawnOn(0, "receiver", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        std::vector<char> buf(512);
        // Records the length, negated if the sender or bytes are wrong.
        auto recv = [&](int typesel, int from) {
            int src = -1;
            long len = long(nx.crecvProbe(typesel, from, buf.data(),
                                          buf.size(), &src));
            bool intact =
                src == len / 100 &&
                std::all_of(buf.begin(), buf.begin() + len,
                            [len](char ch) { return ch == char(len); });
            got.push_back(intact ? len : -len);
        };
        c.sim().delay(milliseconds(1));
        got.push_back(nx.iprobe(C));
        recv(C, 3);
        recv(A, -1);
        recv(A, 2);
        got.push_back(nx.iprobe(A));
        recv(B, -1);
        recv(-1, -1);
        recv(B, 3);
        recv(C, -1);
        // Left: 201 B, 202 C, 302 A, 304 B. Rank 1's 105 C lands
        // after the barrier and drains after all of them.
        nx.gsync();
        c.sim().delay(milliseconds(1));
        recv(C, -1);
        recv(-1, 1);
        recv(-1, -1);
        got.push_back(nx.iprobe(B));
        recv(-1, -1);
        recv(-1, -1);
        got.push_back(nx.iprobe(-1));
    });
    c.run();
    EXPECT_EQ(got, (std::vector<long>{104, 301, 101, 203, 103, 102, 103,
                                      303, 104, 202, 105, 201, 304, 302,
                                      304, -1}));
}

TEST(Nx, ReceiveFromABadSourceRankIsFatal)
{
    EXPECT_DEATH(
        {
            core::Cluster c;
            NxConfig cfg;
            cfg.nprocs = 2;
            NxDomain dom(c, cfg);
            c.spawnOn(0, "rank0", [&] { dom.init(0); });
            c.spawnOn(1, "rank1", [&] {
                dom.init(1);
                int v;
                dom.process(1).crecvProbe(-1, 2, &v, sizeof(v), nullptr);
            });
            c.run();
        },
        "bad source rank 2");
}

TEST(Nx, LargeMessagesAndRingWrap)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    cfg.ringBytes = 64 * 1024;
    NxDomain dom(c, cfg);
    bool all_ok = false;

    const std::size_t kMsg = 20 * 1024;
    const int kCount = 12; // wraps the 64 KB ring several times

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        std::vector<char> buf(kMsg);
        for (int i = 0; i < kCount; ++i) {
            for (std::size_t j = 0; j < kMsg; ++j)
                buf[j] = char(i * 7 + j * 13);
            nx.csend(3, buf.data(), kMsg, 1);
        }
    });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        std::vector<char> buf(kMsg);
        bool ok = true;
        for (int i = 0; i < kCount; ++i) {
            EXPECT_EQ(nx.crecv(3, buf.data(), kMsg), kMsg);
            for (std::size_t j = 0; j < kMsg; ++j)
                ok = ok && buf[j] == char(i * 7 + j * 13);
        }
        all_ok = ok;
    });
    c.run();
    EXPECT_TRUE(all_ok);
}

TEST(Nx, FlowControlBlocksFastSender)
{
    // A sender outpacing a slow receiver must not overrun the ring;
    // all messages still arrive intact.
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    cfg.ringBytes = 16 * 1024;
    NxDomain dom(c, cfg);
    int sum = 0;

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        std::vector<char> payload(2048, 1);
        for (int i = 0; i < 64; ++i)
            nx.csend(9, payload.data(), payload.size(), 1);
    });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        std::vector<char> buf(2048);
        for (int i = 0; i < 64; ++i) {
            c.sim().delay(microseconds(200)); // slow consumer
            nx.crecv(9, buf.data(), buf.size());
            sum += buf[17];
        }
    });
    c.run();
    EXPECT_EQ(sum, 64);
}

TEST(Nx, IprobeSeesPendingMessage)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    NxDomain dom(c, cfg);
    long probe_before = -2, probe_after = -2;

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        double v = 2.5;
        nx.csend(4, &v, sizeof(v), 1);
    });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        // Wait for arrival, then probe.
        double v;
        while (nx.iprobe(4) < 0)
            c.sim().delay(microseconds(50));
        probe_before = nx.iprobe(4);
        nx.crecv(4, &v, sizeof(v));
        probe_after = nx.iprobe(4);
    });
    c.run();
    EXPECT_EQ(probe_before, long(sizeof(double)));
    EXPECT_EQ(probe_after, -1);
}

TEST(Nx, GsyncAndReductions)
{
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 8;
    NxDomain dom(c, cfg);
    std::vector<double> sums(8), highs(8);

    for (int r = 0; r < 8; ++r) {
        c.spawnOn(r, "rank", [&, r] {
            dom.init(r);
            auto &nx = dom.process(r);
            nx.gsync();
            sums[r] = nx.gdsum(double(r));
            highs[r] = nx.gdhigh(double(r % 3));
            nx.gsync();
        });
    }
    c.run();
    for (int r = 0; r < 8; ++r) {
        EXPECT_DOUBLE_EQ(sums[r], 28.0);
        EXPECT_DOUBLE_EQ(highs[r], 2.0);
    }
}

class NxTransportTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(NxTransportTest, BulkDataIsIdenticalUnderDuAndAu)
{
    // Property: the AU transport (Sec 4.2 what-if) must deliver
    // byte-identical data, only timing differs.
    bool use_au = GetParam();
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    cfg.useAutomaticUpdate = use_au;
    NxDomain dom(c, cfg);
    std::uint64_t checksum = 0;

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        std::vector<std::uint32_t> data(4096);
        std::iota(data.begin(), data.end(), 77u);
        nx.csend(2, data.data(), data.size() * 4, 1);
    });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        std::vector<std::uint32_t> data(4096);
        nx.crecv(2, data.data(), data.size() * 4);
        for (auto v : data)
            checksum += v;
    });
    c.run();
    std::uint64_t expect = 0;
    for (std::uint32_t i = 0; i < 4096; ++i)
        expect += 77u + i;
    EXPECT_EQ(checksum, expect);
}

TEST_P(NxTransportTest, PendingMessageKeepsItsBytesWhenItsSlotIsReused)
{
    // A message waits while 40 later ones of another type from the
    // same sender are received. Their credits let the sender wrap the
    // 16 KB ring over the waiting message's slot twice; the message
    // must still read back what was sent.
    bool use_au = GetParam();
    core::Cluster c;
    NxConfig cfg;
    cfg.nprocs = 2;
    cfg.ringBytes = 16 * 1024;
    cfg.useAutomaticUpdate = use_au;
    NxDomain dom(c, cfg);
    const std::size_t kBytes = 1000;
    const int kLater = 40;
    int later_intact = 0;
    bool kept = false;

    c.spawnOn(0, "sender", [&] {
        dom.init(0);
        auto &nx = dom.process(0);
        std::vector<char> buf(kBytes, 'k');
        nx.csend(1, buf.data(), kBytes, 1);
        for (int i = 0; i < kLater; ++i) {
            std::fill(buf.begin(), buf.end(), char(i));
            nx.csend(2, buf.data(), kBytes, 1);
        }
    });
    c.spawnOn(1, "receiver", [&] {
        dom.init(1);
        auto &nx = dom.process(1);
        std::vector<char> buf(kBytes);
        for (int i = 0; i < kLater; ++i) {
            EXPECT_EQ(nx.crecv(2, buf.data(), kBytes), kBytes);
            if (std::count(buf.begin(), buf.end(), char(i)) == kBytes)
                ++later_intact;
        }
        EXPECT_EQ(nx.crecv(1, buf.data(), kBytes), kBytes);
        kept = std::count(buf.begin(), buf.end(), 'k') == kBytes;
    });
    c.run();
    EXPECT_EQ(later_intact, kLater);
    EXPECT_TRUE(kept);
}

INSTANTIATE_TEST_SUITE_P(DuAndAu, NxTransportTest,
                         ::testing::Values(false, true));

TEST(Nx, AuBulkTransferIsSlowerThanDu)
{
    // Sec 4.2: for large message sends the DMA performance of
    // deliberate update overrides AU's lower latency.
    auto run_once = [](bool use_au) {
        core::Cluster c;
        NxConfig cfg;
        cfg.nprocs = 2;
        cfg.useAutomaticUpdate = use_au;
        NxDomain dom(c, cfg);
        Tick elapsed = 0;
        const std::size_t kBytes = 48 * 1024;
        const int kIters = 8;
        c.spawnOn(0, "sender", [&] {
            dom.init(0);
            auto &nx = dom.process(0);
            std::vector<char> data(kBytes, 5);
            nx.gsync();
            Tick t0 = c.sim().now();
            for (int i = 0; i < kIters; ++i) {
                nx.csend(1, data.data(), kBytes, 1);
                char ack;
                nx.crecv(2, &ack, 1);
            }
            elapsed = c.sim().now() - t0;
        });
        c.spawnOn(1, "receiver", [&] {
            dom.init(1);
            auto &nx = dom.process(1);
            std::vector<char> data(kBytes);
            nx.gsync();
            for (int i = 0; i < kIters; ++i) {
                nx.crecv(1, data.data(), kBytes);
                char ack = 1;
                nx.csend(2, &ack, 1, 0);
            }
        });
        c.run();
        return elapsed;
    };

    Tick du = run_once(false);
    Tick au = run_once(true);
    EXPECT_LT(du, au);
}

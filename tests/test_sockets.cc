/**
 * @file
 * Tests for the stream-sockets library: connection setup, stream
 * semantics, flow control, block transfers, AU variant.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "sockets/socket.hh"

using namespace shrimp;
using namespace shrimp::sock;

TEST(Sockets, ConnectAcceptAndEcho)
{
    core::Cluster c;
    SocketDomain dom(c);
    std::string reply;

    c.spawnOn(0, "server", [&] {
        Socket *s = dom.accept(0, 80);
        char buf[64];
        s->recvExact(buf, 5);
        EXPECT_EQ(std::memcmp(buf, "hello", 5), 0);
        s->send("world", 5);
    });
    c.spawnOn(1, "client", [&] {
        Socket *s = dom.connect(1, 0, 80);
        s->send("hello", 5);
        char buf[64] = {};
        s->recvExact(buf, 5);
        reply.assign(buf, 5);
    });
    c.run();
    EXPECT_EQ(reply, "world");
}

TEST(Sockets, StreamPreservesByteOrderAcrossManySends)
{
    core::Cluster c;
    SocketDomain dom(c);
    bool ok = false;

    c.spawnOn(2, "server", [&] {
        Socket *s = dom.accept(2, 1234);
        std::vector<char> buf(64 * 1024);
        s->recvExact(buf.data(), buf.size());
        bool good = true;
        for (std::size_t i = 0; i < buf.size(); ++i)
            good = good && buf[i] == char(i % 251);
        ok = good;
    });
    c.spawnOn(5, "client", [&] {
        Socket *s = dom.connect(5, 2, 1234);
        std::vector<char> buf(64 * 1024);
        for (std::size_t i = 0; i < buf.size(); ++i)
            buf[i] = char(i % 251);
        // Send in odd-sized pieces to shake out framing bugs.
        std::size_t off = 0;
        std::size_t sizes[] = {1, 7, 333, 4096, 9999, 17, 50000};
        int k = 0;
        while (off < buf.size()) {
            std::size_t n =
                std::min(sizes[k++ % 7], buf.size() - off);
            s->send(buf.data() + off, n);
            off += n;
        }
    });
    c.run();
    EXPECT_TRUE(ok);
}

TEST(Sockets, RecvReturnsPartialData)
{
    core::Cluster c;
    SocketDomain dom(c);
    std::size_t first_recv = 0;

    c.spawnOn(0, "server", [&] {
        Socket *s = dom.accept(0, 9);
        char buf[1024];
        first_recv = s->recv(buf, sizeof(buf));
    });
    c.spawnOn(1, "client", [&] {
        Socket *s = dom.connect(1, 0, 9);
        s->send("abc", 3);
    });
    c.run();
    EXPECT_EQ(first_recv, 3u);
}

TEST(Sockets, FlowControlWithSmallBuffer)
{
    core::Cluster c;
    SocketConfig cfg;
    cfg.bufBytes = 8 * 1024;
    SocketDomain dom(c, cfg);
    std::uint64_t received = 0;

    const std::size_t kTotal = 256 * 1024;

    c.spawnOn(0, "server", [&] {
        Socket *s = dom.accept(0, 1);
        std::vector<char> buf(4096);
        std::size_t left = kTotal;
        while (left > 0) {
            std::size_t n = s->recv(buf.data(), buf.size());
            for (std::size_t i = 0; i < n; ++i)
                received += std::uint8_t(buf[i]);
            left -= n;
        }
    });
    c.spawnOn(3, "client", [&] {
        Socket *s = dom.connect(3, 0, 1);
        std::vector<char> buf(kTotal, 2);
        s->send(buf.data(), buf.size());
    });
    c.run();
    EXPECT_EQ(received, kTotal * 2);
}

TEST(Sockets, MultipleConnectionsOnDifferentPorts)
{
    core::Cluster c;
    SocketDomain dom(c);
    int sum = 0;

    for (int port = 100; port < 104; ++port) {
        c.spawnOn(0, "server", [&, port] {
            Socket *s = dom.accept(0, port);
            int v;
            s->recvExact(&v, sizeof(v));
            sum += v;
        });
    }
    for (int i = 0; i < 4; ++i) {
        c.spawnOn(i + 1, "client", [&, i] {
            Socket *s = dom.connect(i + 1, 0, 100 + i);
            int v = 1 << i;
            s->send(&v, sizeof(v));
        });
    }
    c.run();
    EXPECT_EQ(sum, 15);
}

TEST(Sockets, BlockTransferSkipsStagingCopyCost)
{
    auto run_once = [](bool block) {
        core::Cluster c;
        SocketDomain dom(c);
        Tick elapsed = 0;
        const std::size_t kBytes = 512 * 1024;
        c.spawnOn(0, "server", [&] {
            Socket *s = dom.accept(0, 5);
            std::vector<char> buf(kBytes);
            s->recvBlock(buf.data(), kBytes);
            char done = 1;
            s->send(&done, 1);
        });
        c.spawnOn(1, "client", [&, block] {
            Socket *s = dom.connect(1, 0, 5);
            std::vector<char> buf(kBytes, 7);
            Tick t0 = c.sim().now();
            if (block)
                s->sendBlock(buf.data(), kBytes);
            else
                s->send(buf.data(), kBytes);
            char done;
            s->recvExact(&done, 1);
            elapsed = c.sim().now() - t0;
        });
        c.run();
        return elapsed;
    };
    Tick with_copy = run_once(false);
    Tick zero_copy = run_once(true);
    EXPECT_LT(zero_copy, with_copy);
}

class SocketsAuTest
    : public ::testing::TestWithParam<std::pair<bool, bool>>
{
};

TEST_P(SocketsAuTest, DataIntactUnderAllTransports)
{
    auto [use_au, combining] = GetParam();
    core::ClusterConfig cc;
    cc.shrimpNic.combiningEnabled = combining;
    core::Cluster c(cc);
    SocketConfig cfg;
    cfg.useAutomaticUpdate = use_au;
    SocketDomain dom(c, cfg);
    std::uint64_t checksum = 0;
    const std::size_t kBytes = 96 * 1024;

    c.spawnOn(0, "server", [&] {
        Socket *s = dom.accept(0, 7);
        std::vector<char> buf(kBytes);
        s->recvExact(buf.data(), kBytes);
        for (char ch : buf)
            checksum += std::uint8_t(ch);
    });
    c.spawnOn(1, "client", [&] {
        Socket *s = dom.connect(1, 0, 7);
        std::vector<char> buf(kBytes);
        for (std::size_t i = 0; i < kBytes; ++i)
            buf[i] = char(i * 11 + 3);
        s->send(buf.data(), kBytes);
    });
    c.run();

    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < kBytes; ++i)
        expect += std::uint8_t(char(i * 11 + 3));
    EXPECT_EQ(checksum, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, SocketsAuTest,
    ::testing::Values(std::make_pair(false, true),
                      std::make_pair(true, true),
                      std::make_pair(true, false)));

TEST(Sockets, AuWithoutCombiningIsMuchSlower)
{
    // Sec 4.5.1: DFS-sockets runs about 2x slower when forced to use
    // AU without combining. Reproduce the transport-level effect.
    auto run_once = [](bool use_au, bool combining) {
        core::ClusterConfig cc;
        cc.shrimpNic.combiningEnabled = combining;
        core::Cluster c(cc);
        SocketConfig cfg;
        cfg.useAutomaticUpdate = use_au;
        SocketDomain dom(c, cfg);
        Tick elapsed = 0;
        const std::size_t kBytes = 256 * 1024;
        c.spawnOn(0, "server", [&] {
            Socket *s = dom.accept(0, 2);
            std::vector<char> buf(kBytes);
            s->recvExact(buf.data(), kBytes);
            char done = 1;
            s->send(&done, 1);
        });
        c.spawnOn(1, "client", [&] {
            Socket *s = dom.connect(1, 0, 2);
            std::vector<char> buf(kBytes, 9);
            Tick t0 = c.sim().now();
            s->sendBlock(buf.data(), kBytes);
            char done;
            s->recvExact(&done, 1);
            elapsed = c.sim().now() - t0;
        });
        c.run();
        return elapsed;
    };

    Tick au_comb = run_once(true, true);
    Tick au_nocomb = run_once(true, false);
    double ratio = double(au_nocomb) / double(au_comb);
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 4.0);
}

/**
 * @file
 * Tests for the all-pairs VMMC mailbox used by the native-VMMC
 * applications.
 */

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstring>
#include <vector>

#include "apps/mailbox.hh"

using namespace shrimp;
using namespace shrimp::apps;

namespace
{

/** Whether the model page at @p page is resident in host memory. */
bool
resident(const char *page)
{
    unsigned char v = 0;
    EXPECT_EQ(::mincore(const_cast<char *>(page), node::kPageBytes, &v),
              0);
    return v & 1;
}

} // anonymous namespace

TEST(Mailbox, RoundTripBetweenTwoRanks)
{
    core::Cluster c;
    Mailbox mbox(c, 2, 4096);
    std::string got;

    c.spawnOn(0, "a", [&] {
        mbox.init(0);
        mbox.send(0, 1, "ping", 4);
        std::size_t n = 0;
        const char *d = static_cast<const char *>(mbox.recv(0, 1, &n));
        got.assign(d, n);
    });
    c.spawnOn(1, "b", [&] {
        mbox.init(1);
        std::size_t n = 0;
        const char *d = static_cast<const char *>(mbox.recv(1, 0, &n));
        EXPECT_EQ(std::string(d, n), "ping");
        mbox.send(1, 0, "pong!", 5);
    });
    c.run();
    EXPECT_EQ(got, "pong!");
}

TEST(Mailbox, AlternatingSequenceStaysInSync)
{
    core::Cluster c;
    Mailbox mbox(c, 2, 256);
    int mismatches = 0;

    c.spawnOn(0, "a", [&] {
        mbox.init(0);
        for (std::uint32_t i = 0; i < 50; ++i) {
            mbox.send(0, 1, &i, sizeof(i));
            std::size_t n = 0;
            const auto *v = static_cast<const std::uint32_t *>(
                mbox.recv(0, 1, &n));
            if (n != sizeof(std::uint32_t) || *v != i * 2)
                ++mismatches;
        }
    });
    c.spawnOn(1, "b", [&] {
        mbox.init(1);
        for (std::uint32_t i = 0; i < 50; ++i) {
            std::size_t n = 0;
            const auto *v = static_cast<const std::uint32_t *>(
                mbox.recv(1, 0, &n));
            std::uint32_t reply = *v * 2;
            mbox.send(1, 0, &reply, sizeof(reply));
        }
    });
    c.run();
    EXPECT_EQ(mismatches, 0);
}

TEST(Mailbox, AllPairsExchange)
{
    core::Cluster c;
    const int kProcs = 6;
    Mailbox mbox(c, kProcs, 128);
    std::vector<std::uint64_t> sums(kProcs, 0);

    for (int r = 0; r < kProcs; ++r) {
        c.spawnOn(r, "rank", [&, r] {
            mbox.init(r);
            for (int peer = 0; peer < kProcs; ++peer) {
                if (peer == r)
                    continue;
                std::uint32_t v = std::uint32_t(r * 100 + peer);
                mbox.send(r, peer, &v, sizeof(v));
            }
            std::uint64_t s = 0;
            for (int peer = 0; peer < kProcs; ++peer) {
                if (peer == r)
                    continue;
                std::size_t n = 0;
                const auto *v = static_cast<const std::uint32_t *>(
                    mbox.recv(r, peer, &n));
                s += *v;
            }
            sums[r] = s;
        });
    }
    c.run();
    for (int r = 0; r < kProcs; ++r) {
        std::uint64_t expect = 0;
        for (int peer = 0; peer < kProcs; ++peer)
            if (peer != r)
                expect += std::uint64_t(peer * 100 + r);
        EXPECT_EQ(sums[r], expect) << "rank " << r;
    }
}

TEST(Mailbox, LargePayloadNearCapacity)
{
    core::Cluster c;
    const std::size_t kCap = 48 * 1024;
    Mailbox mbox(c, 2, kCap);
    bool ok = false;

    c.spawnOn(0, "a", [&] {
        mbox.init(0);
        std::vector<char> data(kCap);
        for (std::size_t i = 0; i < kCap; ++i)
            data[i] = char(i * 13 + 7);
        mbox.send(0, 1, data.data(), data.size());
    });
    c.spawnOn(1, "b", [&] {
        mbox.init(1);
        std::size_t n = 0;
        const char *d = static_cast<const char *>(mbox.recv(1, 0, &n));
        bool good = (n == kCap);
        for (std::size_t i = 0; good && i < kCap; ++i)
            good = d[i] == char(i * 13 + 7);
        ok = good;
    });
    c.run();
    EXPECT_TRUE(ok);
}

TEST(Mailbox, OversizedMessageIsFatal)
{
    EXPECT_DEATH(
        {
            core::Cluster c;
            Mailbox mbox(c, 2, 64);
            c.spawnOn(0, "a", [&] {
                mbox.init(0);
                char big[256] = {};
                mbox.send(0, 1, big, sizeof(big));
            });
            c.spawnOn(1, "b", [&] { mbox.init(1); });
            c.run();
        },
        "exceeds slot");
}

TEST(Mailbox, EmptyMessageDeliversZeroBytes)
{
    core::Cluster c;
    Mailbox mbox(c, 2, 64);
    std::size_t got = 99;

    c.spawnOn(0, "a", [&] {
        mbox.init(0);
        mbox.send(0, 1, nullptr, 0);
    });
    c.spawnOn(1, "b", [&] {
        mbox.init(1);
        mbox.recv(1, 0, &got);
    });
    c.run();
    EXPECT_EQ(got, 0u);
}

/**
 * The stamp is the header's first word, so a message that fits the
 * slot's first page leaves the slot's other pages untouched. At 256
 * ranks that is one host page per rank pair, not two.
 */
TEST(Mailbox, SmallMessageTouchesOnlyTheSlotsFirstPage)
{
    core::Cluster c;
    Mailbox mbox(c, 2, 8192); // header + 8,192 bytes: three pages
    const char *slot = nullptr;

    c.spawnOn(0, "a", [&] {
        mbox.init(0);
        std::uint32_t v = 42;
        mbox.send(0, 1, &v, sizeof(v));
    });
    c.spawnOn(1, "b", [&] {
        mbox.init(1);
        std::size_t n = 0;
        const char *d = static_cast<const char *>(mbox.recv(1, 0, &n));
        EXPECT_EQ(n, sizeof(std::uint32_t));
        // Slots are page aligned and the payload follows the header.
        slot = d - reinterpret_cast<std::uintptr_t>(d) % node::kPageBytes;
    });
    c.run();
    ASSERT_NE(slot, nullptr);
    EXPECT_TRUE(resident(slot));
    EXPECT_FALSE(resident(slot + node::kPageBytes));
    EXPECT_FALSE(resident(slot + 2 * node::kPageBytes));
}

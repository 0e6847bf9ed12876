/**
 * @file
 * Tests for the shared-virtual-memory runtime: coherence under all
 * three protocols, twins/diffs, invalidations, locks, barriers, and
 * false-sharing merges at the home.
 */

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <numeric>
#include <vector>

#include "svm/svm.hh"

using namespace shrimp;
using namespace shrimp::svm;

namespace
{

/** All protocols, for parameterized coherence tests. */
const Protocol kAllProtocols[] = {Protocol::HLRC, Protocol::HLRC_AU,
                                  Protocol::AURC};

} // anonymous namespace

class SvmProtocolTest : public ::testing::TestWithParam<Protocol>
{
};

TEST_P(SvmProtocolTest, ProducerConsumerThroughBarrier)
{
    core::Cluster c;
    SvmConfig cfg;
    cfg.protocol = GetParam();
    cfg.nprocs = 4;
    cfg.heapBytes = 1 * 1024 * 1024;
    SvmRuntime rt(c, cfg);

    auto *data = rt.sharedAllocArray<std::uint32_t>(4096);
    std::vector<std::uint64_t> sums(4, 0);

    for (int r = 0; r < 4; ++r) {
        c.spawnOn(r, "rank", [&, r] {
            rt.init(r);
            SvmView v(rt, r);
            // Rank 0 produces, everyone consumes after the barrier.
            if (r == 0) {
                for (std::uint32_t i = 0; i < 4096; ++i)
                    v.write(&data[i], i * 3 + 1);
            }
            v.barrier();
            std::uint64_t s = 0;
            for (std::uint32_t i = 0; i < 4096; ++i)
                s += v.read(&data[i]);
            sums[r] = s;
            v.barrier();
        });
    }
    c.run();

    std::uint64_t expect = 0;
    for (std::uint32_t i = 0; i < 4096; ++i)
        expect += i * 3ull + 1;
    for (int r = 0; r < 4; ++r)
        EXPECT_EQ(sums[r], expect) << protocolName(cfg.protocol)
                                   << " rank " << r;
}

TEST_P(SvmProtocolTest, LockProtectedCounter)
{
    core::Cluster c;
    SvmConfig cfg;
    cfg.protocol = GetParam();
    cfg.nprocs = 4;
    cfg.heapBytes = 256 * 1024;
    SvmRuntime rt(c, cfg);

    auto *counter = rt.sharedAllocArray<std::uint32_t>(1);
    const int kIncsPerRank = 25;
    std::uint32_t final_value = 0;

    for (int r = 0; r < 4; ++r) {
        c.spawnOn(r, "rank", [&, r] {
            rt.init(r);
            SvmView v(rt, r);
            v.barrier();
            for (int i = 0; i < kIncsPerRank; ++i) {
                v.lock(3);
                std::uint32_t cur = v.read(&counter[0]);
                v.write(&counter[0], cur + 1);
                v.unlock(3);
            }
            v.barrier();
            if (r == 0)
                final_value = v.read(&counter[0]);
        });
    }
    c.run();
    EXPECT_EQ(final_value, 4u * kIncsPerRank)
        << protocolName(cfg.protocol);
}

TEST_P(SvmProtocolTest, FalseSharingMergesAtHome)
{
    // Two ranks write disjoint halves of the same page concurrently;
    // after a barrier everyone sees both halves.
    core::Cluster c;
    SvmConfig cfg;
    cfg.protocol = GetParam();
    cfg.nprocs = 4;
    cfg.heapBytes = 256 * 1024;
    SvmRuntime rt(c, cfg);

    auto *page = rt.sharedAllocArray<std::uint32_t>(1024); // one page
    bool ok[4] = {false, false, false, false};

    for (int r = 0; r < 4; ++r) {
        c.spawnOn(r, "rank", [&, r] {
            rt.init(r);
            SvmView v(rt, r);
            v.barrier();
            if (r == 1) {
                for (int i = 0; i < 512; ++i)
                    v.write(&page[i], 1000u + i);
            } else if (r == 2) {
                for (int i = 512; i < 1024; ++i)
                    v.write(&page[i], 2000u + i);
            }
            v.barrier();
            bool good = true;
            for (int i = 0; i < 512; ++i)
                good = good && v.read(&page[i]) == 1000u + i;
            for (int i = 512; i < 1024; ++i)
                good = good && v.read(&page[i]) == 2000u + i;
            ok[r] = good;
            v.barrier();
        });
    }
    c.run();
    for (int r = 0; r < 4; ++r)
        EXPECT_TRUE(ok[r]) << protocolName(cfg.protocol) << " rank "
                           << r;
}

TEST_P(SvmProtocolTest, MigratoryDataThroughLocks)
{
    // A value migrates around the ranks under a lock; each adds one.
    core::Cluster c;
    SvmConfig cfg;
    cfg.protocol = GetParam();
    cfg.nprocs = 4;
    cfg.heapBytes = 256 * 1024;
    SvmRuntime rt(c, cfg);

    auto *cell = rt.sharedAllocArray<std::uint32_t>(1);
    auto *turn = rt.sharedAllocArray<std::uint32_t>(1);
    std::uint32_t result = 0;
    const int kRounds = 3;

    for (int r = 0; r < 4; ++r) {
        c.spawnOn(r, "rank", [&, r] {
            rt.init(r);
            SvmView v(rt, r);
            v.barrier();
            for (int round = 0; round < kRounds * 4; ++round) {
                for (;;) {
                    v.lock(0);
                    std::uint32_t t = v.read(&turn[0]);
                    if (int(t % 4) == r) {
                        v.write(&cell[0], v.read(&cell[0]) + 1);
                        v.write(&turn[0], t + 1);
                        v.unlock(0);
                        break;
                    }
                    v.unlock(0);
                    c.sim().delay(microseconds(20));
                }
            }
            v.barrier();
            if (r == 0)
                result = v.read(&cell[0]);
        });
    }
    c.run();
    EXPECT_EQ(result, std::uint32_t(kRounds * 4 * 4))
        << protocolName(cfg.protocol);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SvmProtocolTest,
                         ::testing::ValuesIn(kAllProtocols),
                         [](const auto &info) {
                             std::string n = protocolName(info.param);
                             for (char &ch : n)
                                 if (ch == '-')
                                     ch = '_';
                             return n;
                         });

/**
 * Fresh arena memory reads as zero, so construction clears no heap
 * replica: a shared page nobody has touched costs no host memory on
 * any rank.
 */
TEST(SvmRuntime, ConstructionLeavesHeapReplicasUntouched)
{
    constexpr std::size_t kPages = 64;
    core::Cluster c;
    SvmConfig cfg;
    cfg.nprocs = 4;
    cfg.heapBytes = kPages * node::kPageBytes;
    SvmRuntime rt(c, cfg);

    void *heap = rt.sharedAlloc(cfg.heapBytes);
    for (int r = 0; r < cfg.nprocs; ++r) {
        std::vector<unsigned char> res(kPages);
        ASSERT_EQ(::mincore(rt.replicaAddr(r, heap), cfg.heapBytes,
                            res.data()),
                  0);
        int touched = 0;
        for (unsigned char v : res)
            touched += v & 1;
        EXPECT_EQ(touched, 0) << "rank " << r;
    }
}

TEST(Svm, HomeWritesNeedNoFaults)
{
    core::Cluster c;
    SvmConfig cfg;
    cfg.protocol = Protocol::HLRC;
    cfg.nprocs = 2;
    cfg.heapBytes = 256 * 1024;
    SvmRuntime rt(c, cfg);

    auto *arr = rt.sharedAllocArray<std::uint32_t>(4096);
    rt.setHomeBlock(arr, 4096 * 4, 0);

    c.spawnOn(0, "rank0", [&] {
        rt.init(0);
        SvmView v(rt, 0);
        v.barrier();
        for (int i = 0; i < 4096; ++i)
            v.write(&arr[i], 5u);
        v.barrier();
    });
    c.spawnOn(1, "rank1", [&] {
        rt.init(1);
        SvmView v(rt, 1);
        v.barrier();
        v.barrier();
    });
    c.run();
    EXPECT_EQ(rt.faults(0), 0u);
    EXPECT_EQ(rt.diffsCreated(0), 0u); // home writes make no diffs
}

TEST(Svm, HlrcCreatesTwinsAndDiffsAurcDoesNot)
{
    auto run_once = [](Protocol p) {
        core::Cluster c;
        SvmConfig cfg;
        cfg.protocol = p;
        cfg.nprocs = 2;
        cfg.heapBytes = 256 * 1024;
        SvmRuntime rt(c, cfg);
        auto *arr = rt.sharedAllocArray<std::uint32_t>(2048);
        rt.setHomeBlock(arr, 2048 * 4, 0);
        for (int r = 0; r < 2; ++r) {
            c.spawnOn(r, "rank", [&rt, r, arr] {
                rt.init(r);
                SvmView v(rt, r);
                v.barrier();
                if (r == 1) {
                    for (int i = 0; i < 2048; ++i)
                        v.write(&arr[i], std::uint32_t(i));
                }
                v.barrier();
            });
        }
        c.run();
        return rt.diffsCreated(1);
    };
    EXPECT_GT(run_once(Protocol::HLRC), 0u);
    EXPECT_GT(run_once(Protocol::HLRC_AU), 0u); // diffs still computed
    EXPECT_EQ(run_once(Protocol::AURC), 0u);    // eliminated entirely
}

TEST(Svm, InvalidationsForceRefetch)
{
    core::Cluster c;
    SvmConfig cfg;
    cfg.protocol = Protocol::HLRC;
    cfg.nprocs = 2;
    cfg.heapBytes = 256 * 1024;
    SvmRuntime rt(c, cfg);

    auto *cell = rt.sharedAllocArray<std::uint32_t>(1);
    rt.setHomeBlock(cell, 4, 0);
    std::vector<std::uint32_t> seen;

    for (int r = 0; r < 2; ++r) {
        c.spawnOn(r, "rank", [&, r] {
            rt.init(r);
            SvmView v(rt, r);
            for (int round = 1; round <= 3; ++round) {
                if (r == 0)
                    v.write(cell, std::uint32_t(round * 10));
                v.barrier();
                if (r == 1)
                    seen.push_back(v.read(cell));
                v.barrier();
            }
        });
    }
    c.run();
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{10, 20, 30}));
    // Rank 1 faulted at least once per invalidated round.
    EXPECT_GE(rt.faults(1), 3u);
}

TEST(Svm, TimeAccountCoversCategories)
{
    core::Cluster c;
    SvmConfig cfg;
    cfg.protocol = Protocol::HLRC;
    cfg.nprocs = 2;
    cfg.heapBytes = 512 * 1024;
    SvmRuntime rt(c, cfg);

    auto *arr = rt.sharedAllocArray<std::uint32_t>(8192);
    rt.setHomeBlock(arr, 8192 * 4, 0);

    std::vector<Process *> procs(2);
    for (int r = 0; r < 2; ++r) {
        procs[r] = c.spawnOn(r, "rank", [&, r] {
            rt.init(r);
            procs[r]->account.start(c.sim().now());
            SvmView v(rt, r);
            v.barrier();
            if (r == 1) {
                for (int i = 0; i < 8192; ++i)
                    v.write(&arr[i], 1u);
            }
            v.lock(1);
            v.unlock(1);
            v.barrier();
            procs[r]->account.stop(c.sim().now());
        });
    }
    c.run();

    const TimeAccount &acct = procs[1]->account;
    EXPECT_GT(acct.total(TimeCategory::Compute), 0u);
    EXPECT_GT(acct.total(TimeCategory::Communication), 0u); // faults
    EXPECT_GT(acct.total(TimeCategory::Overhead), 0u);      // twins
    EXPECT_GT(acct.grandTotal(), 0u);
}

TEST(Svm, SingleRankDegeneratesGracefully)
{
    core::Cluster c;
    SvmConfig cfg;
    cfg.protocol = Protocol::HLRC;
    cfg.nprocs = 1;
    cfg.heapBytes = 256 * 1024;
    SvmRuntime rt(c, cfg);

    auto *arr = rt.sharedAllocArray<std::uint32_t>(1024);
    std::uint64_t sum = 0;

    c.spawnOn(0, "solo", [&] {
        rt.init(0);
        SvmView v(rt, 0);
        for (int i = 0; i < 1024; ++i)
            v.write(&arr[i], std::uint32_t(i));
        v.barrier();
        v.lock(0);
        v.unlock(0);
        for (int i = 0; i < 1024; ++i)
            sum += v.read(&arr[i]);
    });
    c.run();
    EXPECT_EQ(sum, 1024ull * 1023 / 2);
    EXPECT_EQ(rt.faults(0), 0u);
}

TEST(Svm, WriteRangeBulkTransfersWork)
{
    core::Cluster c;
    SvmConfig cfg;
    cfg.protocol = Protocol::AURC;
    cfg.nprocs = 2;
    cfg.heapBytes = 512 * 1024;
    SvmRuntime rt(c, cfg);

    auto *arr = rt.sharedAllocArray<std::uint32_t>(16384);
    rt.setHomeBlock(arr, 16384 * 4, 0);
    std::uint64_t sum = 0;

    for (int r = 0; r < 2; ++r) {
        c.spawnOn(r, "rank", [&, r] {
            rt.init(r);
            SvmView v(rt, r);
            v.barrier();
            if (r == 1) {
                std::vector<std::uint32_t> src(16384);
                std::iota(src.begin(), src.end(), 0u);
                v.writeRange(arr, src.data(), src.size() * 4);
            }
            v.barrier();
            if (r == 0) {
                const auto *p = reinterpret_cast<const std::uint32_t *>(
                    v.readRange(arr, 16384 * 4));
                for (int i = 0; i < 16384; ++i)
                    sum += p[i];
            }
            v.barrier();
        });
    }
    c.run();
    EXPECT_EQ(sum, 16384ull * 16383 / 2);
}

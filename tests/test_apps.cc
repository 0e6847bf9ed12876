/**
 * @file
 * Integration tests for the application suite at small problem sizes:
 * every app must produce correct results under every variant, and the
 * headline qualitative results must hold (AU vs DU for Radix-VMMC,
 * DFS transport ordering).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/barnes.hh"
#include "apps/dfs.hh"
#include "apps/ocean.hh"
#include "apps/radix.hh"
#include "apps/render.hh"

using namespace shrimp;
using namespace shrimp::apps;
using shrimp::svm::Protocol;

namespace
{

core::ClusterConfig
smallCluster()
{
    return core::ClusterConfig{};
}

RadixConfig
smallRadix()
{
    RadixConfig cfg;
    cfg.keys = 64 * 1024;
    cfg.iterations = 2;
    return cfg;
}

OceanConfig
smallOcean()
{
    OceanConfig cfg;
    cfg.n = 66;
    cfg.iterations = 6;
    return cfg;
}

BarnesConfig
smallBarnes()
{
    BarnesConfig cfg;
    cfg.bodies = 512;
    cfg.timesteps = 2;
    return cfg;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Radix
// ---------------------------------------------------------------------

class RadixSvmTest : public ::testing::TestWithParam<Protocol>
{
};

TEST_P(RadixSvmTest, SortsCorrectlyOnFourProcs)
{
    auto r = runRadixSvm(smallCluster(), GetParam(), 4, smallRadix());
    // checksum = key sum + 1 (sorted); the key sum is seed-determined.
    auto seq = runRadixSvm(smallCluster(), GetParam(), 1, smallRadix());
    EXPECT_EQ(r.checksum, seq.checksum);
    EXPECT_EQ(r.checksum % 2, 1u) << "result not sorted";
    EXPECT_GT(r.elapsed, 0u);
    EXPECT_GT(r.messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, RadixSvmTest,
                         ::testing::Values(Protocol::HLRC,
                                           Protocol::HLRC_AU,
                                           Protocol::AURC),
                         [](const auto &info) {
                             std::string n =
                                 svm::protocolName(info.param);
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(Radix, SvmAccountsEndWithTheMeasuredRegion)
{
    // Rank 0 reads the whole sorted array after the region ends; those
    // page fetches must not reach its account, so every rank's account
    // covers about the same span.
    auto r = runRadixSvm(smallCluster(), Protocol::HLRC, 4, smallRadix());
    ASSERT_EQ(r.perProcess.size(), 4u);
    Tick lo = r.perProcess[0].grandTotal();
    Tick hi = lo;
    for (const TimeAccount &a : r.perProcess) {
        lo = std::min(lo, a.grandTotal());
        hi = std::max(hi, a.grandTotal());
    }
    ASSERT_GT(lo, 0u);
    EXPECT_LT(double(hi - lo), 0.01 * double(lo));
}

TEST(RadixVmmc, DuAndAuProduceIdenticalSortedOutput)
{
    auto du = runRadixVmmc(smallCluster(), false, 4, smallRadix());
    auto au = runRadixVmmc(smallCluster(), true, 4, smallRadix());
    EXPECT_EQ(du.checksum, au.checksum);
    EXPECT_EQ(du.checksum % 2, 1u) << "result not sorted";
}

TEST(RadixVmmc, AuVariantBeatsDuVariant)
{
    // Fig. 4 right: the automatic update version improves on
    // deliberate update (factor ~3.4 on speedup at 16 nodes).
    RadixConfig cfg = smallRadix();
    auto du = runRadixVmmc(smallCluster(), false, 8, cfg);
    auto au = runRadixVmmc(smallCluster(), true, 8, cfg);
    EXPECT_LT(au.elapsed, du.elapsed);
}

TEST(RadixVmmc, ScalesWithProcessors)
{
    RadixConfig cfg = smallRadix();
    auto p1 = runRadixVmmc(smallCluster(), true, 1, cfg);
    auto p8 = runRadixVmmc(smallCluster(), true, 8, cfg);
    EXPECT_LT(p8.elapsed, p1.elapsed);
    EXPECT_GT(p1.speedupOver(p1.elapsed), 0.99);
    EXPECT_GT(p8.speedupOver(p1.elapsed), 2.0);
}

// ---------------------------------------------------------------------
// Ocean
// ---------------------------------------------------------------------

TEST(Ocean, SvmProtocolsAgreeOnTheResult)
{
    auto hlrc = runOceanSvm(smallCluster(), Protocol::HLRC, 4,
                            smallOcean());
    auto aurc = runOceanSvm(smallCluster(), Protocol::AURC, 4,
                            smallOcean());
    EXPECT_EQ(hlrc.checksum, aurc.checksum);
    EXPECT_GT(hlrc.elapsed, 0u);
}

TEST(Ocean, SvmMatchesSequential)
{
    auto p1 = runOceanSvm(smallCluster(), Protocol::HLRC, 1,
                          smallOcean());
    auto p4 = runOceanSvm(smallCluster(), Protocol::HLRC, 4,
                          smallOcean());
    EXPECT_EQ(p1.checksum, p4.checksum);
    EXPECT_LT(p4.elapsed, p1.elapsed);
}

TEST(Ocean, NxDuAndAuAgree)
{
    auto du = runOceanNx(smallCluster(), false, 4, smallOcean());
    auto au = runOceanNx(smallCluster(), true, 4, smallOcean());
    EXPECT_EQ(du.checksum, au.checksum);
    EXPECT_GT(du.messages, 0u);
}

TEST(Ocean, NxScales)
{
    auto p1 = runOceanNx(smallCluster(), false, 1, smallOcean());
    auto p8 = runOceanNx(smallCluster(), false, 8, smallOcean());
    EXPECT_GT(p1.speedupOver(p1.elapsed), 0.99);
    EXPECT_GT(p8.speedupOver(p1.elapsed), 3.0);
}

// ---------------------------------------------------------------------
// Barnes
// ---------------------------------------------------------------------

TEST(Barnes, SvmRunsAndUsesLocksAndNotifications)
{
    auto r = runBarnesSvm(smallCluster(), Protocol::HLRC, 4,
                          smallBarnes());
    EXPECT_GT(r.elapsed, 0u);
    EXPECT_GT(r.notifications, 0u); // SVM is notification-heavy
    EXPECT_GT(r.combined.total(TimeCategory::Lock), 0u);
    EXPECT_NE(r.checksum, 0u);
}

TEST(Barnes, SvmProtocolsAgreeOnPhysics)
{
    auto hlrc = runBarnesSvm(smallCluster(), Protocol::HLRC, 2,
                             smallBarnes());
    auto aurc = runBarnesSvm(smallCluster(), Protocol::AURC, 2,
                             smallBarnes());
    // Insertion order differs between runs only in timing, not in
    // tree contents; the physics must agree exactly.
    EXPECT_EQ(hlrc.checksum, aurc.checksum);
}

TEST(Barnes, NxMatchesAcrossProcCounts)
{
    auto p1 = runBarnesNx(smallCluster(), false, 1, smallBarnes());
    auto p4 = runBarnesNx(smallCluster(), false, 4, smallBarnes());
    EXPECT_EQ(p1.checksum, p4.checksum);
    EXPECT_LT(p4.elapsed, p1.elapsed);
}

// ---------------------------------------------------------------------
// DFS & Render
// ---------------------------------------------------------------------

TEST(Dfs, TransfersBlocksCorrectly)
{
    DfsConfig cfg;
    cfg.servers = 4;
    cfg.clients = 2;
    cfg.filesPerClient = 2;
    cfg.blocksPerFile = 16;
    auto r = runDfs(smallCluster(), cfg);
    EXPECT_GT(r.elapsed, 0u);
    EXPECT_NE(r.checksum, 0u);
    EXPECT_EQ(r.notifications, 0u); // sockets apps poll (Table 3)
}

TEST(Dfs, AuWithoutCombiningIsSlower)
{
    // Sec 4.5.1: DFS is about 2x slower on AU without combining.
    DfsConfig base;
    base.servers = 4;
    base.clients = 2;
    base.filesPerClient = 2;
    base.blocksPerFile = 16;

    DfsConfig au = base;
    au.useAutomaticUpdate = true;
    core::ClusterConfig no_comb = smallCluster();
    no_comb.shrimpNic.combiningEnabled = false;

    auto with_comb = runDfs(smallCluster(), au);
    auto without = runDfs(no_comb, au);
    EXPECT_GT(double(without.elapsed) / double(with_comb.elapsed), 1.4);
}

TEST(Render, ProducesFullImageAndBalancesLoad)
{
    RenderConfig cfg;
    cfg.workers = 6;
    cfg.imageSize = 128;
    cfg.tileSize = 32;
    cfg.volumeBytes = 256 * 1024;
    auto r = runRender(smallCluster(), cfg);
    EXPECT_GT(r.elapsed, 0u);
    EXPECT_NE(r.checksum, 0u);
    EXPECT_EQ(r.notifications, 0u);
}

TEST(Render, AccountsEachControllerProcess)
{
    RenderConfig cfg;
    cfg.workers = 6;
    cfg.imageSize = 128;
    cfg.tileSize = 32;
    cfg.volumeBytes = 256 * 1024;
    // The sampler's last event ends the run, so its last sample is
    // taken at the run's final simulated time.
    core::ClusterConfig cc = smallCluster();
    cc.metricsInterval = microseconds(100);
    auto r = runRender(cc, cfg);
    ASSERT_FALSE(r.metrics.empty());
    const Tick end = r.metrics.times.back();

    ASSERT_EQ(r.perProcess.size(), std::size_t(cfg.workers));
    Tick sum = 0;
    for (const TimeAccount &a : r.perProcess) {
        EXPECT_GT(a.total(TimeCategory::Communication), 0u);
        EXPECT_LE(a.grandTotal(), end);
        sum += a.grandTotal();
    }
    EXPECT_EQ(r.combined.grandTotal(), sum);
}

TEST(Render, MoreWorkersFinishFaster)
{
    RenderConfig cfg;
    cfg.imageSize = 128;
    cfg.tileSize = 16;
    cfg.volumeBytes = 128 * 1024;
    cfg.workers = 2;
    auto w2 = runRender(smallCluster(), cfg);
    cfg.workers = 8;
    auto w8 = runRender(smallCluster(), cfg);
    EXPECT_LT(w8.elapsed, w2.elapsed);
}

// ---------------------------------------------------------------------
// Problem sizes that do not split evenly over the ranks
// ---------------------------------------------------------------------

TEST(Radix, SvmRefusesKeysThatSplitUnevenly)
{
    RadixConfig cfg = smallRadix();
    cfg.keys = 1000;
    EXPECT_DEATH(runRadixSvm(smallCluster(), Protocol::AURC, 16, cfg),
                 "1000 keys not divisible by 16 procs");
}

TEST(Radix, VmmcRefusesKeysThatSplitUnevenly)
{
    RadixConfig cfg = smallRadix();
    cfg.keys = 16389;
    EXPECT_DEATH(runRadixVmmc(smallCluster(), false, 16, cfg),
                 "16389 keys not divisible by 16 procs");
}

TEST(Barnes, SvmRefusesBodiesThatSplitUnevenly)
{
    BarnesConfig cfg = smallBarnes();
    cfg.bodies = 34;
    EXPECT_DEATH(runBarnesSvm(smallCluster(), Protocol::AURC, 16, cfg),
                 "34 bodies not divisible by 16 procs");
}

TEST(Barnes, NxRefusesBodiesThatSplitUnevenly)
{
    BarnesConfig cfg = smallBarnes();
    cfg.bodies = 34;
    EXPECT_DEATH(runBarnesNx(smallCluster(), false, 16, cfg),
                 "34 bodies not divisible by 16 procs");
}

// ---------------------------------------------------------------------
// Three-NIC parity matrix
// ---------------------------------------------------------------------
//
// The redesigned NIC contract promises that apps written against the
// capability-queried Endpoint API compute the same answer on every
// adapter — SHRIMP, the Myrinet-style baseline, and the RDMA-style
// modern NIC — with or without the fault plane underneath. Timing
// differs; checksums must not.

namespace
{

constexpr core::NicKind kAllNics[3] = {
    core::NicKind::Shrimp,
    core::NicKind::Baseline,
    core::NicKind::Modern,
};

core::ClusterConfig
withNic(core::NicKind kind, bool faultPlane)
{
    core::ClusterConfig cc = smallCluster();
    cc.nicKind = kind;
    if (faultPlane) {
        cc.network.fault.dropRate = 0.002;
        cc.network.fault.seed = 11;
    }
    return cc;
}

/** Run @p body over the 2 (fault) x 3 (NIC) grid, assert one answer. */
template <typename Fn>
void
expectParity(Fn body)
{
    for (bool faultPlane : {false, true}) {
        std::uint64_t want = 0;
        for (core::NicKind kind : kAllNics) {
            std::uint64_t got = body(withNic(kind, faultPlane));
            if (kind == core::NicKind::Shrimp)
                want = got;
            EXPECT_EQ(got, want)
                << "nic=" << int(kind) << " fault=" << faultPlane;
        }
    }
}

} // anonymous namespace

TEST(NicParity, RadixSvmHlrc)
{
    expectParity([](const core::ClusterConfig &cc) {
        return runRadixSvm(cc, Protocol::HLRC, 4, smallRadix())
            .checksum;
    });
}

TEST(NicParity, RadixVmmcDeliberateUpdate)
{
    expectParity([](const core::ClusterConfig &cc) {
        return runRadixVmmc(cc, false, 4, smallRadix()).checksum;
    });
}

TEST(NicParity, OceanNxDeliberateUpdate)
{
    expectParity([](const core::ClusterConfig &cc) {
        return runOceanNx(cc, false, 4, smallOcean()).checksum;
    });
}

TEST(NicParity, BarnesNx)
{
    expectParity([](const core::ClusterConfig &cc) {
        return runBarnesNx(cc, false, 2, smallBarnes()).checksum;
    });
}

TEST(NicParity, DfsSockets)
{
    expectParity([](const core::ClusterConfig &cc) {
        DfsConfig cfg;
        cfg.servers = 4;
        cfg.clients = 2;
        cfg.filesPerClient = 2;
        cfg.blocksPerFile = 16;
        return runDfs(cc, cfg).checksum;
    });
}

TEST(NicParity, RenderSockets)
{
    expectParity([](const core::ClusterConfig &cc) {
        RenderConfig cfg;
        cfg.workers = 4;
        cfg.imageSize = 128;
        cfg.tileSize = 32;
        cfg.volumeBytes = 128 * 1024;
        return runRender(cc, cfg).checksum;
    });
}

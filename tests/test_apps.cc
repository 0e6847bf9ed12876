/**
 * @file
 * Integration tests for the application suite at small problem sizes:
 * every app must produce correct results under every variant, and the
 * headline qualitative results must hold (AU vs DU for Radix-VMMC,
 * DFS transport ordering).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "apps/barnes.hh"
#include "apps/dfs.hh"
#include "apps/mailbox.hh"
#include "apps/ocean.hh"
#include "apps/radix.hh"
#include "apps/render.hh"
#include "sim/causal.hh"
#include "sim/causal_read.hh"

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
    // Every rank's account covers the measured region and nothing
    // after it, so all four cover about the same span.
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
    EXPECT_GT(hlrc.elapsed, 0u);
    for (Protocol p : {Protocol::HLRC_AU, Protocol::AURC})
        EXPECT_EQ(runOceanSvm(smallCluster(), p, 4, smallOcean()).checksum,
                  hlrc.checksum)
            << svm::protocolName(p);
}

TEST(Ocean, SvmMatchesSequential)
{
    auto p1 = runOceanSvm(smallCluster(), Protocol::HLRC, 1,
                          smallOcean());
    auto p4 = runOceanSvm(smallCluster(), Protocol::HLRC, 4,
                          smallOcean());
    EXPECT_EQ(p1.checksum, p4.checksum);
    EXPECT_LT(p4.elapsed, p1.elapsed);

    // At 64 ranks the ranks' errors pages outgrow the fixed slack.
    core::ClusterConfig mesh8 = smallCluster();
    mesh8.meshWidth = 8;
    mesh8.meshHeight = 8;
    auto p64 = runOceanSvm(mesh8, Protocol::HLRC, 64, smallOcean());
    EXPECT_EQ(p64.checksum, p1.checksum);
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
    // Insertion order differs between runs only in timing, not in
    // tree contents; the physics must agree exactly.
    auto hlrc = runBarnesSvm(smallCluster(), Protocol::HLRC, 2,
                             smallBarnes());
    for (Protocol p : {Protocol::HLRC_AU, Protocol::AURC})
        EXPECT_EQ(
            runBarnesSvm(smallCluster(), p, 2, smallBarnes()).checksum,
            hlrc.checksum)
            << svm::protocolName(p);
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
    // The gauges' last sample ends the run, so it is taken at the
    // run's final simulated time: every_ps times the sample count.
    core::ClusterConfig cc = smallCluster();
    cc.metricsInterval = microseconds(100);
    std::string path = testing::TempDir() + "render_gauges.jsonl";
    causal::open(path);
    auto r = runRender(cc, cfg);
    causal::close();
    causal_read::Log log;
    std::string err;
    ASSERT_TRUE(causal_read::load(path, log, &err)) << err;
    std::remove(path.c_str());
    ASSERT_FALSE(log.counters.empty());
    const causal_read::Counter &gauge = log.counters.front();
    ASSERT_FALSE(gauge.values.empty());
    const Tick end = gauge.everyPs * gauge.values.size();

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

// ---------------------------------------------------------------------
// The measured region
// ---------------------------------------------------------------------

TEST(Region, CountsOnlyTheTrafficInsideIt)
{
    core::Cluster cluster(smallCluster());
    Region region(cluster, 2);

    // Node 2 exports an inbox that takes a notification per arrival.
    core::ExportId inbox = core::kInvalidExport;
    int notified = 0;
    cluster.spawnOn(2, "inbox", [&] {
        core::Endpoint &ep = cluster.vmmc(2);
        void *buf = cluster.node(2).mem().alloc(node::kPageBytes, true);
        core::ExportId id = ep.exportBuffer(buf, node::kPageBytes);
        ep.enableNotifications(
            id, [&](NodeId, std::uint32_t, std::uint32_t) { ++notified; });
        inbox = id;
    });

    // Member m sends n notified messages and waits until they land.
    auto send = [&](int m, int n) {
        core::Endpoint &ep = cluster.vmmc(m);
        while (inbox == core::kInvalidExport)
            cluster.sim().delay(microseconds(10));
        core::ProxyId proxy = ep.import(NodeId(2), inbox);
        const int want = notified + n;
        for (int i = 0; i < n; ++i)
            ep.send(proxy, "x", 1, 0, /*notify=*/true);
        while (notified < want)
            cluster.sim().delay(microseconds(10));
    };

    // Member 1 enters first and leaves last; member 0's messages
    // before its own entry, and member 1's after its exit, are
    // outside the counts.
    Tick first = 0, last = 0;
    bool entered1 = false, left0 = false;
    std::vector<Process *> procs(2);
    procs[0] = cluster.spawnOn(0, "member", [&] {
        while (!entered1)
            cluster.sim().delay(microseconds(10));
        send(0, 2);
        region.enter(0);
        send(0, 3);
        region.leave(0);
        left0 = true;
    });
    procs[1] = cluster.spawnOn(1, "member", [&] {
        cluster.sim().delay(microseconds(20));
        first = cluster.sim().now();
        region.enter(1);
        entered1 = true;
        while (!left0)
            cluster.sim().delay(microseconds(10));
        last = region.leave(1);
        send(1, 4);
    });
    cluster.run();

    AppResult result;
    result.name = "Region";
    EXPECT_TRUE(region.finish(result, procs));
    EXPECT_EQ(notified, 9);
    EXPECT_EQ(result.messages, 3u);
    EXPECT_EQ(result.notifications, 3u);
    ASSERT_GT(first, 0u);
    EXPECT_EQ(result.elapsed, last - first);
    EXPECT_EQ(result.perProcess.size(), 2u);
}

TEST(Region, WarnsOfExactlyTheRankThatNeverGetsItsMessage)
{
    // The NIC engines and notification dispatchers never finish, by
    // design; only a rank blocked in a receive is deadlocked.
    for (core::NicKind kind : kAllNics) {
        for (bool lost : {false, true}) {
            core::Cluster cluster(withNic(kind, false));
            Mailbox mbox(cluster, 2, 64);
            Region region(cluster, 2);
            for (int q = 0; q < 2; ++q) {
                cluster.spawnOn(q, "rank", [&, q] {
                    mbox.init(q);
                    region.enter(q);
                    if (q == 0) {
                        mbox.send(0, 1, "hi", 3);
                    } else {
                        mbox.recv(1, 0, nullptr);
                        if (lost)
                            mbox.recv(1, 0, nullptr);
                    }
                    region.leave(q);
                });
            }
            cluster.run();

            AppResult result;
            result.name = "Lost";
            ::testing::internal::CaptureStderr();
            const bool clean = region.finish(result);
            const std::string err =
                ::testing::internal::GetCapturedStderr();
            const auto stuck = cluster.sim().deadlockedProcesses();
            SCOPED_TRACE("nic=" + std::to_string(int(kind)));
            if (lost) {
                EXPECT_FALSE(clean);
                EXPECT_EQ(stuck, std::vector<std::string>{"node1.rank"});
                EXPECT_NE(err.find("Lost: 1 processes deadlocked; first: "
                                   "node1.rank"),
                          std::string::npos)
                    << err;
            } else {
                EXPECT_TRUE(clean);
                EXPECT_TRUE(stuck.empty());
                EXPECT_EQ(err, "");
            }
        }
    }
}

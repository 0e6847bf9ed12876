/**
 * @file
 * Topology as a sweep axis: the mesh-geometry plumbing (--mesh /
 * SHRIMP_MESH / ClusterConfig::meshWidth,Height) and the scaling
 * properties it depends on. Bad geometry must fail loudly (bounds
 * panics, fatal env parses), route memoization must stay per-source
 * lazy, per-destination reliability stats must gate off on big
 * meshes, and — the load-bearing guarantee — a 64-rank app run on
 * 8x8 and 16x16 meshes must reproduce its report byte for byte.
 *
 * The Fig 3 ordering gate rides along at the default 4x4: the
 * paper's headline ordering (NX/VMMC apps beat their SVM twins at 16
 * procs) must hold before and after any topology work, because it is
 * the shape every speedup table in ROADMAP.md anchors on.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "apps/app_common.hh"
#include "apps/ocean.hh"
#include "apps/radix.hh"
#include "core/cluster.hh"
#include "mesh/network.hh"
#include "mesh/topology.hh"
#include "nic/nic_base.hh"

using namespace shrimp;
using mesh::Topology;

// ---------------------------------------------------------------------
// Geometry bounds: bad --mesh values die, they don't wrap.
// ---------------------------------------------------------------------

TEST(TopologyBounds, ContainsAndRoundTrip)
{
    Topology t(16, 16);
    EXPECT_TRUE(t.contains(0));
    EXPECT_TRUE(t.contains(255));
    EXPECT_FALSE(t.contains(256));
    for (NodeId id : {NodeId(0), NodeId(17), NodeId(255)})
        EXPECT_EQ(t.nodeOf(t.coordOf(id)), id);
}

TEST(TopologyBoundsDeathTest, CoordOfOutOfRangePanics)
{
    Topology t(8, 8);
    EXPECT_DEATH(t.coordOf(NodeId(64)), "outside the");
}

TEST(TopologyBoundsDeathTest, IdOfBadCoordPanics)
{
    Topology t(8, 8);
    EXPECT_DEATH(t.idOf({8, 0}), "outside the");
    EXPECT_DEATH(t.idOf({0, -1}), "outside the");
}

TEST(TopologyBoundsDeathTest, OversizedMeshIsFatal)
{
    // 512*512 = 256K nodes overflows the kMaxMeshNodes experiment
    // ceiling; the ctor refuses rather than let dense link arrays
    // and 32-bit id arithmetic quietly misbehave.
    EXPECT_DEATH(Topology(512, 512), "");
}

TEST(ClusterConfigDeathTest, ThreadsOtherThanOneIsFatal)
{
    // A simulation runs on one host thread; a config asking for more
    // must fail loudly rather than silently run serial.
    core::ClusterConfig cc;
    cc.threads = 4;
    EXPECT_DEATH({ core::Cluster c(cc); }, "only valid value");
}

// ---------------------------------------------------------------------
// SHRIMP_MESH parsing and default-only layering.
// ---------------------------------------------------------------------

TEST(MeshEnv, ParseMeshAcceptsWxH)
{
    int w = 0, h = 0;
    EXPECT_TRUE(core::parseMesh("8x8", w, h));
    EXPECT_EQ(w, 8);
    EXPECT_EQ(h, 8);
    EXPECT_TRUE(core::parseMesh("32x16", w, h));
    EXPECT_EQ(w, 32);
    EXPECT_EQ(h, 16);
}

TEST(MeshEnv, ParseMeshRejectsJunk)
{
    int w = 0, h = 0;
    for (const char *bad : {"", "8", "8x", "x8", "0x8", "8x0", "-4x4",
                            "4x-4", "axb", "4x4x4", "1024x1024"})
        EXPECT_FALSE(core::parseMesh(bad, w, h)) << bad;
}

TEST(MeshEnv, LayersOntoDefaultGeometryOnly)
{
    ::setenv("SHRIMP_MESH", "8x8", 1);
    int w = 4, h = 4;
    core::meshFromEnv(w, h);
    EXPECT_EQ(w, 8);
    EXPECT_EQ(h, 8);

    // An explicit programmatic geometry survives the environment.
    core::ClusterConfig cc;
    cc.meshWidth = 2;
    cc.meshHeight = 4;
    core::Cluster c(cc);
    EXPECT_EQ(c.config().meshWidth, 2);
    EXPECT_EQ(c.config().meshHeight, 4);
    ::unsetenv("SHRIMP_MESH");

    w = 4;
    h = 4;
    core::meshFromEnv(w, h);
    EXPECT_EQ(w, 4);
    EXPECT_EQ(h, 4);
}

TEST(MeshEnvDeathTest, MalformedEnvIsFatal)
{
    ::setenv("SHRIMP_MESH", "banana", 1);
    int w = 4, h = 4;
    EXPECT_DEATH(core::meshFromEnv(w, h), "not a valid");
    ::unsetenv("SHRIMP_MESH");
}

// ---------------------------------------------------------------------
// Route memoization on big meshes: correct, and per-source lazy.
// ---------------------------------------------------------------------

TEST(RouteScale, MemoMatchesTopologyOnBigMeshes)
{
    for (int edge : {8, 16}) {
        Simulation sim;
        mesh::Network net(sim, edge, edge, mesh::NetworkParams());
        const Topology &t = net.topology();
        const NodeId n = NodeId(edge * edge);
        // A diagonal-ish sample: every source, a handful of dests.
        for (NodeId s = 0; s < n; ++s) {
            for (NodeId d : {NodeId(0), NodeId(n - 1),
                             NodeId((s * 7 + 3) % n)}) {
                auto expect = t.route(s, d);
                auto [begin, end] = net.route(s, d);
                ASSERT_EQ(std::size_t(end - begin), expect.size());
                EXPECT_TRUE(std::equal(begin, end, expect.begin()));
            }
        }
    }
}

TEST(RouteScale, RowsAllocatePerActiveSource)
{
    Simulation sim;
    mesh::Network net(sim, 16, 16, mesh::NetworkParams());
    EXPECT_EQ(sim.stats().counterValue("mesh.route_rows"), 0u);

    net.route(3, 200);
    net.route(3, 9); // same source: same row
    EXPECT_EQ(sim.stats().counterValue("mesh.route_rows"), 1u);

    net.route(77, 3);
    EXPECT_EQ(sim.stats().counterValue("mesh.route_rows"), 2u);

    // The arena accounting tracks rows + path ints, and the byte
    // query agrees with the counter's running total at least as far
    // as the row allocations go.
    std::uint64_t bytes =
        sim.stats().counterValue("mesh.route_arena_bytes");
    EXPECT_GE(bytes, 2u * 256u * 8u); // two rows of 256 RouteRefs

    EXPECT_GE(net.routeMemoBytes(), std::size_t(bytes));
}

// ---------------------------------------------------------------------
// Per-destination reliability stats gate off above the threshold.
// ---------------------------------------------------------------------

namespace
{

apps::AppResult
runTinyReliableRadix(int mesh_w, int mesh_h)
{
    core::ClusterConfig cc;
    cc.meshWidth = mesh_w;
    cc.meshHeight = mesh_h;
    cc.network.fault.forceReliability = true;
    apps::RadixConfig cfg;
    cfg.keys = 8 * 1024;
    cfg.iterations = 1;
    return apps::runRadixVmmc(cc, /*au=*/true, 4, cfg);
}

bool
hasPerDestScalars(const apps::AppResult &r)
{
    for (const auto &kv : r.stats.allScalars())
        if (kv.first.find(".rel.dst") != std::string::npos)
            return true;
    return false;
}

} // anonymous namespace

TEST(PerDestStats, PresentOnSmallMeshGatedOnBigMesh)
{
    ASSERT_LE(4 * 4, nic::kPerDestStatsMaxNodes);
    EXPECT_TRUE(hasPerDestScalars(runTinyReliableRadix(4, 4)));

    // 9x8 = 72 nodes crosses the threshold: the same workload must
    // produce zero per-destination scalar registrations (at 32x32
    // they alone would be millions of registry entries).
    ASSERT_GT(9 * 8, nic::kPerDestStatsMaxNodes);
    EXPECT_FALSE(hasPerDestScalars(runTinyReliableRadix(9, 8)));
}

// ---------------------------------------------------------------------
// Reproducibility on bigger meshes.
// ---------------------------------------------------------------------

namespace
{

apps::AppResult
runRadixOnMesh(int edge)
{
    core::ClusterConfig cc;
    cc.meshWidth = edge;
    cc.meshHeight = edge;
    // 64 ranks on both geometries keeps the test fast; what changes
    // between the geometries is exactly the geometry-dependent state
    // this file polices.
    const int procs = 64;
    apps::RadixConfig cfg;
    // VMMC page alignment needs >= 1024 keys per rank.
    cfg.keys = std::size_t(1024) * procs;
    cfg.iterations = 1;
    return apps::runRadixVmmc(cc, /*au=*/true, procs, cfg);
}

} // anonymous namespace

/**
 * The only test that runs an app with 64 ranks on 8x8 and 16x16
 * meshes: two runs per geometry must agree to the byte.
 */
TEST(ScaleIdentity, SerialVsParallelOn8x8And16x16)
{
    ::unsetenv("SHRIMP_MESH");
    for (int edge : {8, 16}) {
        SCOPED_TRACE(testing::Message() << "mesh " << edge << "x"
                                        << edge);
        apps::AppResult first = runRadixOnMesh(edge);
        ASSERT_NE(first.checksum, 0u);
        apps::AppResult second = runRadixOnMesh(edge);
        EXPECT_EQ(second.checksum, first.checksum);
        EXPECT_EQ(second.elapsed, first.elapsed);
        EXPECT_EQ(second.hostEvents, first.hostEvents);
        EXPECT_EQ(apps::makeReport(second).toJson(true),
                  apps::makeReport(first).toJson(true));
    }
}

// ---------------------------------------------------------------------
// Figure 3 ordering gate at the prototype geometry.
// ---------------------------------------------------------------------

namespace
{

double
speedup16(apps::AppResult (*run)(const core::ClusterConfig &, int))
{
    core::ClusterConfig cc;
    Tick p1 = run(cc, 1).elapsed;
    Tick p16 = run(cc, 16).elapsed;
    EXPECT_GT(p1, 0u);
    EXPECT_GT(p16, 0u);
    return double(p1) / double(p16);
}

apps::AppResult
gateOceanNx(const core::ClusterConfig &cc, int p)
{
    apps::OceanConfig cfg;
    cfg.n = 66;
    cfg.iterations = 4;
    return apps::runOceanNx(cc, /*au=*/true, p, cfg);
}

apps::AppResult
gateOceanSvm(const core::ClusterConfig &cc, int p)
{
    apps::OceanConfig cfg;
    cfg.n = 66;
    cfg.iterations = 4;
    return apps::runOceanSvm(cc, svm::Protocol::AURC, p, cfg);
}

apps::AppResult
gateRadixVmmc(const core::ClusterConfig &cc, int p)
{
    apps::RadixConfig cfg;
    cfg.keys = 64 * 1024;
    cfg.iterations = 2;
    return apps::runRadixVmmc(cc, /*au=*/true, p, cfg);
}

apps::AppResult
gateRadixSvm(const core::ClusterConfig &cc, int p)
{
    apps::RadixConfig cfg;
    cfg.keys = 64 * 1024;
    cfg.iterations = 2;
    return apps::runRadixSvm(cc, svm::Protocol::AURC, p, cfg);
}

} // anonymous namespace

/**
 * The paper's Figure 3 ordering, as a regression gate at 4x4: the
 * native message-passing / VMMC applications out-scale their SVM
 * twins at 16 processors. Topology changes that accidentally skew
 * routing, reliability state, or the NIC fast path show up here
 * before they reach the full bench_fig3_speedup curves.
 */
TEST(Fig3Gate, NxAndVmmcBeatSvmTwinsAt16Procs)
{
    ::unsetenv("SHRIMP_MESH");
    double ocean_nx = speedup16(gateOceanNx);
    double ocean_svm = speedup16(gateOceanSvm);
    double radix_vmmc = speedup16(gateRadixVmmc);
    double radix_svm = speedup16(gateRadixSvm);

    EXPECT_GT(ocean_nx, ocean_svm);
    EXPECT_GT(radix_vmmc, radix_svm);
    // And everything actually speeds up.
    for (double s : {ocean_nx, ocean_svm, radix_vmmc, radix_svm})
        EXPECT_GT(s, 1.0);
}

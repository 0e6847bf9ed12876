/**
 * @file
 * Fault injection and the link-level reliability protocol: injector
 * determinism, drop/outage/corruption behaviour at the mesh layer,
 * exactly-once in-order delivery through the NICs under loss, and
 * end-to-end run determinism (serial and parallel sweeps) on a lossy
 * backplane.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/radix.hh"
#include "bench/bench_common.hh"
#include "bench/sweep.hh"
#include "core/cluster.hh"
#include "core/vmmc.hh"
#include "mesh/fault.hh"
#include "mesh/network.hh"
#include "msg/nx.hh"
#include "nic/shrimp_nic.hh"
#include "node/node.hh"
#include "sockets/socket.hh"

using namespace shrimp;
using namespace shrimp::mesh;

// ----------------------------------------------------------------------
// FaultInjector
// ----------------------------------------------------------------------

namespace
{

FaultParams
lossy(double drop, std::uint64_t seed = 7)
{
    FaultParams p;
    p.dropRate = drop;
    p.seed = seed;
    return p;
}

std::vector<bool>
dropPattern(FaultInjector &inj, int link, int n)
{
    std::vector<bool> out;
    for (int i = 0; i < n; ++i)
        out.push_back(inj.crossLink(link, 0).drop);
    return out;
}

} // anonymous namespace

TEST(FaultInjector, SameSeedSameVerdicts)
{
    FaultInjector a(lossy(0.3), 8);
    FaultInjector b(lossy(0.3), 8);
    EXPECT_EQ(dropPattern(a, 2, 200), dropPattern(b, 2, 200));
}

TEST(FaultInjector, SeedChangesVerdicts)
{
    FaultInjector a(lossy(0.3, 7), 8);
    FaultInjector b(lossy(0.3, 8), 8);
    EXPECT_NE(dropPattern(a, 2, 200), dropPattern(b, 2, 200));
}

TEST(FaultInjector, LinksAreIndependentStreams)
{
    // Crossing link 0 many times must not shift link 1's verdicts:
    // per-link determinism survives traffic elsewhere.
    FaultInjector a(lossy(0.3), 8);
    FaultInjector b(lossy(0.3), 8);
    dropPattern(a, 0, 777); // extra traffic on another link
    EXPECT_EQ(dropPattern(a, 1, 200), dropPattern(b, 1, 200));
}

TEST(FaultInjector, CorruptMaskIsNonzero)
{
    FaultParams p;
    p.corruptRate = 1.0;
    FaultInjector inj(p, 4);
    for (int i = 0; i < 50; ++i) {
        FaultVerdict v = inj.crossLink(1, 0);
        EXPECT_FALSE(v.drop);
        ASSERT_TRUE(v.corrupt);
        EXPECT_NE(v.corruptMask, 0u);
    }
}

TEST(FaultInjector, OutageWindowIsHalfOpen)
{
    FaultParams p;
    p.outages.push_back({3, microseconds(10), microseconds(20)});
    FaultInjector inj(p, 8);
    EXPECT_FALSE(inj.crossLink(3, microseconds(10) - 1).drop);
    EXPECT_TRUE(inj.crossLink(3, microseconds(10)).drop);
    EXPECT_TRUE(inj.crossLink(3, microseconds(20) - 1).outage);
    EXPECT_FALSE(inj.crossLink(3, microseconds(20)).drop);
    EXPECT_FALSE(inj.crossLink(2, microseconds(15)).drop);
}

TEST(FaultParsing, LinkOutageSpec)
{
    LinkOutage o;
    ASSERT_TRUE(parseLinkOutage("5:10:250.5", o));
    EXPECT_EQ(o.link, 5);
    EXPECT_EQ(o.from, microseconds(10));
    EXPECT_EQ(o.until, microseconds(250.5));
    EXPECT_FALSE(parseLinkOutage("", o));
    EXPECT_FALSE(parseLinkOutage("5", o));
    EXPECT_FALSE(parseLinkOutage("5:10", o));
    EXPECT_FALSE(parseLinkOutage("5:20:10", o)); // t1 < t0
    EXPECT_FALSE(parseLinkOutage("-1:0:5", o));
    EXPECT_FALSE(parseLinkOutage("x:0:5", o));
}

TEST(FaultParsing, EnvOverlay)
{
    ::setenv("SHRIMP_FAULT_DROP_RATE", "0.125", 1);
    ::setenv("SHRIMP_FAULT_SEED", "99", 1);
    ::setenv("SHRIMP_FAULT_LINK_DOWN", "1:5:10,2:20:30", 1);
    FaultParams p = core::envClusterConfig().network.fault;
    ::unsetenv("SHRIMP_FAULT_DROP_RATE");
    ::unsetenv("SHRIMP_FAULT_SEED");
    ::unsetenv("SHRIMP_FAULT_LINK_DOWN");

    EXPECT_DOUBLE_EQ(p.dropRate, 0.125);
    EXPECT_EQ(p.seed, 99u);
    ASSERT_EQ(p.outages.size(), 2u);
    EXPECT_EQ(p.outages[0].link, 1);
    EXPECT_EQ(p.outages[1].from, microseconds(20));
    EXPECT_TRUE(p.reliabilityEnabled());

    // No variables set: the default config passes through untouched.
    FaultParams clean = core::envClusterConfig().network.fault;
    EXPECT_FALSE(clean.reliabilityEnabled());
}

// ----------------------------------------------------------------------
// Mesh-layer fault behaviour (raw network, lambda receivers)
// ----------------------------------------------------------------------

namespace
{

struct RawNetHarness
{
    Simulation sim;
    Network net;
    std::vector<int> delivered; // wireBytes of arrivals at node 1

    explicit RawNetHarness(const FaultParams &f)
        : net(sim, 2, 1,
              [&f] {
                  NetworkParams p;
                  p.fault = f;
                  return p;
              }())
    {
        net.attach(0, [](const Packet &) {});
        net.attach(1, [this](const Packet &pkt) {
            delivered.push_back(int(pkt.wireBytes));
        });
    }

    void
    sendAt(Tick when, std::uint32_t bytes)
    {
        sim.schedule(when - sim.now(), [this, bytes] {
            Packet p;
            p.src = 0;
            p.dst = 1;
            p.wireBytes = bytes;
            net.send(std::move(p));
        });
    }
};

} // anonymous namespace

TEST(NetworkFaults, DropRateOneDeliversNothing)
{
    FaultParams f;
    f.dropRate = 1.0;
    RawNetHarness h(f);
    for (int i = 0; i < 25; ++i)
        h.sendAt(microseconds(i), 64);
    h.sim.run();
    EXPECT_TRUE(h.delivered.empty());
    EXPECT_EQ(h.sim.stats().counterValue("mesh.drops"), 25u);
    EXPECT_EQ(h.sim.stats().counterValue("mesh.outage_drops"), 0u);
}

TEST(NetworkFaults, OutageDropsOnlyInsideWindow)
{
    FaultParams f;
    // 2x1 mesh: link 0->1. Find its index via the topology after
    // construction; schedule the outage on every link to be safe.
    f.outages.push_back({0, microseconds(100), microseconds(200)});
    f.outages.push_back({1, microseconds(100), microseconds(200)});
    RawNetHarness h(f);
    h.sendAt(microseconds(50), 64);  // before the window: delivered
    h.sendAt(microseconds(150), 64); // inside: dropped
    h.sendAt(microseconds(250), 64); // after: delivered
    h.sim.run();
    EXPECT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(h.sim.stats().counterValue("mesh.drops"), 1u);
    EXPECT_EQ(h.sim.stats().counterValue("mesh.outage_drops"), 1u);
}

TEST(NetworkFaults, CorruptionPerturbsChecksumOnly)
{
    FaultParams f;
    f.corruptRate = 1.0;
    Simulation sim;
    NetworkParams np;
    np.fault = f;
    Network net(sim, 2, 1, np);
    net.attach(0, [](const Packet &) {});
    std::uint64_t got = 0, want = 0;
    net.attach(1, [&](const Packet &pkt) { got = pkt.checksum; });
    Packet p;
    p.src = 0;
    p.dst = 1;
    p.wireBytes = 64;
    p.checksum = want = packetChecksum(p);
    net.send(std::move(p));
    sim.run();
    EXPECT_NE(got, want); // delivered, but checksum no longer verifies
    EXPECT_EQ(sim.stats().counterValue("mesh.corruptions"), 1u);
}

TEST(NetworkFaults, JitterDelaysButDelivers)
{
    FaultParams f;
    f.jitterRate = 1.0;
    f.maxJitter = microseconds(5);
    FaultParams quiet;
    quiet.forceReliability = true;
    RawNetHarness clean(quiet);
    RawNetHarness jittered(f);
    clean.sendAt(0, 256);
    jittered.sendAt(0, 256);
    clean.sim.run();
    jittered.sim.run();
    ASSERT_EQ(clean.delivered.size(), 1u);
    ASSERT_EQ(jittered.delivered.size(), 1u);
    EXPECT_GE(jittered.sim.now(), clean.sim.now());
}

// ----------------------------------------------------------------------
// NIC reliability protocol
// ----------------------------------------------------------------------

namespace
{

/** Two ShrimpNic nodes on a (possibly lossy) 2x1 mesh. */
struct RelHarness
{
    Simulation sim;
    Network net;
    node::Node n0, n1;
    nic::ShrimpNic nic0, nic1;

    explicit RelHarness(const FaultParams &f)
        : net(sim, 2, 1,
              [&f] {
                  NetworkParams p;
                  p.fault = f;
                  return p;
              }()),
          n0(sim, 0, node::MachineParams(), 1 << 22),
          n1(sim, 1, node::MachineParams(), 1 << 22),
          nic0(n0, net, nic::ShrimpNicParams()),
          nic1(n1, net, nic::ShrimpNicParams())
    {
    }
};

} // anonymous namespace

TEST(Reliability, ExactlyOnceInOrderUnderHeavyLoss)
{
    FaultParams f;
    f.dropRate = 0.25;
    f.seed = 3;
    RelHarness h(f);

    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    std::memset(dst, 0, 4096);
    nic::OptIndex proxy = h.nic0.importPage(1, h.n1.mem().frameOf(dst), 1);

    std::vector<std::uint32_t> offsets;
    h.nic1.setDeliverHook(
        [&](const nic::Delivery &d) { offsets.push_back(d.offset); });

    const int kSends = 40;
    h.sim.spawn("send", [&] {
        for (int i = 0; i < kSends; ++i) {
            unsigned char v = (unsigned char)(i + 1);
            nic::SendDesc req;
            req.src = &v;
            req.proxy = proxy;
            req.dstOffset = std::uint32_t(i);
            req.bytes = 1;
            h.nic0.post(req);
        }
        h.nic0.drainSends();
    });
    h.sim.run();

    // Every send arrived exactly once, in submission order, with the
    // right contents — despite a 25% per-crossing drop rate.
    ASSERT_EQ(offsets.size(), std::size_t(kSends));
    for (int i = 0; i < kSends; ++i) {
        EXPECT_EQ(offsets[i], std::uint32_t(i));
        EXPECT_EQ((unsigned char)dst[i], (unsigned char)(i + 1));
    }

    auto &stats = h.sim.stats();
    EXPECT_GT(stats.counterValue("mesh.drops"), 0u);
    EXPECT_GT(stats.counterValue("mesh.retransmits"), 0u);
    EXPECT_GT(stats.counterValue("mesh.acks"), 0u);

    // Every packet record — delivered, dropped in the mesh, or held
    // in a retransmit buffer along the way — went back to the pool.
    EXPECT_GT(h.net.pool().capacity(), 0u);
    EXPECT_EQ(h.net.pool().inUse(), 0u);
}

TEST(Reliability, CorruptedPacketsAreDroppedAndResent)
{
    FaultParams f;
    f.corruptRate = 0.25;
    f.seed = 11;
    RelHarness h(f);

    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    std::memset(dst, 0, 4096);
    nic::OptIndex proxy = h.nic0.importPage(1, h.n1.mem().frameOf(dst), 1);
    int deliveries = 0;
    h.nic1.setDeliverHook([&](const nic::Delivery &) { ++deliveries; });

    h.sim.spawn("send", [&] {
        for (int i = 0; i < 30; ++i) {
            char v = char(i);
            nic::SendDesc req;
            req.src = &v;
            req.proxy = proxy;
            req.dstOffset = std::uint32_t(i);
            req.bytes = 1;
            h.nic0.post(req);
        }
        h.nic0.drainSends();
    });
    h.sim.run();

    EXPECT_EQ(deliveries, 30);
    auto &stats = h.sim.stats();
    EXPECT_GT(stats.counterValue("mesh.corruptions"), 0u);
    EXPECT_GT(stats.counterValue("mesh.corrupt_rx"), 0u);
    EXPECT_GT(stats.counterValue("mesh.retransmits"), 0u);
    EXPECT_EQ(h.net.pool().inUse(), 0u);
}

TEST(Reliability, GiveUpOnDeadPathIsFatal)
{
    // Total loss: no ACK ever returns, so the timer backs off, fires
    // 64 times without progress, and the 65th fire declares the path
    // dead instead of retransmitting forever.
    FaultParams f;
    f.dropRate = 1.0;
    f.seed = 1;
    EXPECT_DEATH(
        {
            RelHarness h(f);
            char *dst =
                static_cast<char *>(h.n1.mem().alloc(4096, true));
            std::memset(dst, 0, 4096);
            nic::OptIndex proxy =
                h.nic0.importPage(1, h.n1.mem().frameOf(dst), 1);
            h.sim.spawn("send", [&] {
                char v = 1;
                nic::SendDesc req;
                req.src = &v;
                req.proxy = proxy;
                req.dstOffset = 0;
                req.bytes = 1;
                h.nic0.post(req);
            });
            h.sim.run();
        },
        "node0: 65 retransmission timeouts to node 1 without progress");
}

TEST(Reliability, ZeroRateProtocolIsTransparent)
{
    // forceReliability with all rates zero: the protocol runs (ACKs
    // flow) but delivery is untouched.
    FaultParams f;
    f.forceReliability = true;
    RelHarness h(f);

    char *dst = static_cast<char *>(h.n1.mem().alloc(4096, true));
    std::memset(dst, 0, 4096);
    nic::OptIndex proxy = h.nic0.importPage(1, h.n1.mem().frameOf(dst), 1);
    int deliveries = 0;
    h.nic1.setDeliverHook([&](const nic::Delivery &) { ++deliveries; });

    h.sim.spawn("send", [&] {
        char v = 42;
        nic::SendDesc req;
        req.src = &v;
        req.proxy = proxy;
        req.dstOffset = 0;
        req.bytes = 1;
        h.nic0.post(req);
        h.nic0.drainSends();
    });
    h.sim.run();

    EXPECT_EQ(deliveries, 1);
    EXPECT_EQ(dst[0], 42);
    auto &stats = h.sim.stats();
    EXPECT_GT(stats.counterValue("mesh.acks"), 0u);
    EXPECT_EQ(stats.counterValue("mesh.drops"), 0u);
    EXPECT_EQ(stats.counterValue("mesh.retransmits"), 0u);
    EXPECT_EQ(stats.counterValue("mesh.rto_fires"), 0u);
}

// ----------------------------------------------------------------------
// End-to-end determinism on a lossy backplane
// ----------------------------------------------------------------------

namespace
{

apps::AppResult
lossyRadix(double drop_rate, std::uint64_t fault_seed)
{
    core::ClusterConfig cc;
    cc.network.fault.dropRate = drop_rate;
    cc.network.fault.seed = fault_seed;
    apps::RadixConfig cfg;
    cfg.keys = 8 * 1024;
    cfg.iterations = 1;
    return apps::runRadixVmmc(cc, /*au=*/true, 4, cfg);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // anonymous namespace

TEST(FaultDeterminism, IdenticalRunsIdenticalReports)
{
    apps::AppResult a = lossyRadix(0.01, 5);
    apps::AppResult b = lossyRadix(0.01, 5);
    EXPECT_EQ(apps::makeReport(a).toJson(), apps::makeReport(b).toJson());
    EXPECT_GT(a.stats.counterValue("mesh.drops"), 0u);

    // A different fault seed takes different faults.
    apps::AppResult c = lossyRadix(0.01, 6);
    EXPECT_NE(a.stats.counterValue("mesh.drops") +
                  a.stats.counterValue("mesh.retransmits") + a.elapsed,
              c.stats.counterValue("mesh.drops") +
                  c.stats.counterValue("mesh.retransmits") + c.elapsed);
}

TEST(FaultDeterminism, AppSurvivesOnePercentDropCorrectly)
{
    apps::AppResult clean = lossyRadix(0.0, 5); // protocol off entirely
    apps::AppResult faulty = lossyRadix(0.01, 5);
    EXPECT_EQ(faulty.checksum, clean.checksum);
    EXPECT_GT(faulty.stats.counterValue("mesh.drops"), 0u);
    EXPECT_GT(faulty.stats.counterValue("mesh.retransmits"), 0u);
}

TEST(FaultDeterminism, AuTrainsSurviveOnePercentDrop)
{
    // AURC carries every shared store in AU trains. A sender's
    // retransmit buffer shares each train with the landing NI, and can
    // still hold and resend one that has landed, so landing reads the
    // train's records and leaves them intact.
    auto aurcRadix = [](double drop_rate) {
        core::ClusterConfig cc;
        cc.network.fault.dropRate = drop_rate;
        cc.network.fault.seed = 5;
        apps::RadixConfig cfg;
        cfg.keys = 16 * 1024;
        return apps::runRadixSvm(cc, svm::Protocol::AURC, 4, cfg);
    };
    apps::AppResult clean = aurcRadix(0.0);
    apps::AppResult faulty = aurcRadix(0.01);
    EXPECT_EQ(faulty.checksum, clean.checksum);
    EXPECT_GT(faulty.stats.counterValue("node0.nic.au_packets"), 0u);
    EXPECT_GT(faulty.stats.counterValue("mesh.retransmits"), 0u);
    // Some resent packets had already landed.
    EXPECT_GT(faulty.stats.counterValue("mesh.dup_rx"), 0u);
}

TEST(FaultDeterminism, ZeroFaultConfigMatchesDefaultConfig)
{
    // Golden: an all-zero FaultParams must not perturb the simulation
    // at all — same report, byte for byte, as the default config.
    apps::AppResult a = lossyRadix(0.0, 1);
    core::ClusterConfig cc;
    apps::RadixConfig cfg;
    cfg.keys = 8 * 1024;
    cfg.iterations = 1;
    apps::AppResult b = apps::runRadixVmmc(cc, true, 4, cfg);
    EXPECT_EQ(apps::makeReport(a).toJson(), apps::makeReport(b).toJson());
}

TEST(FaultDeterminism, ParallelSweepByteIdenticalUnderFaults)
{
    auto sweepInto = [](const std::string &jsonl, const char *jobs_env) {
        ::setenv("SHRIMP_REPORT_JSONL", jsonl.c_str(), 1);
        ::setenv("SHRIMP_JOBS", jobs_env, 1);
        std::vector<std::function<apps::AppResult()>> jobs;
        for (double rate : {0.0, 0.005, 0.01, 0.02}) {
            jobs.push_back([rate] {
                auto r = lossyRadix(rate, 9);
                bench::maybeEmitReport(r);
                return r;
            });
        }
        auto results = bench::runSweep(std::move(jobs));
        ::unsetenv("SHRIMP_REPORT_JSONL");
        ::unsetenv("SHRIMP_JOBS");
        return results;
    };

    std::string serial_path = "fault_sweep_serial.jsonl";
    std::string parallel_path = "fault_sweep_parallel.jsonl";
    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());
    auto serial = sweepInto(serial_path, "1");
    auto parallel = sweepInto(parallel_path, "4");

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].elapsed, parallel[i].elapsed) << i;
        EXPECT_EQ(serial[i].checksum, parallel[i].checksum) << i;
    }
    std::string a = slurp(serial_path);
    std::string b = slurp(parallel_path);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());
}

TEST(FaultDeterminism, PacketPoolDrainsAtClusterScale)
{
    // A full cluster on a lossy backplane: VMMC messages, ACKs/NACKs,
    // drops and go-back-N retransmissions all draw packet records
    // from the shared pool; when the run drains, every slot must be
    // back on the free list (pending deliveries released, retransmit
    // buffers emptied by the final ACKs).
    core::ClusterConfig cc;
    cc.meshWidth = 2;
    cc.meshHeight = 1;
    cc.network.fault.dropRate = 0.05;
    cc.network.fault.seed = 13;
    core::Cluster c(cc);

    core::ExportId exp = core::kInvalidExport;
    char *rbuf = nullptr;
    c.spawnOn(1, "recv", [&] {
        rbuf = static_cast<char *>(c.node(1).mem().alloc(4096, true));
        std::memset(rbuf, 0, 4096);
        exp = c.vmmc(1).exportBuffer(rbuf, 4096);
        c.vmmc(1).waitUntil([&] { return rbuf[0] == 100; });
    });
    c.spawnOn(0, "send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == core::kInvalidExport)
            c.sim().delay(microseconds(10));
        core::ProxyId p = ep.import(1, exp);
        for (char i = 1; i <= 100; ++i)
            ep.send(p, &i, 1, 0);
        ep.drainSends();
    });
    c.run();

    EXPECT_EQ(rbuf[0], 100);
    auto &stats = c.sim().stats();
    EXPECT_GT(stats.counterValue("mesh.drops"), 0u);
    EXPECT_GT(stats.counterValue("mesh.retransmits"), 0u);
    EXPECT_GT(c.network().pool().capacity(), 0u);
    EXPECT_EQ(c.network().pool().inUse(), 0u);
}

TEST(FaultReport, FaultsBlockAppearsOnlyInFaultMode)
{
    apps::AppResult faulty = lossyRadix(0.01, 5);
    std::string fj = apps::makeReport(faulty).toJson();
    EXPECT_NE(fj.find("\"faults\""), std::string::npos);
    EXPECT_NE(fj.find("\"retransmits\""), std::string::npos);

    apps::AppResult clean = lossyRadix(0.0, 5);
    std::string cj = apps::makeReport(clean).toJson();
    EXPECT_EQ(cj.find("\"faults\""), std::string::npos);
}

// ----------------------------------------------------------------------
// A dead path ends the run wherever the upper layers block on it
// ----------------------------------------------------------------------

namespace
{

/**
 * A 2x1 cluster whose only path is dead: every packet drops, so the
 * first channel to run out of retransmission timeouts ends the run.
 */
core::ClusterConfig
deadPathCluster()
{
    core::ClusterConfig cc;
    cc.meshWidth = 2;
    cc.meshHeight = 1;
    cc.network.fault.dropRate = 1.0;
    cc.network.fault.seed = 1;
    return cc;
}

/**
 * Rank 1 sends one NX message to rank 0, which blocks receiving it
 * from @p from (-1 = any sender). The message never arrives, so no
 * delivery ever wakes the receiver.
 */
void
nxReceiveFromDeadPeer(int from)
{
    core::Cluster cluster(deadPathCluster());
    msg::NxConfig ncfg;
    ncfg.nprocs = 2;
    msg::NxDomain dom(cluster, ncfg);
    cluster.spawnOn(0, "receiver", [&] {
        dom.init(0);
        int v = 0;
        dom.process(0).crecvProbe(-1, from, &v, sizeof(v), nullptr);
    });
    cluster.spawnOn(1, "sender", [&] {
        dom.init(1);
        int v = 1;
        dom.process(1).csend(3, &v, sizeof(v), 0);
    });
    cluster.run();
}

} // anonymous namespace

TEST(DeadPath, KillsBlockedSocketSend)
{
    // A socket blocked on ring credits from a peer whose path died:
    // the run ends with the NIC's diagnosis, not in a hang.
    EXPECT_DEATH(
        {
            core::Cluster cluster(deadPathCluster());
            sock::SocketConfig scfg;
            scfg.bufBytes = node::kPageBytes;
            sock::SocketDomain dom(cluster, scfg);
            sock::Socket *a = nullptr;
            cluster.sim().spawn("listener", [&] {
                a = dom.accept(0, 5);
                char buf[16];
                a->recv(buf, sizeof(buf));
            });
            cluster.sim().spawn("connector", [&] {
                sock::Socket *b = dom.connect(1, 0, 5);
                std::vector<char> big(4 * node::kPageBytes, 'x');
                b->send(big.data(), big.size());
            });
            cluster.sim().run();
        },
        "retransmission timeouts");
}

TEST(DeadPath, KillsBlockedNxNamedReceive)
{
    EXPECT_DEATH(nxReceiveFromDeadPeer(1), "retransmission timeouts");
}

TEST(DeadPath, KillsBlockedNxWildcardReceive)
{
    EXPECT_DEATH(nxReceiveFromDeadPeer(-1), "retransmission timeouts");
}

TEST(DeadPath, KillsBlockedSocketRecv)
{
    // The sender's small write fits its ring and returns; the
    // receiver waits on data that never arrives.
    EXPECT_DEATH(
        {
            core::Cluster cluster(deadPathCluster());
            sock::SocketDomain dom(cluster, sock::SocketConfig{});
            cluster.sim().spawn("listener", [&] {
                sock::Socket *a = dom.accept(0, 5);
                char buf[16];
                a->recv(buf, sizeof(buf));
            });
            cluster.sim().spawn("connector", [&] {
                sock::Socket *b = dom.connect(1, 0, 5);
                char msg[16] = "hello";
                b->send(msg, sizeof(msg));
            });
            cluster.sim().run();
        },
        "retransmission timeouts");
}

/**
 * @file
 * Ablation: how much did the Paragon-class backplane matter?
 *
 * The paper notes its backplane "to first-order resembles current
 * commodity networks" (Sec 5). This ablation sweeps the link
 * bandwidth from Ethernet-class to Paragon-class and reruns the
 * latency microbenchmark and two communication-heavy applications,
 * showing where the node (EISA/CPU) rather than the network becomes
 * the bottleneck — the design point SHRIMP occupied.
 */

#include <cstdio>
#include <cstring>

#include "bench/bench_common.hh"
#include "core/vmmc.hh"

using namespace shrimp;
using namespace shrimp::bench;
using namespace shrimp::apps;

namespace
{

double
smallMessageLatency(double link_bw)
{
    core::ClusterConfig cfg = shrimpCluster();
    cfg.network.linkBytesPerSec = link_bw;
    core::Cluster c(cfg);
    core::ExportId exp = core::kInvalidExport;
    char *rbuf = nullptr;
    Tick sent = 0, seen = 0;
    c.spawnOn(1, "recv", [&] {
        rbuf = static_cast<char *>(
            c.node(1).mem().alloc(node::kPageBytes, true));
        std::memset(rbuf, 0, node::kPageBytes);
        exp = c.vmmc(1).exportBuffer(rbuf, node::kPageBytes);
        c.vmmc(1).waitUntil([&] { return rbuf[0] == 1; });
        seen = c.sim().now();
    });
    c.spawnOn(0, "send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == core::kInvalidExport)
            c.sim().delay(microseconds(10));
        core::ProxyId p = ep.import(1, exp);
        c.sim().delay(microseconds(50));
        char v = 1;
        sent = c.sim().now();
        ep.send(p, &v, 1, 0);
    });
    c.run();
    return toMicroseconds(seen - sent);
}

} // anonymous namespace

int
main()
{
    banner("network bandwidth ablation",
           "design-choice ablation (Secs 2.1, 5)");

    struct Net
    {
        const char *name;
        double bw;
    };
    const Net nets[] = {
        {"Ethernet-10 (1.25 MB/s)", 1.25e6},
        {"Fast-Ether (12.5 MB/s)", 12.5e6},
        {"FDDI-class (25 MB/s)", 25e6},
        {"Myrinet-class (80 MB/s)", 80e6},
        {"Paragon (200 MB/s)", 200e6},
        {"infinite (2 GB/s)", 2e9},
    };

    std::printf("%-26s %12s %14s %14s\n", "backplane", "lat (us)",
                "Radix-AU (ms)", "Ocean-NX (ms)");

    // One row per backplane; each cell is an independent sweep job.
    std::vector<std::function<double()>> lat_jobs;
    std::vector<std::function<apps::AppResult()>> app_jobs;
    for (const Net &net : nets) {
        double bw = net.bw;
        lat_jobs.push_back([bw] { return smallMessageLatency(bw); });
        app_jobs.push_back([bw] {
            core::ClusterConfig cc = shrimpCluster();
            cc.network.linkBytesPerSec = bw;
            return runRadixVmmc(cc, true, 16, radixConfig());
        });
        app_jobs.push_back([bw] {
            core::ClusterConfig cc = shrimpCluster();
            cc.network.linkBytesPerSec = bw;
            return runOceanNx(cc, false, 16, oceanConfig());
        });
    }
    auto lats = runSweep(std::move(lat_jobs));
    auto app_results = runSweep(std::move(app_jobs));

    double lat_paragon = 0, lat_inf = 0;
    Tick radix_paragon = 0, radix_slow = 0;
    for (std::size_t i = 0; i < std::size(nets); ++i) {
        const Net &net = nets[i];
        double lat = lats[i];
        const auto &radix = app_results[2 * i];
        const auto &ocean = app_results[2 * i + 1];
        std::printf("%-26s %12.2f %14.2f %14.2f\n", net.name, lat,
                    toSeconds(radix.elapsed) * 1e3,
                    toSeconds(ocean.elapsed) * 1e3);

        if (net.bw == 200e6) {
            lat_paragon = lat;
            radix_paragon = radix.elapsed;
        }
        if (net.bw == 2e9)
            lat_inf = lat;
        if (net.bw == 1.25e6)
            radix_slow = radix.elapsed;
    }

    // Shape: above Myrinet-class bandwidth the node is the
    // bottleneck — an infinitely fast network barely improves
    // latency — while an Ethernet-class link cripples the apps.
    bool ok = (lat_paragon - lat_inf) < 1.0 &&
              radix_slow > radix_paragon * 2;
    std::printf("\nshape (node-bound at Paragon speeds, network-bound "
                "at Ethernet speeds): %s\n",
                ok ? "HOLDS" : "VIOLATED");
    return ok ? 0 : 1;
}

/**
 * @file
 * Topology scaling sweep: the same Table 1 workloads on growing
 * meshes (4x4 -> 16x16, plus 32x32 at SHRIMP_SCALE=full), weak-scaled
 * so per-node work stays roughly constant while the node count grows
 * 64x. The paper's prototype stopped at 16 nodes; this sweep checks
 * that nothing in the simulator reintroduces quadratic per-node state
 * when the mesh becomes a real sweep axis.
 *
 * For each (mesh, app) cell the table reports simulated time, host
 * events/sec, and the route-memo footprint: rows actually touched and
 * arena bytes per node. The memo is per-source lazy, so bytes/node
 * must grow at most linearly in the node count (it would be ~8*N^2
 * per node if the old dense all-pairs cache came back) — the sweep
 * fails loudly if that regresses. Every cell's answer is checked too:
 * these checksums do not depend on the rank count, so each must equal
 * a 1-rank run of the same input.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "nic/nic_base.hh"

using namespace shrimp;
using namespace shrimp::bench;

namespace
{

/** Host high-water RSS in KiB (monotonic across the process). */
long
maxRssKib()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

struct Geometry
{
    int w, h;
    std::string name() const
    {
        return std::to_string(w) + "x" + std::to_string(h);
    }
    int nodes() const { return w * h; }
};

} // anonymous namespace

int
main()
{
    banner("topology scaling sweep", "Sec 4 beyond the 16-node "
                                     "prototype");

    std::vector<Geometry> geoms = {{4, 4}, {8, 8}, {16, 16}};
    if (fullScale())
        geoms.push_back({32, 32});

    std::printf("%-12s %-8s %9s %10s %10s %11s %9s\n", "app", "mesh",
                "sim_ms", "Mevents/s", "rt_rows", "rt_KiB/node",
                "rss_MiB");

    bool ok = true;
    // Per-app, per-geometry route-arena bytes per node: the
    // sublinearity gate compares growth across geometries.
    std::vector<double> radix_bytes_per_node;

    for (const Geometry &g : geoms) {
        const int nodes = g.nodes();

        struct Cell
        {
            const char *app;
            std::function<apps::AppResult(const core::ClusterConfig &,
                                          int procs)>
                run;
        };
        std::vector<Cell> cells;

        // Weak scaling: per-rank work pinned at the quick-scale
        // Table 1 sizes' order of magnitude, one rank per node.
        apps::RadixConfig rcfg;
        rcfg.keys = std::size_t(1024) * nodes; // VMMC page alignment
        rcfg.iterations = 2;
        cells.push_back({"Radix-VMMC",
                         [rcfg](const core::ClusterConfig &cc, int p) {
                             return apps::runRadixVmmc(
                                 cc, apps::bestAu(cc), p, rcfg);
                         }});

        apps::OceanConfig ocfg;
        ocfg.n = 2 * nodes + 2; // two interior rows per rank
        ocfg.iterations = 2;
        cells.push_back({"Ocean-NX",
                         [ocfg](const core::ClusterConfig &cc, int p) {
                             return apps::runOceanNx(
                                 cc, apps::bestAu(cc), p, ocfg);
                         }});

        apps::BarnesConfig bcfg;
        bcfg.bodies = std::max(2048, 8 * nodes);
        bcfg.timesteps = 2;
        cells.push_back({"Barnes-NX",
                         [bcfg](const core::ClusterConfig &cc, int p) {
                             return apps::runBarnesNx(cc, false, p, bcfg);
                         }});

        for (const Cell &cell : cells) {
            core::ClusterConfig cc = core::envClusterConfig();
            cc.meshWidth = g.w;
            cc.meshHeight = g.h;

            auto r =
                apps::timedRun([&] { return cell.run(cc, nodes); });
            r.param("nic", nic::nicKindName(cc.nicKind));
            r.param("mesh", g.name());
            maybeEmitReport(r);

            std::uint64_t rows =
                r.stats.counterValue("mesh.route_rows");
            std::uint64_t arena =
                r.stats.counterValue("mesh.route_arena_bytes");
            double per_node_kib =
                double(arena) / nodes / 1024.0;
            double mevents =
                r.hostWallSeconds > 0
                    ? double(r.hostEvents) / r.hostWallSeconds / 1e6
                    : 0;

            std::printf("%-12s %-8s %9.2f %10.2f %10llu %11.2f "
                        "%9.1f\n",
                        cell.app, g.name().c_str(),
                        double(r.elapsed) / 1e9, mevents,
                        (unsigned long long)rows, per_node_kib,
                        double(maxRssKib()) / 1024.0);

            // Per-destination reliability scalars must be gated off
            // above kPerDestStatsMaxNodes: at 1024 nodes they alone
            // would be ~6M registry entries.
            if (nodes > nic::kPerDestStatsMaxNodes)
                for (const auto &kv : r.stats.allScalars())
                    if (kv.first.find(".rel.dst") != std::string::npos) {
                        std::printf("  FAIL: per-dest scalar '%s' at "
                                    "%d nodes\n",
                                    kv.first.c_str(), nodes);
                        ok = false;
                        break;
                    }

            std::uint64_t oracle = cell.run(cc, 1).checksum;
            if (r.checksum != oracle) {
                std::printf("  FAIL: checksum %llu differs from the "
                            "1-rank run's %llu\n",
                            (unsigned long long)r.checksum,
                            (unsigned long long)oracle);
                ok = false;
            }

            if (std::string(cell.app) == "Radix-VMMC")
                radix_bytes_per_node.push_back(double(arena) / nodes);
        }
    }

    // Sublinearity gate. Even under all-to-all traffic (radix's
    // permutation touches every source), the per-source-lazy memo
    // costs per node one row of N RouteRefs plus its share of the
    // path ints — O(N^1.5) with X-Y routing's O(sqrt(N)) hops. A
    // dense eager cache (or any reintroduced per-node all-pairs
    // state) blows straight through this absolute bound.
    for (std::size_t i = 0; i < radix_bytes_per_node.size(); ++i) {
        double n = geoms[i].nodes();
        double bound = 32.0 * n * std::sqrt(n); // bytes, generous c
        if (radix_bytes_per_node[i] > bound) {
            std::printf("\nFAIL: %s route memo %.0f B/node exceeds "
                        "O(N^1.5) bound %.0f\n",
                        geoms[i].name().c_str(),
                        radix_bytes_per_node[i], bound);
            ok = false;
        }
    }

    std::printf("\nchecksums match 1-rank runs, per-node route state "
                "sublinear in nodes^2: %s\n",
                ok ? "HOLDS" : "VIOLATED");
    return ok ? 0 : 1;
}

/**
 * @file
 * Table 1: application characteristics — API, problem size, and
 * sequential (1-node) execution time — plus the three-NIC design-
 * point matrix: the full suite at its standard node counts on the
 * SHRIMP adapter, the Myrinet-style baseline, and the RDMA-style
 * modern NIC.
 *
 * Paper values (the surviving entries of the scanned table):
 *   Radix-SVM   2M keys, 3 iters   14.3 s
 *   Radix-VMMC  2M keys, 3 iters   10.9 s
 *   DFS-sockets 4 clients           6.9 s
 *   (Ocean-NX does not run on a uniprocessor; two-node time given.)
 *
 * At quick scale the sizes are reduced; at SHRIMP_SCALE=full the
 * radix rows run the paper's sizes and should land in the right
 * ballpark (the calibration constants live in the app configs).
 *
 * The matrix section is capability-adaptive: each app runs its best
 * variant for the NIC at hand (AURC/AU on SHRIMP, HLRC/DU on the
 * others), and every row asserts checksum parity across the three
 * adapters — same answer, different timing. With SHRIMP_REPORT_JSONL
 * set, each matrix cell emits one RunReport line carrying a "nic"
 * param.
 */

#include <cstdio>
#include <string>

#include "bench/bench_common.hh"

using namespace shrimp;
using namespace shrimp::bench;
using namespace shrimp::apps;

namespace
{

constexpr core::NicKind kKinds[3] = {
    core::NicKind::Shrimp,
    core::NicKind::Baseline,
    core::NicKind::Modern,
};

} // anonymous namespace

int
main()
{
    banner("application characteristics", "Table 1 + 3-NIC matrix");

    core::ClusterConfig cc = core::envClusterConfig();
    bool full = fullScale();

    struct Row
    {
        std::string name;
        std::string api;
        std::string size;
        double seq_secs;
        double paper_secs; //!< <0 when the scan lost the value
    };
    std::vector<Row> rows;

    // Each uniprocessor characterisation run is one sweep job. The
    // SVM/AU variants follow the configured NIC's capabilities so the
    // table also runs under SHRIMP_NIC=baseline|modern.
    std::vector<std::function<Row()>> jobs;
    jobs.push_back([cc] {
        auto cfg = barnesSvmConfig();
        auto r = runBarnesSvm(cc, bestProtocol(cc), 1, cfg);
        return Row{"Barnes-SVM", "SVM",
                   std::to_string(cfg.bodies) + " bodies",
                   toSeconds(r.elapsed), -1};
    });
    jobs.push_back([cc] {
        auto cfg = oceanConfig();
        auto r = runOceanSvm(cc, bestProtocol(cc), 1, cfg);
        return Row{"Ocean-SVM", "SVM",
                   std::to_string(cfg.n) + "x" + std::to_string(cfg.n),
                   toSeconds(r.elapsed), -1};
    });
    jobs.push_back([cc, full] {
        auto cfg = radixConfig();
        auto r = runRadixSvm(cc, bestProtocol(cc), 1, cfg);
        return Row{"Radix-SVM", "SVM",
                   std::to_string(cfg.keys / 1024) + "K keys, " +
                       std::to_string(cfg.iterations) + " iters",
                   toSeconds(r.elapsed), full ? 14.3 : -1};
    });
    jobs.push_back([cc, full] {
        auto cfg = radixConfig();
        auto r = runRadixVmmc(cc, bestAu(cc), 1, cfg);
        return Row{"Radix-VMMC", "VMMC",
                   std::to_string(cfg.keys / 1024) + "K keys, " +
                       std::to_string(cfg.iterations) + " iters",
                   toSeconds(r.elapsed), full ? 10.9 : -1};
    });
    jobs.push_back([cc] {
        auto cfg = barnesNxConfig();
        auto r = runBarnesNx(cc, false, 1, cfg);
        return Row{"Barnes-NX", "NX",
                   std::to_string(cfg.bodies) + " bodies, " +
                       std::to_string(cfg.timesteps) + " iters",
                   toSeconds(r.elapsed), -1};
    });
    jobs.push_back([cc] {
        auto cfg = oceanConfig();
        // Paper note: Ocean-NX does not run on a uniprocessor; the
        // two-node running time is given.
        auto r = runOceanNx(cc, bestAu(cc), 2, cfg);
        return Row{"Ocean-NX (2n)", "NX",
                   std::to_string(cfg.n) + "x" + std::to_string(cfg.n),
                   toSeconds(r.elapsed), -1};
    });
    jobs.push_back([cc, full] {
        auto cfg = dfsConfig();
        auto r = runDfs(cc, cfg);
        return Row{"DFS-sockets", "Sockets",
                   std::to_string(cfg.clients) + " clients",
                   toSeconds(r.elapsed), full ? 6.9 : -1};
    });
    jobs.push_back([cc] {
        auto cfg = renderConfig();
        auto r = runRender(cc, cfg);
        return Row{"Render-sockets", "Sockets",
                   std::to_string(cfg.imageSize) + "^2 image",
                   toSeconds(r.elapsed), -1};
    });
    rows = runSweep(std::move(jobs));

    std::printf("%-16s %-8s %-22s %12s %12s\n", "Application", "API",
                "Problem size", "Seq (s)", "Paper (s)");
    for (const auto &r : rows) {
        if (r.paper_secs > 0)
            std::printf("%-16s %-8s %-22s %12.2f %12.1f\n",
                        r.name.c_str(), r.api.c_str(), r.size.c_str(),
                        r.seq_secs, r.paper_secs);
        else
            std::printf("%-16s %-8s %-22s %12.2f %12s\n",
                        r.name.c_str(), r.api.c_str(), r.size.c_str(),
                        r.seq_secs, "(n/a)");
    }

    // ------------------------------------------------------------------
    // The suite across the three NIC design points.
    // ------------------------------------------------------------------

    std::printf("\n--- full suite across NIC design points ---\n");
    std::printf("(best variant per NIC; rows assert checksum "
                "parity)\n\n");

    auto specs = standardApps();
    struct Cell
    {
        double secs = 0;
        std::uint64_t checksum = 0;
    };
    std::vector<std::function<Cell()>> mjobs;
    for (const auto &spec : specs) {
        for (core::NicKind kind : kKinds) {
            mjobs.push_back([spec, kind, cc] {
                core::ClusterConfig mc = cc;
                mc.nicKind = kind;
                auto r = spec.run(mc);
                return Cell{toSeconds(r.elapsed), r.checksum};
            });
        }
    }
    auto cells = runSweep(std::move(mjobs));

    std::printf("%-16s %6s %12s %12s %12s %8s\n", "Application",
                "procs", "shrimp (s)", "baseline (s)", "modern (s)",
                "parity");
    bool all_match = true;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Cell *c = &cells[3 * i];
        bool match = c[0].checksum == c[1].checksum &&
                     c[1].checksum == c[2].checksum;
        all_match = all_match && match;
        std::printf("%-16s %6d %12.3f %12.3f %12.3f %8s\n",
                    specs[i].name.c_str(), specs[i].nprocs, c[0].secs,
                    c[1].secs, c[2].secs, match ? "ok" : "MISMATCH");
    }
    if (!all_match) {
        std::printf("\nchecksum mismatch across NIC kinds\n");
        return 1;
    }
    return 0;
}

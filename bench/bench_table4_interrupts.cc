/**
 * @file
 * Table 4: how important is interrupt avoidance? Execution-time
 * increase when every arriving message raises an interrupt with a
 * null kernel handler (Sec 4.4's what-if).
 *
 * Paper values (16 nodes; Barnes-NX on 8):
 *   Barnes-SVM 18.1%  Ocean-SVM 25.1%  Radix-SVM 1.1%
 *   Radix-VMMC 0.3%   Barnes-NX 6.3%   Ocean-NX 15.7%
 *   DFS-sockets 18.3% Render-sockets 8.5%
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace shrimp;
using namespace shrimp::bench;

int
main()
{
    banner("interrupt per message arrival", "Table 4 (Sec 4.4)");

    struct PaperRow
    {
        const char *name;
        double paper_pct;
    };
    const PaperRow paper[] = {
        {"Barnes-SVM", 18.1}, {"Ocean-SVM", 25.1}, {"Radix-SVM", 1.1},
        {"Radix-VMMC", 0.3},  {"Barnes-NX", 6.3},  {"Ocean-NX", 15.7},
        {"DFS-sockets", 18.3}, {"Render-sockets", 8.5},
    };

    std::printf("%-16s %14s %14s\n", "Application", "measured",
                "paper");

    // Barnes-NX measured on 8 nodes, everything else on 16 (Table 4).
    auto specs = standardApps(/*barnes_nx_procs=*/8);

    std::vector<std::function<apps::AppResult()>> jobs;
    for (const auto &row : paper) {
        const AppSpec *spec = &findApp(specs, row.name);
        for (bool forced : {false, true}) {
            jobs.push_back([spec, forced] {
                core::ClusterConfig cc = shrimpCluster();
                cc.shrimpNic.interruptPerMessage = forced;
                return spec->run(cc);
            });
        }
    }
    auto results = runSweep(std::move(jobs));

    bool ok = true;
    double max_pct = 0, min_pct = 1e9;
    for (std::size_t i = 0; i < std::size(paper); ++i) {
        const auto &base = results[2 * i];
        const auto &slow = results[2 * i + 1];
        double pct = pctIncrease(base.elapsed, slow.elapsed);
        std::printf("%-16s %13.1f%% %13.1f%%\n", paper[i].name, pct,
                    paper[i].paper_pct);
        ok = ok && pct > -1.0; // nothing should speed up
        max_pct = std::max(max_pct, pct);
        min_pct = std::min(min_pct, pct);
    }

    // Paper: "slowdown varies between roughly negligible and 25%".
    ok = ok && max_pct > 6.0 && min_pct < 2.0;
    std::printf("\nshape (spread from ~negligible to >6%%): %s\n",
                ok ? "HOLDS" : "VIOLATED");
    return ok ? 0 : 1;
}

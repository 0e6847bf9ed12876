/**
 * @file
 * Table 2: was user-level DMA necessary? Execution-time increase when
 * every message send makes a system call into a kernel driver first
 * (the what-if of Sec 4.3).
 *
 * Paper values (16 nodes):
 *   Barnes-SVM 23.2%  Ocean-SVM 17.7%  Radix-SVM 2.3%
 *   Radix-VMMC 5.9%   Barnes-NX 52.2%  Ocean-NX 10.1%
 *   Render-sockets 6.8%
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace shrimp;
using namespace shrimp::bench;

int
main()
{
    banner("system call per send", "Table 2 (Sec 4.3)");

    struct PaperRow
    {
        const char *name;
        double paper_pct;
    };
    const PaperRow paper[] = {
        {"Barnes-SVM", 23.2}, {"Ocean-SVM", 17.7}, {"Radix-SVM", 2.3},
        {"Radix-VMMC", 5.9},  {"Barnes-NX", 52.2}, {"Ocean-NX", 10.1},
        {"Render-sockets", 6.8},
    };

    std::printf("%-16s %14s %14s\n", "Application", "measured",
                "paper");

    // udma/syscall runs for each app, all as independent sweep jobs.
    auto specs = standardApps();
    std::vector<std::function<apps::AppResult()>> jobs;
    for (const auto &row : paper) {
        const AppSpec *spec = &findApp(specs, row.name);
        for (bool udma_sends : {true, false}) {
            jobs.push_back([spec, udma_sends] {
                core::ClusterConfig cc = shrimpCluster();
                cc.udmaSends = udma_sends;
                return spec->run(cc);
            });
        }
    }
    auto results = runSweep(std::move(jobs));

    bool all_positive = true;
    double max_pct = 0;
    for (std::size_t i = 0; i < std::size(paper); ++i) {
        const auto &base = results[2 * i];
        const auto &slow = results[2 * i + 1];
        double pct = pctIncrease(base.elapsed, slow.elapsed);
        std::printf("%-16s %13.1f%% %13.1f%%\n", paper[i].name, pct,
                    paper[i].paper_pct);
        all_positive = all_positive && pct > 0.0;
        max_pct = std::max(max_pct, pct);
    }

    bool ok = all_positive && max_pct > 5.0;
    std::printf("\nshape (every app slows down, spread into double "
                "digits): %s\n",
                ok ? "HOLDS" : "VIOLATED");
    return ok ? 0 : 1;
}

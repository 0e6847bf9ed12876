/**
 * @file
 * Table 3: per-application notification counts and notifications as a
 * percentage of total messages (16 nodes).
 *
 * Paper values:
 *   Barnes-SVM  779,136 / 2,394,690 = 33%
 *   Ocean-SVM    35,000 /   438,003 =  8%   (scan-damaged count)
 *   Radix-SVM   161,000 /   384,671 = 42%   (scan-damaged count)
 *   Radix-VMMC        0 /     2,160 =  0%
 *   Barnes-NX    10,623 / 1,024,124 =  1%
 *   Ocean-NX     11,380 / 1,007,342 =  1%
 *   DFS-sockets       0 / 3,931,894 =  0%
 *   Render-sockets    0 /    65,015 =  0%
 *
 * Shape: the SVM applications rely on notifications heavily; the
 * VMMC and sockets applications never use them (they poll); the NX
 * library uses a handful (paper: collective setup) — ~1%.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace shrimp;
using namespace shrimp::bench;

int
main()
{
    banner("notification usage", "Table 3 (Sec 4.4)");

    struct PaperRow
    {
        const char *name;
        int paper_pct;
    };
    const PaperRow paper[] = {
        {"Barnes-SVM", 33},  {"Ocean-SVM", 8},  {"Radix-SVM", 42},
        {"Radix-VMMC", 0},   {"Barnes-NX", 1},  {"Ocean-NX", 1},
        {"DFS-sockets", 0},  {"Render-sockets", 0},
    };

    std::printf("%-16s %14s %14s %8s %10s\n", "Application",
                "notifications", "messages", "pct", "paper pct");

    auto specs = standardApps();
    std::vector<std::function<apps::AppResult()>> jobs;
    for (const auto &row : paper) {
        const AppSpec *spec = &findApp(specs, row.name);
        jobs.push_back([spec] { return spec->run(shrimpCluster()); });
    }
    auto results = runSweep(std::move(jobs));

    bool ok = true;
    for (std::size_t i = 0; i < std::size(paper); ++i) {
        const auto &row = paper[i];
        const auto &r = results[i];
        double pct = r.messages
                         ? 100.0 * double(r.notifications) /
                               double(r.messages)
                         : 0.0;
        std::printf("%-16s %14llu %14llu %7.1f%% %9d%%\n", row.name,
                    (unsigned long long)r.notifications,
                    (unsigned long long)r.messages, pct,
                    row.paper_pct);

        bool is_svm = std::string(row.name).find("SVM") !=
                      std::string::npos;
        if (is_svm)
            ok = ok && pct > 5.0; // SVM: substantial fraction
        else if (row.paper_pct == 0)
            ok = ok && r.notifications == 0; // polling apps: none
    }

    std::printf("\nshape (SVM heavy, VMMC/sockets zero): %s\n",
                ok ? "HOLDS" : "VIOLATED");
    return ok ? 0 : 1;
}

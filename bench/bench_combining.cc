/**
 * @file
 * Sec 4.5.1: automatic update combining.
 *
 * Paper results: for the AURC SVM applications and Radix-VMMC (sparse
 * AU writes) enabling combining changes performance by < 1%; but when
 * AU replaces DU for bulk transfers (DFS-sockets forced onto AU) the
 * no-combining case runs about 2x slower.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace shrimp;
using namespace shrimp::bench;
using namespace shrimp::apps;
using shrimp::svm::Protocol;

namespace
{

AppResult
runWithCombining(const char *app, bool combining)
{
    core::ClusterConfig cc = shrimpCluster();
    if (std::string(app) == "Radix-VMMC") {
        cc.shrimpNic.combiningEnabled = combining;
        return runRadixVmmc(cc, true, 16, radixConfig());
    }
    if (std::string(app) == "Ocean-SVM (AURC)") {
        auto cfg = oceanConfig();
        cc.shrimpNic.combiningEnabled = combining;
        return runOceanSvm(cc, Protocol::AURC, 16, cfg);
    }
    if (std::string(app) == "Radix-SVM (AURC)") {
        cc.shrimpNic.combiningEnabled = combining;
        return runRadixSvm(cc, Protocol::AURC, 16, radixConfig());
    }
    // DFS forced onto the AU transport.
    auto cfg = dfsConfig();
    cfg.useAutomaticUpdate = true;
    cc.shrimpNic.combiningEnabled = combining;
    return runDfs(cc, cfg);
}

} // anonymous namespace

int
main()
{
    banner("automatic update combining", "Sec 4.5.1");

    const char *sparse_apps[] = {"Radix-VMMC", "Ocean-SVM (AURC)",
                                 "Radix-SVM (AURC)"};

    std::printf("%-20s %14s %14s %12s\n", "Application", "comb (ms)",
                "no-comb (ms)", "no/comb");

    bool ok = true;
    for (const char *app : sparse_apps) {
        auto with = runWithCombining(app, true);
        auto without = runWithCombining(app, false);
        double ratio = double(without.elapsed) / double(with.elapsed);
        std::printf("%-20s %14.2f %14.2f %12.3f\n", app,
                    toSeconds(with.elapsed) * 1e3,
                    toSeconds(without.elapsed) * 1e3, ratio);
        std::fflush(stdout);
        // Paper: < 1% effect for sparse writers. Allow a little slack
        // at quick scale.
        ok = ok && ratio < 1.10 && ratio > 0.90;
    }

    auto dfs_with = runWithCombining("DFS (AU)", true);
    auto dfs_without = runWithCombining("DFS (AU)", false);
    double dfs_ratio =
        double(dfs_without.elapsed) / double(dfs_with.elapsed);
    std::printf("%-20s %14.2f %14.2f %12.3f\n", "DFS-sockets (AU)",
                toSeconds(dfs_with.elapsed) * 1e3,
                toSeconds(dfs_without.elapsed) * 1e3, dfs_ratio);
    ok = ok && dfs_ratio > 1.5; // paper: about a factor of two

    std::printf("\nshape (<~1%% sparse apps; ~2x for bulk AU DFS): "
                "%s\n",
                ok ? "HOLDS" : "VIOLATED");
    return ok ? 0 : 1;
}

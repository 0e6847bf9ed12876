/**
 * @file
 * Sec 4.5.3: deliberate-update request queueing.
 *
 * Paper result: a 2-deep request queue on the NI (enabling truly
 * asynchronous back-to-back sends) changes SVM application
 * performance by less than 1% of execution time — because the memory
 * bus cannot cycle-share between the CPU and the ongoing DMA, the CPU
 * gains nothing from queueing a second transfer.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace shrimp;
using namespace shrimp::bench;
using namespace shrimp::apps;
using shrimp::svm::Protocol;

int
main()
{
    banner("deliberate update queueing", "Sec 4.5.3");

    std::printf("%-14s %14s %14s %9s\n", "app", "no queue (ms)",
                "2-deep (ms)", "delta");

    struct Case
    {
        const char *name;
        Protocol proto;
    };
    const Case cases[] = {
        {"Radix-SVM", Protocol::HLRC},
        {"Ocean-SVM", Protocol::HLRC},
        {"Barnes-SVM", Protocol::HLRC},
    };

    bool ok = true;
    for (const auto &cse : cases) {
        core::ClusterConfig depth1 = shrimpCluster();
        depth1.shrimpNic.duQueueDepth = 1;
        core::ClusterConfig depth2 = depth1;
        depth2.shrimpNic.duQueueDepth = 2;

        AppResult r1, r2;
        if (std::string(cse.name) == "Radix-SVM") {
            r1 = runRadixSvm(depth1, cse.proto, 16, radixConfig());
            r2 = runRadixSvm(depth2, cse.proto, 16, radixConfig());
        } else if (std::string(cse.name) == "Ocean-SVM") {
            r1 = runOceanSvm(depth1, cse.proto, 16, oceanConfig());
            r2 = runOceanSvm(depth2, cse.proto, 16, oceanConfig());
        } else {
            r1 = runBarnesSvm(depth1, cse.proto, 16,
                              barnesSvmConfig());
            r2 = runBarnesSvm(depth2, cse.proto, 16,
                              barnesSvmConfig());
        }
        double delta = pctIncrease(r1.elapsed, r2.elapsed);
        std::printf("%-14s %14.2f %14.2f %8.2f%%\n", cse.name,
                    toSeconds(r1.elapsed) * 1e3,
                    toSeconds(r2.elapsed) * 1e3, delta);
        std::fflush(stdout);
        // Paper: within 1%; allow small slack at quick scale.
        ok = ok && std::abs(delta) < 2.5;
    }

    std::printf("\nshape (queueing gains within noise): %s\n",
                ok ? "HOLDS" : "VIOLATED");
    return ok ? 0 : 1;
}

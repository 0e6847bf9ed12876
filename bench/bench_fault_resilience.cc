/**
 * @file
 * Fault-resilience sweep: applications on a lossy backplane.
 *
 * Sweeps the per-link-crossing drop rate across representative
 * workloads with the link-level retransmission protocol active and
 * reports the slowdown relative to the protocol-on, loss-free run
 * (rate 0, which shows the pure ACK/sequence overhead), the drop /
 * retransmission / timeout counts, and — the point of the exercise —
 * that every run still computes the same answer: the application
 * checksum must match the loss-free run at every drop rate.
 *
 * Barnes-SVM is the one timing-dependent answer in the suite: its
 * parallel tree build inserts bodies under per-cell locks, so the
 * lock-grant order — and with it the floating-point accumulation
 * order — legally shifts when retransmission delays reorder message
 * arrivals. For it the sweep asserts reproducibility instead: the
 * same lossy configuration run twice must agree bit for bit (which
 * still catches protocol nondeterminism and corruption).
 *
 * Exits nonzero on any checksum mismatch, so CI can use it as an
 * end-to-end correctness smoke for the reliability protocol.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace shrimp;
using namespace shrimp::bench;
using namespace shrimp::apps;

namespace
{

/** Small, fast workloads; resilience, not paper-scale performance. */
RadixConfig
smallRadix()
{
    RadixConfig cfg;
    cfg.keys = fullScale() ? 256 * 1024 : 64 * 1024;
    cfg.iterations = 2;
    return cfg;
}

OceanConfig
smallOcean()
{
    OceanConfig cfg;
    cfg.n = fullScale() ? 130 : 66;
    cfg.iterations = fullScale() ? 10 : 5;
    return cfg;
}

BarnesConfig
smallBarnes(int timesteps)
{
    BarnesConfig cfg;
    cfg.bodies = 2048;
    cfg.timesteps = timesteps;
    return cfg;
}

struct FaultApp
{
    const char *name;
    std::function<AppResult(const core::ClusterConfig &)> run;
    /**
     * The app's answer legally depends on message timing (lock-grant
     * order feeds floating-point accumulation order). Lossy runs are
     * checked for bit-exact reproducibility against a second run of
     * the same configuration instead of equality with the loss-free
     * run.
     */
    bool timingDependent = false;
};

/**
 * The sweep's application set. The three headline transfer paths (AU,
 * DU, NX) always run; SHRIMP_SCALE=full unlocks the whole Table-1
 * suite — every API (SVM, VMMC, NX, sockets) on the lossy backplane,
 * recorded per (app, rate) in the JSONL report when the sink is set.
 */
std::vector<FaultApp>
faultApps()
{
    std::vector<FaultApp> fapps = {
        {"Radix-VMMC-AU",
         [](const core::ClusterConfig &cc) {
             return runRadixVmmc(cc, /*au=*/true, 16, smallRadix());
         }},
        {"Radix-VMMC-DU",
         [](const core::ClusterConfig &cc) {
             return runRadixVmmc(cc, /*au=*/false, 16, smallRadix());
         }},
        {"Ocean-NX",
         [](const core::ClusterConfig &cc) {
             return runOceanNx(cc, /*au=*/true, 16, smallOcean());
         }},
    };
    if (!fullScale())
        return fapps;
    fapps.push_back({"Radix-SVM", [](const core::ClusterConfig &cc) {
                         return runRadixSvm(cc, svm::Protocol::AURC,
                                            16, smallRadix());
                     }});
    fapps.push_back({"Ocean-SVM", [](const core::ClusterConfig &cc) {
                         return runOceanSvm(cc, svm::Protocol::AURC,
                                            16, smallOcean());
                     }});
    fapps.push_back({"Barnes-SVM",
                     [](const core::ClusterConfig &cc) {
                         return runBarnesSvm(cc, svm::Protocol::AURC,
                                             16, smallBarnes(2));
                     },
                     /*timingDependent=*/true});
    fapps.push_back({"Barnes-NX", [](const core::ClusterConfig &cc) {
                         return runBarnesNx(cc, /*au=*/false, 16,
                                            smallBarnes(3));
                     }});
    // The sockets apps keep their quick sizes even at full scale:
    // the sweep multiplies every app by every rate, and resilience
    // needs traffic diversity, not paper-scale runtimes.
    fapps.push_back({"DFS-sockets", [](const core::ClusterConfig &cc) {
                         DfsConfig cfg;
                         cfg.filesPerClient = 3;
                         cfg.blocksPerFile = 32;
                         return runDfs(cc, cfg);
                     }});
    fapps.push_back(
        {"Render-sockets", [](const core::ClusterConfig &cc) {
             RenderConfig cfg;
             cfg.imageSize = 192;
             cfg.tileSize = 32;
             cfg.volumeBytes = 512 * 1024;
             return runRender(cc, cfg);
         }});
    return fapps;
}

} // anonymous namespace

int
main()
{
    banner("fault resilience sweep",
           "reliability extension (lossy backplane, go-back-N NICs)");

    const std::vector<FaultApp> fapps = faultApps();
    const double rates[] = {0.0, 0.001, 0.01, 0.05};

    // One job per (app, rate); all independent, so one flat sweep.
    // Timing-dependent apps get a second, unreported run of every
    // lossy configuration so the check loop can assert bit-exact
    // reproducibility instead of loss-free equality.
    constexpr std::size_t kRates = std::size(rates);
    std::vector<std::function<AppResult()>> jobs;
    std::vector<std::size_t> repeatIdx(fapps.size() * kRates, 0);
    for (const FaultApp &fa : fapps) {
        for (double rate : rates) {
            auto run = fa.run;
            jobs.push_back([run, rate] {
                auto r = timedRun(
                    [&] { return run(withFaults(shrimpCluster(), rate)); });
                r.param("fault_drop_rate", rate);
                maybeEmitReport(r);
                return r;
            });
        }
    }
    for (std::size_t a = 0; a < fapps.size(); ++a) {
        if (!fapps[a].timingDependent)
            continue;
        for (std::size_t ri = 0; ri < kRates; ++ri) {
            if (rates[ri] == 0.0)
                continue;
            auto run = fapps[a].run;
            double rate = rates[ri];
            repeatIdx[a * kRates + ri] = jobs.size();
            jobs.push_back([run, rate] {
                return timedRun(
                    [&] { return run(withFaults(shrimpCluster(), rate)); });
            });
        }
    }
    auto results = runSweep(std::move(jobs));

    std::printf("%-16s %8s %12s %9s %8s %8s %7s %7s  %s\n", "app",
                "drop", "elapsed ms", "slowdown", "drops", "retx",
                "rto", "dup_rx", "checksum");

    bool ok = true;
    for (std::size_t a = 0; a < std::size(fapps); ++a) {
        const AppResult &clean = results[a * kRates];
        for (std::size_t ri = 0; ri < kRates; ++ri) {
            const AppResult &r = results[a * kRates + ri];
            const char *label_ok = "match";
            const char *label_bad = "MISMATCH";
            bool match;
            if (std::size_t rep = repeatIdx[a * kRates + ri]) {
                match = r.checksum == results[rep].checksum;
                label_ok = "repro";
                label_bad = "DIVERGED";
            } else {
                match = r.checksum == clean.checksum;
            }
            ok = ok && match;
            std::printf(
                "%-16s %8.3f %12.3f %8.1f%% %8llu %8llu %7llu %7llu"
                "  %s\n",
                fapps[a].name, rates[ri], toSeconds(r.elapsed) * 1e3,
                pctIncrease(clean.elapsed, r.elapsed),
                (unsigned long long)r.stats.counterValue("mesh.drops"),
                (unsigned long long)r.stats.counterValue(
                    "mesh.retransmits"),
                (unsigned long long)r.stats.counterValue(
                    "mesh.rto_fires"),
                (unsigned long long)r.stats.counterValue("mesh.dup_rx"),
                match ? label_ok : label_bad);
        }
    }

    if (!ok) {
        std::printf("\nFAIL: a lossy run computed a different answer\n");
        return 1;
    }
    std::printf("\nall checksums match the loss-free (or repeated "
                "lossy) runs\n");
    return 0;
}

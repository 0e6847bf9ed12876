/**
 * @file
 * Shared infrastructure for the experiment harness: problem-size
 * scaling, the standard application registry (the paper's Table 1
 * suite), and table formatting.
 *
 * Every bench binary reproduces one table or figure of the paper.
 * By default the workloads run at reduced ("quick") problem sizes so
 * the whole suite completes in minutes; set SHRIMP_SCALE=full in the
 * environment for the paper's sizes (2M-key radix, 258^2 Ocean, 16K-
 * body Barnes), which take correspondingly longer host time.
 */

#ifndef SHRIMP_BENCH_BENCH_COMMON_HH
#define SHRIMP_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "apps/barnes.hh"
#include "apps/dfs.hh"
#include "apps/ocean.hh"
#include "apps/radix.hh"
#include "apps/render.hh"
#include "bench/sweep.hh"
#include "nic/nic_kind.hh"
#include "sim/logging.hh"

namespace shrimp::bench
{

/**
 * The environment's run settings (core::envClusterConfig()) on the
 * SHRIMP NI: the base config of every bench that reproduces a
 * SHRIMP-NI figure or what-if, so SHRIMP_NIC does not reach it.
 */
inline core::ClusterConfig
shrimpCluster()
{
    core::ClusterConfig cc = core::envClusterConfig();
    cc.nicKind = nic::NicKind::Shrimp;
    return cc;
}

/** True when SHRIMP_SCALE=full is set. */
inline bool
fullScale()
{
    const char *v = std::getenv("SHRIMP_SCALE");
    return v && std::strcmp(v, "full") == 0;
}

/** Print the standard bench banner. */
inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("=== %s ===\n", what);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("scale: %s (set SHRIMP_SCALE=full for paper sizes)\n\n",
                fullScale() ? "full" : "quick");
}

// ----------------------------------------------------------------------
// Problem sizes
// ----------------------------------------------------------------------

inline apps::RadixConfig
radixConfig()
{
    apps::RadixConfig cfg;
    if (fullScale()) {
        cfg.keys = 2 * 1024 * 1024; // paper: 2M keys
        cfg.iterations = 3;         // paper: 3 iters
    } else {
        cfg.keys = 256 * 1024;
        cfg.iterations = 2;
    }
    return cfg;
}

inline apps::OceanConfig
oceanConfig()
{
    apps::OceanConfig cfg;
    if (fullScale()) {
        cfg.n = 258; // paper: 258 x 258
        cfg.iterations = 30;
    } else {
        cfg.n = 130;
        cfg.iterations = 10;
    }
    return cfg;
}

inline apps::BarnesConfig
barnesSvmConfig()
{
    apps::BarnesConfig cfg;
    if (fullScale()) {
        cfg.bodies = 16384; // paper: 16K bodies
        cfg.timesteps = 3;
    } else {
        cfg.bodies = 4096;
        cfg.timesteps = 2;
    }
    return cfg;
}

inline apps::BarnesConfig
barnesNxConfig()
{
    apps::BarnesConfig cfg;
    if (fullScale()) {
        cfg.bodies = 4096; // paper: 4K bodies, 20 iters
        cfg.timesteps = 20;
    } else {
        cfg.bodies = 2048;
        cfg.timesteps = 3;
    }
    return cfg;
}

inline apps::DfsConfig
dfsConfig()
{
    apps::DfsConfig cfg; // paper: 4 clients
    if (fullScale()) {
        cfg.filesPerClient = 8;
        cfg.blocksPerFile = 96;
    } else {
        cfg.filesPerClient = 3;
        cfg.blocksPerFile = 32;
    }
    return cfg;
}

inline apps::RenderConfig
renderConfig()
{
    apps::RenderConfig cfg;
    if (fullScale()) {
        cfg.imageSize = 384;
        cfg.tileSize = 32;
    } else {
        cfg.imageSize = 192;
        cfg.tileSize = 32;
        cfg.volumeBytes = 512 * 1024;
    }
    return cfg;
}

// ----------------------------------------------------------------------
// Machine-readable reports
// ----------------------------------------------------------------------

/**
 * If SHRIMP_REPORT_JSONL names a file, append @p r as one compact
 * RunReport line (through the sweep-safe sink; see bench/sweep.hh).
 * Lets any bench binary double as a data producer for plotting
 * scripts without changing its table output. With SHRIMP_REPORT_HOST=1
 * the line also carries the run's host block (apps::hostPerf),
 * tracking the simulator's own performance across PRs.
 */
inline void
maybeEmitReport(const apps::AppResult &r)
{
    const char *path = std::getenv("SHRIMP_REPORT_JSONL");
    if (!path || !*path)
        return;
    RunReport rep = apps::makeReport(r);
    // Identify an ambient topology override in the JSONL stream:
    // default-mesh lines stay byte-identical to reports from before
    // the knob existed, SHRIMP_MESH runs identify their geometry
    // (unless the bench already stamped one itself).
    core::ClusterConfig env = core::envClusterConfig();
    if ((env.meshWidth != 4 || env.meshHeight != 4) &&
        !rep.params.count("mesh"))
        rep.params["mesh"] = std::to_string(env.meshWidth) + "x" +
                             std::to_string(env.meshHeight);
    if (apps::reportHostPerf())
        rep.host = apps::hostPerf(r);
    emitReport(rep);
}

// ----------------------------------------------------------------------
// The Table 1 application suite
// ----------------------------------------------------------------------

/** One registry entry: a runnable application configuration. */
struct AppSpec
{
    std::string name;  //!< as in the paper's tables
    std::string api;   //!< SVM / VMMC / NX / Sockets
    int nprocs;        //!< standard node count for the tables

    /**
     * Run at an arbitrary processor count (speedup curves). DFS and
     * Render size themselves from their configs and ignore it.
     */
    std::function<apps::AppResult(const core::ClusterConfig &, int)>
        runAt;

    /** Run under the given cluster config at @p nprocs. */
    apps::AppResult
    run(const core::ClusterConfig &cc) const
    {
        return runAt(cc, nprocs);
    }
};

/**
 * The eight applications with their best-performing variant, as used
 * throughout Sec 4's tables (16 nodes unless stated otherwise).
 *
 * @param barnes_nx_procs Table 4 measures Barnes-NX on 8 nodes.
 */
inline std::vector<AppSpec>
standardApps(int barnes_nx_procs = 16)
{
    using namespace shrimp::apps;
    std::vector<AppSpec> specs;

    // SVM protocols and the AU bulk-transfer variants are selected per
    // run from the configured NIC's capabilities (bestProtocol/bestAu)
    // so the same registry covers AU-less adapters.
    specs.push_back(
        {"Barnes-SVM", "SVM", 16,
         [](const core::ClusterConfig &cc, int p) {
             return runBarnesSvm(cc, bestProtocol(cc), p,
                                 barnesSvmConfig());
         }});
    specs.push_back(
        {"Ocean-SVM", "SVM", 16,
         [](const core::ClusterConfig &cc, int p) {
             return runOceanSvm(cc, bestProtocol(cc), p, oceanConfig());
         }});
    specs.push_back(
        {"Radix-SVM", "SVM", 16,
         [](const core::ClusterConfig &cc, int p) {
             return runRadixSvm(cc, bestProtocol(cc), p, radixConfig());
         }});
    specs.push_back(
        {"Radix-VMMC", "VMMC", 16,
         [](const core::ClusterConfig &cc, int p) {
             return runRadixVmmc(cc, bestAu(cc), p, radixConfig());
         }});
    specs.push_back(
        {"Barnes-NX", "NX", barnes_nx_procs,
         [](const core::ClusterConfig &cc, int p) {
             return runBarnesNx(cc, /*au=*/false, p, barnesNxConfig());
         }});
    specs.push_back(
        {"Ocean-NX", "NX", 16,
         [](const core::ClusterConfig &cc, int p) {
             return runOceanNx(cc, bestAu(cc), p, oceanConfig());
         }});
    specs.push_back({"DFS-sockets", "Sockets", 12,
                     [](const core::ClusterConfig &cc, int) {
                         return runDfs(cc, dfsConfig());
                     }});
    specs.push_back({"Render-sockets", "Sockets", 16,
                     [](const core::ClusterConfig &cc, int) {
                         return runRender(cc, renderConfig());
                     }});

    // Every registry run feeds the JSONL report sink when enabled,
    // stamped with its host wall time for the perf-trajectory report
    // and the NIC kind it ran on (the three-NIC matrix relies on it).
    for (auto &s : specs) {
        s.runAt = [run_at = s.runAt](const core::ClusterConfig &cc,
                                     int p) {
            auto r = apps::timedRun([&] { return run_at(cc, p); });
            r.param("nic", nic::nicKindName(cc.nicKind));
            maybeEmitReport(r);
            return r;
        };
    }
    return specs;
}

/** The registry entry named @p name; a name not in @p specs is fatal. */
inline const AppSpec &
findApp(const std::vector<AppSpec> &specs, const std::string &name)
{
    for (const auto &s : specs)
        if (s.name == name)
            return s;
    fatal("no application named %s in the registry", name.c_str());
}

/**
 * A cluster config with the fault plane active at @p drop_rate.
 * forceReliability keeps the protocol on even at rate 0, so the
 * rate-0 row of a resilience sweep shows the pure protocol overhead.
 */
inline core::ClusterConfig
withFaults(core::ClusterConfig cc, double drop_rate,
           std::uint64_t seed = 1)
{
    cc.network.fault.dropRate = drop_rate;
    cc.network.fault.seed = seed;
    cc.network.fault.forceReliability = true;
    return cc;
}

/** Percent-change helper. */
inline double
pctIncrease(Tick base, Tick changed)
{
    return base ? 100.0 * (double(changed) - double(base)) /
                      double(base)
                : 0.0;
}

} // namespace shrimp::bench

#endif // SHRIMP_BENCH_BENCH_COMMON_HH

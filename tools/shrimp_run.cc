/**
 * @file
 * shrimp_run — run any of the paper's workloads on any configuration
 * of the simulated SHRIMP cluster from the command line.
 *
 * Examples:
 *   shrimp_run --app radix-vmmc --procs 16 --au
 *   shrimp_run --app radix-svm --protocol aurc --keys 524288
 *   shrimp_run --app barnes-svm --procs 8 --no-udma
 *   shrimp_run --app radix-svm --stats-json report.json --causal c.jsonl
 *
 * Every what-if knob of the paper's Sec 4 is exposed: kernel-mediated
 * sends (--no-udma), forced per-message interrupts, combining, FIFO
 * capacity, DU queue depth, and the baseline Myrinet-style NIC.
 * Observability: --stats-json writes the machine-readable RunReport,
 * --causal the span log that shrimp_analyze analyzes and draws as a
 * Chrome timeline (see README).
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "apps/barnes.hh"
#include "apps/dfs.hh"
#include "apps/ocean.hh"
#include "apps/radix.hh"
#include "apps/render.hh"
#include "mesh/topology.hh"
#include "nic/nic_kind.hh"
#include "sim/causal.hh"
#include "sim/logging.hh"
#include "sim/run_report.hh"

using namespace shrimp;
using namespace shrimp::apps;
using shrimp::svm::Protocol;

namespace
{

constexpr const char *kApps[] = {
    "radix-svm", "radix-vmmc", "ocean-svm", "ocean-nx",
    "barnes-svm", "barnes-nx", "dfs", "render",
};

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --app <name> [options]\n"
        "\n"
        "A flag overrides the SHRIMP_* environment variable that sets\n"
        "the same knob.\n"
        "\n"
        "apps: radix-svm radix-vmmc ocean-svm ocean-nx barnes-svm\n"
        "      barnes-nx dfs render   (--list-apps prints one per line)\n"
        "\n"
        "workload options:\n"
        "  --procs N          processors (default 16; render needs 2\n"
        "                     or more: one master, N-1 workers)\n"
        "  --protocol P       SVM protocol: hlrc | hlrc-au | aurc\n"
        "  --au / --du        update variant (VMMC/NX/sockets apps)\n"
        "  --keys N           radix keys (default 262144)\n"
        "  --grid N           ocean grid edge (default 130)\n"
        "  --bodies N         barnes bodies (default 4096); keys and\n"
        "                     bodies must split evenly over --procs\n"
        "  --steps N          iterations/timesteps\n"
        "  --seed N           workload seed, a whole number >= 0\n"
        "                     (default: the app's own seed)\n"
        "\n"
        "what-if knobs (Sec 4 + the modern design point):\n"
        "  --mesh WxH         mesh geometry (default 4x4; the paper's\n"
        "                     Paragon; try 16x16 or 32x32 — the\n"
        "                     SHRIMP_MESH environment variable sets\n"
        "                     the same knob)\n"
        "  --nic KIND         shrimp (default) | baseline (Myrinet-\n"
        "                     style) | modern (RDMA-style: doorbells,\n"
        "                     completion queues, notifiable writes;\n"
        "                     SHRIMP_NIC sets the same knob)\n"
        "  --no-udma          system call before every send (Table 2)\n"
        "  --interrupt-per-message   forced interrupts (Table 4)\n"
        "  --no-combining     disable AU combining (Sec 4.5.1)\n"
        "  --fifo BYTES       outgoing FIFO capacity (Sec 4.5.2)\n"
        "  --du-queue N       DU request queue depth (Sec 4.5.3)\n"
        "\n"
        "fault injection (deterministic; any of these enables the\n"
        "link-level retransmission protocol in the NICs):\n"
        "  --fault-drop-rate P       per-link-crossing drop probability\n"
        "  --fault-corrupt-rate P    per-crossing corruption probability\n"
        "  --fault-jitter-rate P     per-crossing extra-delay probability\n"
        "  --fault-max-jitter NS     max extra delay, 0 to 1e9 ns\n"
        "  --fault-seed N            fault-plane RNG seed (default 1)\n"
        "  --fault-link-down L:T0:T1 link L dead from T0 to T1 (us);\n"
        "                            repeatable\n"
        "  --fault-reliability       run the protocol with no faults\n"
        "  (SHRIMP_FAULT_* environment variables set the same knobs)\n"
        "\n"
        "observability:\n"
        "  --stats-json FILE  write the JSON run report to FILE\n"
        "  --lifecycle        per-packet latency attribution; adds the\n"
        "                     latency_breakdown block to the report\n"
        "  --causal FILE      record the causal trace (parent-linked\n"
        "                     spans, JSONL); feed it to shrimp_analyze\n"
        "                     --critical-path, or --chrome for a\n"
        "                     Chrome timeline (SHRIMP_CAUSAL sets the\n"
        "                     same knob)\n"
        "  --metrics-interval-us N   also sample the gauges (bus, NIC,\n"
        "                     FIFO, link and event-queue occupancy)\n"
        "                     every N simulated microseconds into the\n"
        "                     causal log, which it needs; a whole\n"
        "                     number, 0 is off (SHRIMP_METRICS_\n"
        "                     INTERVAL_US sets the same knob)\n"
        "\n"
        "host execution:\n"
        "  --watchdog-secs N  soak watchdog: dump progress state to\n"
        "                     stderr when simulated time stalls for N\n"
        "                     real seconds, 0 is off (SIGUSR1 dumps on\n"
        "                     demand; SHRIMP_WATCHDOG_SECS sets the\n"
        "                     same knob)\n"
        "  --list-apps        print the app names and exit\n"
        "",
        argv0);
    std::exit(2);
}

struct Options
{
    std::string app;
    int procs = 16;
    Protocol protocol = Protocol::AURC;
    bool protocolGiven = false; //!< --protocol appeared explicitly
    bool useAu = true;
    bool auGiven = false; //!< --au/--du appeared on the command line
    std::size_t keys = 262144;
    int grid = 130;
    int bodies = 4096;
    int steps = -1;
    std::optional<std::uint64_t> seed; //!< --seed; unset = the app's own
    std::string statsJson; //!< --stats-json destination, empty = off
    std::string causalFile; //!< --causal destination, empty = off

    /** The environment's run settings, then the flags on top. */
    core::ClusterConfig cluster = core::envClusterConfig();

    /** SHRIMP_REPORT_HOST, read before the run so a bad value fails fast. */
    bool reportHost = reportHostPerf();

    /** The single command-line entry point. Exits on bad input. */
    static Options parse(int argc, char **argv);
};

Options
Options::parse(int argc, char **argv)
{
    Options o;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: %s needs an argument\n", argv[0],
                         argv[i]);
            usage(argv[0]);
        }
        return argv[++i];
    };
    // A number from 0 to @p hi. Every number a flag takes must parse
    // in full.
    auto needNonNegative = [&](int &i, double hi) -> double {
        const char *flag = argv[i];
        const char *text = need(i);
        double v = 0;
        if (!core::parseReal(text, 0, hi, v)) {
            std::fprintf(stderr,
                         "%s: %s wants a number from 0 to %g, got '%s'\n",
                         argv[0], flag, hi, text);
            usage(argv[0]);
        }
        return v;
    };
    auto needRate = [&](int &i) { return needNonNegative(i, 1.0); };
    // A count: a whole decimal number from @p lo to @p hi.
    auto needCount = [&](int &i, long lo, long hi = INT_MAX) -> long {
        const char *flag = argv[i];
        const char *text = need(i);
        long v = 0;
        if (!core::parseWhole(text, lo, hi, v)) {
            std::fprintf(stderr,
                         "%s: %s wants a whole number from %ld to %ld, "
                         "got '%s'\n",
                         argv[0], flag, lo, hi, text);
            usage(argv[0]);
        }
        return v;
    };
    bool interval_given = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--app") {
            o.app = need(i);
        } else if (a == "--list-apps") {
            for (const char *name : kApps)
                std::printf("%s\n", name);
            std::exit(0);
        } else if (a == "--procs") {
            o.procs = int(needCount(i, 1));
        } else if (a == "--protocol") {
            o.protocolGiven = true;
            std::string p = need(i);
            if (p == "hlrc")
                o.protocol = Protocol::HLRC;
            else if (p == "hlrc-au")
                o.protocol = Protocol::HLRC_AU;
            else if (p == "aurc")
                o.protocol = Protocol::AURC;
            else {
                std::fprintf(stderr, "%s: unknown protocol '%s'\n",
                             argv[0], p.c_str());
                usage(argv[0]);
            }
        } else if (a == "--au") {
            o.useAu = true;
            o.auGiven = true;
        } else if (a == "--du") {
            o.useAu = false;
            o.auGiven = true;
        } else if (a == "--keys") {
            o.keys = std::size_t(needCount(i, 1));
        } else if (a == "--grid") {
            o.grid = int(needCount(i, 1));
        } else if (a == "--bodies") {
            o.bodies = int(needCount(i, 1));
        } else if (a == "--steps") {
            o.steps = int(needCount(i, 1));
        } else if (a == "--seed") {
            o.seed = std::uint64_t(needCount(i, 0, LONG_MAX));
        } else if (a == "--mesh") {
            const char *spec = need(i);
            if (!core::parseMesh(spec, o.cluster.meshWidth,
                                 o.cluster.meshHeight)) {
                std::fprintf(stderr,
                             "%s: bad mesh spec '%s' (want WxH with "
                             "at most %d nodes)\n",
                             argv[0], spec, mesh::kMaxMeshNodes);
                usage(argv[0]);
            }
        } else if (a == "--nic") {
            const char *n = need(i);
            if (!nic::parseNicKind(n, o.cluster.nicKind)) {
                std::fprintf(stderr,
                             "%s: unknown nic '%s' (want "
                             "shrimp|baseline|modern)\n",
                             argv[0], n);
                usage(argv[0]);
            }
        } else if (a == "--no-udma") {
            o.cluster.udmaSends = false;
        } else if (a == "--interrupt-per-message") {
            o.cluster.shrimpNic.interruptPerMessage = true;
        } else if (a == "--no-combining") {
            o.cluster.shrimpNic.combiningEnabled = false;
        } else if (a == "--fifo") {
            o.cluster.shrimpNic.outFifoBytes =
                std::uint32_t(needCount(i, 1));
        } else if (a == "--du-queue") {
            o.cluster.shrimpNic.duQueueDepth = int(needCount(i, 1));
        } else if (a == "--fault-drop-rate") {
            o.cluster.network.fault.dropRate = needRate(i);
        } else if (a == "--fault-corrupt-rate") {
            o.cluster.network.fault.corruptRate = needRate(i);
        } else if (a == "--fault-jitter-rate") {
            o.cluster.network.fault.jitterRate = needRate(i);
        } else if (a == "--fault-max-jitter") {
            o.cluster.network.fault.maxJitter =
                nanoseconds(needNonNegative(i, core::kMaxJitterNs));
        } else if (a == "--fault-seed") {
            o.cluster.network.fault.seed =
                std::uint64_t(needCount(i, 0, LONG_MAX));
        } else if (a == "--fault-link-down") {
            mesh::LinkOutage outage;
            const char *spec = need(i);
            if (!mesh::parseLinkOutage(spec, outage)) {
                std::fprintf(stderr,
                             "%s: bad outage spec '%s' (want "
                             "LINK:T0us:T1us)\n",
                             argv[0], spec);
                usage(argv[0]);
            }
            o.cluster.network.fault.outages.push_back(outage);
        } else if (a == "--fault-reliability") {
            o.cluster.network.fault.forceReliability = true;
        } else if (a == "--stats-json") {
            o.statsJson = need(i);
        } else if (a == "--causal") {
            o.causalFile = need(i);
        } else if (a == "--metrics-interval-us") {
            o.cluster.metricsInterval =
                microseconds(double(needCount(i, 0)));
            interval_given = o.cluster.metricsInterval > 0;
        } else if (a == "--lifecycle") {
            o.cluster.lifecycleTracing = true;
        } else if (a == "--watchdog-secs") {
            o.cluster.watchdogSecs = int(needCount(i, 0));
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         a.c_str());
            usage(argv[0]);
        }
    }
    if (o.app.empty()) {
        std::fprintf(stderr, "%s: --app is required\n", argv[0]);
        usage(argv[0]);
    }
    if (o.app == "render" && o.procs < 2) {
        // One rank is the master; the rest render.
        std::fprintf(stderr, "%s: render needs --procs 2 or more\n",
                     argv[0]);
        usage(argv[0]);
    }
    const char *env_log = std::getenv("SHRIMP_CAUSAL");
    if (interval_given && o.causalFile.empty() && !(env_log && *env_log)) {
        // The samples are written only to the causal log.
        std::fprintf(stderr,
                     "%s: --metrics-interval-us samples into the causal "
                     "log; name one with --causal or SHRIMP_CAUSAL\n",
                     argv[0]);
        usage(argv[0]);
    }
    return o;
}

AppResult
runApp(const Options &o)
{
    if (o.app == "radix-svm" || o.app == "radix-vmmc") {
        RadixConfig cfg;
        cfg.keys = o.keys;
        if (o.steps > 0)
            cfg.iterations = o.steps;
        if (o.seed)
            cfg.seed = *o.seed;
        return o.app == "radix-svm"
                   ? runRadixSvm(o.cluster, o.protocol, o.procs, cfg)
                   : runRadixVmmc(o.cluster, o.useAu, o.procs, cfg);
    }
    if (o.app == "ocean-svm" || o.app == "ocean-nx") {
        OceanConfig cfg;
        cfg.n = o.grid;
        if (o.steps > 0)
            cfg.iterations = o.steps;
        return o.app == "ocean-svm"
                   ? runOceanSvm(o.cluster, o.protocol, o.procs, cfg)
                   : runOceanNx(o.cluster, o.useAu, o.procs, cfg);
    }
    if (o.app == "barnes-svm" || o.app == "barnes-nx") {
        BarnesConfig cfg;
        cfg.bodies = o.bodies;
        cfg.timesteps = o.steps > 0 ? o.steps : 2;
        if (o.seed)
            cfg.seed = *o.seed;
        return o.app == "barnes-svm"
                   ? runBarnesSvm(o.cluster, o.protocol, o.procs, cfg)
                   : runBarnesNx(o.cluster, o.useAu, o.procs, cfg);
    }
    if (o.app == "dfs") {
        DfsConfig cfg;
        cfg.useAutomaticUpdate = o.useAu;
        return runDfs(o.cluster, cfg);
    }
    if (o.app == "render") {
        RenderConfig cfg;
        cfg.workers = o.procs - 1;
        cfg.useAutomaticUpdate = o.useAu;
        return runRender(o.cluster, cfg);
    }
    std::fprintf(stderr, "unknown app '%s' (try --list-apps)\n",
                 o.app.c_str());
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options o = Options::parse(argc, argv);

    int mesh_nodes = o.cluster.meshWidth * o.cluster.meshHeight;
    if (o.app != "dfs" && o.procs > mesh_nodes) {
        std::fprintf(stderr,
                     "%s: --procs %d exceeds the %dx%d mesh's %d "
                     "nodes\n",
                     argv[0], o.procs, o.cluster.meshWidth,
                     o.cluster.meshHeight, mesh_nodes);
        return 2;
    }

    // Unless a flag names the variant, run the best one for the NIC
    // (apps::bestProtocol/bestAu); DFS and render default to DU like
    // the paper's runs. An explicit --au or AU protocol on an AU-less
    // NIC still fatals downstream with a capability diagnosis.
    if (!o.protocolGiven)
        o.protocol = bestProtocol(o.cluster);
    if (!o.auGiven)
        o.useAu = o.app != "dfs" && o.app != "render" &&
                  bestAu(o.cluster);

    if (!o.causalFile.empty())
        causal::open(o.causalFile);

    AppResult r = timedRun([&] { return runApp(o); });

    causal::close();

    std::printf("app:            %s\n", r.name.c_str());
    std::printf("processors:     %d\n", r.nprocs);
    std::printf("elapsed:        %.3f ms simulated\n",
                toSeconds(r.elapsed) * 1e3);
    std::printf("messages:       %llu\n",
                (unsigned long long)r.messages);
    std::printf("notifications:  %llu\n",
                (unsigned long long)r.notifications);
    std::printf("checksum:       %llu\n",
                (unsigned long long)r.checksum);

    double total = double(r.combined.grandTotal());
    if (total > 0) {
        std::printf("time breakdown:");
        for (std::size_t c = 0;
             c < std::size_t(TimeCategory::kCount); ++c) {
            std::printf("  %s %.1f%%",
                        timeCategoryName(TimeCategory(c)),
                        100.0 * double(r.combined.total(
                                    TimeCategory(c))) /
                            total);
        }
        std::printf("\n");
    }

    if (!o.statsJson.empty()) {
        // CLI knobs ride along so the report identifies the exact run.
        r.param("cli_app", o.app);
        r.param("cli_procs", o.procs);
        // Always identify the adapter (report schema note: cli_nic is
        // unconditional since the three-NIC redesign; it used to be
        // emitted only for baseline runs).
        r.param("cli_nic", nic::nicKindName(o.cluster.nicKind));
        // The geometry identifies the run like the adapter does; the
        // analyzer shape-checks this param (see sim/report_schema.cc).
        r.param("mesh", strfmt("%dx%d", o.cluster.meshWidth,
                               o.cluster.meshHeight));
        if (!o.cluster.udmaSends)
            r.param("cli_no_udma", "1");
        const auto &f = o.cluster.network.fault;
        if (f.reliabilityEnabled()) {
            r.param("cli_fault_drop_rate", f.dropRate);
            r.param("cli_fault_corrupt_rate", f.corruptRate);
            r.param("cli_fault_jitter_rate", f.jitterRate);
            r.param("cli_fault_seed", f.seed);
            r.param("cli_fault_outages", f.outages.size());
        }
        RunReport rep = makeReport(r);
        // Host-side timing is non-deterministic, so it rides in the
        // report only on request — same gate the bench harness uses.
        if (o.reportHost)
            rep.host = hostPerf(r);
        rep.writeFile(o.statsJson);
        std::printf("report:         %s\n", o.statsJson.c_str());
    }

    return 0;
}

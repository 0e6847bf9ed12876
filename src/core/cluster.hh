/**
 * @file
 * Cluster composition: simulation + mesh + nodes + NICs + VMMC
 * endpoints, configured by a single ClusterConfig that carries every
 * what-if knob the paper's experiments flip.
 */

#ifndef SHRIMP_CORE_CLUSTER_HH
#define SHRIMP_CORE_CLUSTER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "mesh/network.hh"
#include "nic/baseline_nic.hh"
#include "nic/modern_nic.hh"
#include "nic/nic_kind.hh"
#include "nic/shrimp_nic.hh"
#include "node/node.hh"
#include "sim/simulation.hh"
#include "sim/watchdog.hh"

namespace shrimp::core
{

class Endpoint;

/**
 * Parse a "WxH" mesh geometry spec ("16x16"). Both dimensions must
 * be positive decimal integers whose product fits the topology limit
 * (mesh::kMaxMeshNodes). @return parse success.
 */
bool parseMesh(const char *spec, int &width, int &height);

/**
 * Parse all of @p text as a whole decimal number from @p lo to @p hi:
 * the run settings' switches, counts, seeds, seconds and microseconds.
 * @return parse success.
 */
bool parseWhole(const char *text, long lo, long hi, long &out);

/**
 * Parse all of @p text as a finite decimal number from @p lo to @p hi:
 * the run settings' rates and nanoseconds. @return parse success.
 */
bool parseReal(const char *text, double lo, double hi, double &out);

/**
 * The largest fault jitter a run setting may ask for, in nanoseconds
 * (one simulated second), so that every jitter fits a Tick.
 */
inline constexpr double kMaxJitterNs = 1e9;

/** Which network interface the cluster is built with (nic/nic_kind.hh). */
using NicKind = nic::NicKind;

/** Everything needed to build a cluster. */
struct ClusterConfig
{
    /**
     * Mesh geometry. The 4x4 Paragon default matches the paper;
     * SHRIMP_MESH ("WxH") sets it through envClusterConfig().
     */
    int meshWidth = 4;
    int meshHeight = 4;

    node::MachineParams machine;
    mesh::NetworkParams network;

    NicKind nicKind = NicKind::Shrimp;
    nic::ShrimpNicParams shrimpNic;
    nic::BaselineNicParams baselineNic;
    nic::ModernNicParams modernNic;

    /** Physical memory arena per node. */
    std::size_t nodeMemBytes = 96ull * 1024 * 1024;

    /**
     * Table 2 knob: when false, every VMMC message send makes a
     * system call into a kernel driver before the transfer.
     */
    bool udmaSends = true;

    /** RNG seed for workloads. */
    std::uint64_t seed = 42;

    /**
     * Gauge sampling cadence (simulated time); 0 is off. The samples
     * go to the causal log, so a run samples only while the log is
     * open (sim/recorder.hh). envClusterConfig() takes it from
     * SHRIMP_METRICS_INTERVAL_US, a whole number of microseconds.
     */
    Tick metricsInterval = 0;

    /**
     * Per-packet lifecycle latency attribution. Adds per-stage
     * histograms and a latency_breakdown report block; sampling is
     * read-only, so simulated timing and checksums are unchanged.
     * envClusterConfig() turns it on for SHRIMP_LIFECYCLE=1.
     */
    bool lifecycleTracing = false;

    /**
     * Must be 1: a simulation runs on one host thread (DESIGN.md
     * §11). The member remains so configs that assign 1 still
     * compile; the Cluster constructor rejects any other value.
     */
    int threads = 1;

    /**
     * Soak watchdog (sim/watchdog.hh): when > 0, run() starts a
     * wall-clock thread that dumps progress state to stderr if
     * simulated time stops advancing for this many real seconds (or
     * on SIGUSR1). Read-only observation; 0 disables.
     * envClusterConfig() takes it from SHRIMP_WATCHDOG_SECS.
     */
    int watchdogSecs = 0;
};

/**
 * The default config with the environment's run settings applied:
 * SHRIMP_MESH, SHRIMP_NIC, SHRIMP_FAULT_*, SHRIMP_LIFECYCLE,
 * SHRIMP_METRICS_INTERVAL_US and SHRIMP_WATCHDOG_SECS. This is the
 * only reader of those variables: binaries start from it and assign
 * their own settings afterwards, so an explicit setting always wins,
 * and a Cluster uses the config it is given. A malformed mesh, NIC or
 * outage spec is fatal, and so is a number that does not parse in
 * full or lies outside its range (a rate outside [0, 1], a negative
 * seed, jitter, cadence or watchdog period, a switch other than 0 or
 * 1).
 */
ClusterConfig envClusterConfig();

/**
 * A SHRIMP cluster instance.
 */
class Cluster
{
  public:
    explicit Cluster(const ClusterConfig &config = ClusterConfig());
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** The owning simulation. */
    Simulation &sim() { return _sim; }

    /** The backplane. */
    mesh::Network &network() { return *_network; }

    /** Number of nodes (mesh width x height). */
    int nodeCount() const { return int(nodes.size()); }

    /** Node @p i. */
    node::Node &node(int i) { return *nodes.at(i); }

    /** NIC of node @p i. */
    nic::NicBase &nic(int i) { return *nics.at(i); }

    /** VMMC endpoint of node @p i. */
    Endpoint &vmmc(int i) { return *endpoints.at(i); }

    /** Configuration the cluster was built with. */
    const ClusterConfig &config() const { return _config; }

    /** Convenience: spawn an application process on node @p i. */
    template <class F>
    Process *
    spawnOn(int i, const std::string &name, F &&body)
    {
        return node(i).spawnProcess(name, std::forward<F>(body));
    }

    /** Run the simulation until the event queue drains. */
    void run();

    /** Aggregate a per-node counter over all nodes ("<node>.X"). */
    std::uint64_t sumNodeCounter(const std::string &suffix);

  private:
    friend class Endpoint;

    /** Register the gauges on the run's recorder (sampling is on). */
    void registerGauges();

    /** Racy progress glance for the watchdog thread (reads only). */
    Watchdog::Snapshot watchdogSnapshot() const;

    /** Per-node stall detail for a watchdog dump (reads only). */
    std::string watchdogDetail() const;

    ClusterConfig _config;
    Simulation _sim;
    std::unique_ptr<mesh::Network> _network;
    std::vector<std::unique_ptr<node::Node>> nodes;
    std::vector<std::unique_ptr<nic::NicBase>> nics;
    std::vector<std::unique_ptr<Endpoint>> endpoints;
};

} // namespace shrimp::core

#endif // SHRIMP_CORE_CLUSTER_HH

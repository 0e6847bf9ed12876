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
#include "sim/lifecycle.hh"
#include "sim/metrics.hh"
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
 * SHRIMP_MESH resolved against programmatic defaults: when the
 * variable is set and non-empty it overrides (@p width, @p height).
 * A malformed spec is fatal — a bad mesh must fail loudly, not run
 * 4x4 silently.
 */
void meshFromEnv(int &width, int &height);

/** Which network interface the cluster is built with (nic/nic_kind.hh). */
using NicKind = nic::NicKind;

/** Everything needed to build a cluster. */
struct ClusterConfig
{
    /**
     * Mesh geometry. The 4x4 Paragon default matches the paper; the
     * SHRIMP_MESH environment variable ("WxH") layers onto the
     * default only, like SHRIMP_WATCHDOG_SECS, so configs that name a
     * geometry explicitly keep it.
     */
    int meshWidth = 4;
    int meshHeight = 4;

    node::MachineParams machine;
    mesh::NetworkParams network;

    NicKind nicKind = NicKind::Shrimp;
    nic::ShrimpNicParams shrimpNic;
    nic::BaselineNicParams baselineNic;
    nic::ModernNicParams modernNic;

    /** Reliability-protocol tunables (used only in fault mode). */
    nic::ReliabilityParams reliability;

    /** Physical memory arena per node. */
    std::size_t nodeMemBytes = 96ull * 1024 * 1024;

    /**
     * Table 2 knob: when false, every VMMC message send makes a
     * system call into a kernel driver before the transfer.
     */
    bool udmaSends = true;

    /** Cost of one receive-poll check (flag load + compare). */
    Tick pollCheckCost = nanoseconds(300);

    /** RNG seed for workloads. */
    std::uint64_t seed = 42;

    /**
     * Flight-recorder sampling cadence (simulated time); 0 disables
     * the metrics sampler. Also settable via SHRIMP_METRICS_INTERVAL_US
     * (setting SHRIMP_METRICS alone defaults the cadence to 10 us).
     */
    Tick metricsInterval = 0;

    /**
     * Per-packet lifecycle latency attribution. Adds per-stage
     * histograms and a latency_breakdown report block; sampling is
     * read-only, so simulated timing and checksums are unchanged.
     * Also settable via SHRIMP_LIFECYCLE=1.
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
     * on SIGUSR1). Read-only observation; 0 disables. Also settable
     * via SHRIMP_WATCHDOG_SECS (layers onto the default only).
     */
    int watchdogSecs = 0;
};

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

    /**
     * In-run peer-health query (ROADMAP): the state of node @p src's
     * reliability channel toward node @p dst. All-zero outside fault
     * mode or before any traffic. Sockets/NX use this to detect a
     * stalled or dead peer instead of scraping "rel.dst<N>.*"
     * scalars.
     */
    nic::NicBase::PeerHealth peerHealth(int src, int dst) const;

    /** Time-series sampler (running only when metricsInterval > 0). */
    MetricsSampler &metrics() { return _sampler; }

    /** Packet lifecycle tracer (may be disabled). */
    LifecycleTracer &lifecycle() { return _lifecycle; }

  private:
    friend class Endpoint;

    /** Bind the sampler's gauges (called when sampling is on). */
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
    LifecycleTracer _lifecycle;
    MetricsSampler _sampler;
};

} // namespace shrimp::core

#endif // SHRIMP_CORE_CLUSTER_HH

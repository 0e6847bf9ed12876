#include "core/cluster.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "core/vmmc.hh"
#include "sim/causal.hh"
#include "sim/logging.hh"
#include "sim/trace_json.hh"

namespace shrimp::core
{

bool
parseMesh(const char *spec, int &width, int &height)
{
    if (!spec || !*spec)
        return false;
    char *end = nullptr;
    long w = std::strtol(spec, &end, 10);
    if (end == spec || *end != 'x')
        return false;
    const char *hs = end + 1;
    long h = std::strtol(hs, &end, 10);
    if (end == hs || *end != '\0')
        return false;
    if (w <= 0 || h <= 0 || w * h > long(mesh::kMaxMeshNodes))
        return false;
    width = int(w);
    height = int(h);
    return true;
}

void
meshFromEnv(int &width, int &height)
{
    const char *e = std::getenv("SHRIMP_MESH");
    if (!e || !*e)
        return;
    if (!parseMesh(e, width, height))
        fatal("SHRIMP_MESH='%s' is not a valid WxH mesh spec "
              "(product limit %d nodes)",
              e, mesh::kMaxMeshNodes);
}

Cluster::Cluster(const ClusterConfig &config) : _config(config)
{
    if (_config.threads != 1)
        fatal("ClusterConfig::threads = %d: a simulation runs on one "
              "host thread, so 1 is the only valid value",
              _config.threads);
    trace_json::openFromEnv();
    causal::openFromEnv();
    // Environment fault knobs (SHRIMP_FAULT_*) layer on top of the
    // programmatic config, so any tool or benchmark can be run against
    // a lossy backplane without changing code.
    _config.network.fault = mesh::faultParamsFromEnv(_config.network.fault);
    // Flight-recorder knobs follow the same pattern: SHRIMP_METRICS
    // names the sink (consumed by the benchmarks/tools), and setting
    // it implies a default 10 us sampling cadence here.
    if (const char *e = std::getenv("SHRIMP_LIFECYCLE");
        e && *e && *e != '0')
        _config.lifecycleTracing = true;
    if (const char *e = std::getenv("SHRIMP_METRICS_INTERVAL_US");
        e && *e)
        _config.metricsInterval = microseconds(std::atof(e));
    if (_config.metricsInterval == 0 && std::getenv("SHRIMP_METRICS"))
        _config.metricsInterval = microseconds(10);
    // The soak watchdog layers the same way: the environment fills in
    // the default only, an explicit config value wins.
    if (_config.watchdogSecs <= 0) {
        if (const char *e = std::getenv("SHRIMP_WATCHDOG_SECS");
            e && *e)
            _config.watchdogSecs = std::atoi(e);
    }
    // SHRIMP_MESH follows the same layering: it overrides the 4x4
    // default, never an explicitly-configured geometry.
    if (_config.meshWidth == 4 && _config.meshHeight == 4)
        meshFromEnv(_config.meshWidth, _config.meshHeight);
    _network = std::make_unique<mesh::Network>(
        _sim, _config.meshWidth, _config.meshHeight, _config.network);

    if (_config.lifecycleTracing)
        _lifecycle.enable(_sim.stats());
    // Causal tracing needs per-packet stage stamps but no histograms,
    // so its runs' reports carry no latency_breakdown block.
    if (causal::enabled())
        _lifecycle.enableStamps();

    // Every NIC kind takes the same construction-time configuration:
    // reliability tunables plus the lifecycle tracer, wired before
    // any traffic can flow.
    nic::Config nic_cfg;
    nic_cfg.reliability = _config.reliability;
    nic_cfg.lifecycle = &_lifecycle;

    int n = _config.meshWidth * _config.meshHeight;
    // Past the per-destination-stats ceiling the "rel.dst<D>.*"
    // scalar mirror would put O(nodes^2) entries in every fault-mode
    // RunReport; big meshes keep the aggregate counters and per-node
    // RTT histograms only.
    if (n > nic::kPerDestStatsMaxNodes)
        nic_cfg.reliability.perDestStats = false;
    nodes.reserve(n);
    nics.reserve(n);
    endpoints.reserve(n);
    for (int i = 0; i < n; ++i) {
        nodes.push_back(std::make_unique<node::Node>(
            _sim, NodeId(i), config.machine, config.nodeMemBytes));
        switch (config.nicKind) {
          case NicKind::Shrimp:
            nics.push_back(std::make_unique<nic::ShrimpNic>(
                *nodes.back(), *_network, config.shrimpNic, nic_cfg));
            break;
          case NicKind::Baseline:
            nics.push_back(std::make_unique<nic::BaselineNic>(
                *nodes.back(), *_network, config.baselineNic, nic_cfg));
            break;
          case NicKind::Modern:
            nics.push_back(std::make_unique<nic::ModernNic>(
                *nodes.back(), *_network, config.modernNic, nic_cfg));
            break;
        }
        endpoints.push_back(std::make_unique<Endpoint>(
            *this, *nodes.back(), *nics.back()));
    }

    if (_config.metricsInterval > 0) {
        registerGauges();
        _sampler.start(_sim, _config.metricsInterval);
    }

    _sim.rng() = Random(config.seed);
}

void
Cluster::registerGauges()
{
    auto &stats = _sim.stats();
    double interval_ps = double(_config.metricsInterval);

    // Utilization gauges report the fraction of the *last sampling
    // interval* a resource was booked, as the delta of the underlying
    // busy-time counter. The mutable lambda state lives in the gauge.
    auto util = [&stats, interval_ps](std::string counter) {
        return [&stats, interval_ps, counter,
                prev = 0.0]() mutable {
            double v = double(stats.counterValue(counter));
            double d = v - prev;
            prev = v;
            return d / interval_ps;
        };
    };

    for (auto &np : nodes) {
        const std::string &nm = np->name();
        _sampler.addGauge(nm + ".bus_util", util(nm + ".bus_busy_ps"));
        if (_config.nicKind == NicKind::Shrimp) {
            auto *snic = static_cast<nic::ShrimpNic *>(
                nics[np->id()].get());
            _sampler.addGauge(nm + ".nic.fifo_fill",
                              [snic] { return double(snic->fifoFill()); });
            _sampler.addGauge(nm + ".nic.eisa_util",
                              util(nm + ".nic.eisa_busy_ps"));
        }
        if (_config.nicKind == NicKind::Modern) {
            auto *mnic = static_cast<nic::ModernNic *>(
                nics[np->id()].get());
            _sampler.addGauge(nm + ".mnic.cq_depth",
                              [mnic] { return double(mnic->cqDepth()); });
        }
        if (_network->reliabilityEnabled()) {
            auto *nic = nics[np->id()].get();
            _sampler.addGauge(nm + ".rel.retx_backlog", [nic] {
                return double(nic->retransmitBacklog());
            });
        }
    }

    _sampler.addGauge("mesh.link_backlog_us", [this] {
        return toMicroseconds(_network->maxLinkBacklog(_sim.now()));
    });
    _sampler.addGauge("mesh.links_busy", [this] {
        return double(_network->busyLinkCount(_sim.now()));
    });
    _sampler.addGauge("sim.event_queue",
                      [this] { return double(_sim.pendingEvents()); });
}

Cluster::~Cluster() = default;

/*
 * The watchdog readers run on a separate host thread and glance at
 * live counters without synchronization — stale values are fine, a
 * TSan report is not, hence the exemption.
 */
SHRIMP_NO_TSAN Watchdog::Snapshot
Cluster::watchdogSnapshot() const
{
    Watchdog::Snapshot s;
    s.nowPs = std::uint64_t(_sim.now());
    s.executed = _sim.executedEvents();
    s.pending = _sim.pendingEvents();
    return s;
}

SHRIMP_NO_TSAN std::string
Cluster::watchdogDetail() const
{
    std::string out;
    int n = nodeCount();
    // Big meshes would flood stderr; cap the per-node lines.
    int shown = std::min(n, 64);
    for (int i = 0; i < shown; ++i) {
        out += strfmt(
            "watchdog:   node%d deliveries=%llu retx_backlog=%zu\n", i,
            (unsigned long long)endpoints[i]->deliveries(),
            nics[i]->retransmitBacklog());
    }
    if (shown < n)
        out += strfmt("watchdog:   ... and %d more nodes\n", n - shown);
    return out;
}

void
Cluster::run()
{
    Watchdog wd;
    if (_config.watchdogSecs > 0) {
        wd.start(
            _config.watchdogSecs,
            [this] { return watchdogSnapshot(); },
            [this] { return watchdogDetail(); });
    }
    _sim.run();
}

nic::NicBase::PeerHealth
Cluster::peerHealth(int src, int dst) const
{
    return nics.at(src)->peerHealth(NodeId(dst));
}

std::uint64_t
Cluster::sumNodeCounter(const std::string &suffix)
{
    std::uint64_t total = 0;
    for (auto &np : nodes) {
        total += _sim.stats().counterValue(np->name() + "." + suffix);
    }
    return total;
}

} // namespace shrimp::core

#include "core/cluster.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <string>

#include "core/vmmc.hh"
#include "sim/logging.hh"

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

bool
parseWhole(const char *text, long lo, long hi, long &out)
{
    if (!text || !*text)
        return false;
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(text, &end, 10);
    if (*end || errno == ERANGE || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

bool
parseReal(const char *text, double lo, double hi, double &out)
{
    if (!text || !*text)
        return false;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    // NaN fails both comparisons, and so is refused with the rest.
    if (*end || !(v >= lo && v <= hi))
        return false;
    out = v;
    return true;
}

namespace
{

/** The value of environment variable @p name; nullptr if unset or empty. */
const char *
envValue(const char *name)
{
    const char *v = std::getenv(name);
    return v && *v ? v : nullptr;
}

/** Variable @p name as a whole number from @p lo to @p hi, if set. */
bool
envWhole(const char *name, long lo, long hi, long &out)
{
    const char *v = envValue(name);
    if (v && !parseWhole(v, lo, hi, out))
        fatal("%s='%s': want a whole number from %ld to %ld", name, v,
              lo, hi);
    return v;
}

/** Variable @p name as a number from @p lo to @p hi, if set. */
bool
envReal(const char *name, double lo, double hi, double &out)
{
    const char *v = envValue(name);
    if (v && !parseReal(v, lo, hi, out))
        fatal("%s='%s': want a number from %g to %g", name, v, lo, hi);
    return v;
}

/** Apply the SHRIMP_FAULT_* variables to @p f. */
void
faultsFromEnv(mesh::FaultParams &f)
{
    envReal("SHRIMP_FAULT_DROP_RATE", 0, 1, f.dropRate);
    envReal("SHRIMP_FAULT_CORRUPT_RATE", 0, 1, f.corruptRate);
    envReal("SHRIMP_FAULT_JITTER_RATE", 0, 1, f.jitterRate);
    if (double ns; envReal("SHRIMP_FAULT_MAX_JITTER_NS", 0, kMaxJitterNs,
                           ns))
        f.maxJitter = nanoseconds(ns);
    if (long seed; envWhole("SHRIMP_FAULT_SEED", 0, LONG_MAX, seed))
        f.seed = std::uint64_t(seed);
    if (long on; envWhole("SHRIMP_FAULT_RELIABILITY", 0, 1, on))
        f.forceReliability = on;
    const char *v = envValue("SHRIMP_FAULT_LINK_DOWN");
    if (!v)
        return;
    // Comma-separated "link:t0us:t1us" specs.
    std::string specs(v);
    std::size_t pos = 0;
    while (true) {
        std::size_t comma = specs.find(',', pos);
        std::string one = specs.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        mesh::LinkOutage o;
        if (!mesh::parseLinkOutage(one, o))
            fatal("SHRIMP_FAULT_LINK_DOWN: bad spec '%s' "
                  "(want link:t0us:t1us)",
                  one.c_str());
        f.outages.push_back(o);
        if (comma == std::string::npos)
            return;
        pos = comma + 1;
    }
}

} // anonymous namespace

ClusterConfig
envClusterConfig()
{
    ClusterConfig cc;
    if (const char *v = envValue("SHRIMP_MESH");
        v && !parseMesh(v, cc.meshWidth, cc.meshHeight))
        fatal("SHRIMP_MESH='%s' is not a valid WxH mesh spec "
              "(product limit %d nodes)",
              v, mesh::kMaxMeshNodes);
    if (const char *v = envValue("SHRIMP_NIC");
        v && !nic::parseNicKind(v, cc.nicKind))
        fatal("SHRIMP_NIC=%s: unknown NIC kind (want "
              "shrimp|baseline|modern)", v);
    faultsFromEnv(cc.network.fault);
    if (long on; envWhole("SHRIMP_LIFECYCLE", 0, 1, on))
        cc.lifecycleTracing = on;
    if (long us; envWhole("SHRIMP_METRICS_INTERVAL_US", 0, INT_MAX, us))
        cc.metricsInterval = microseconds(double(us));
    if (long secs; envWhole("SHRIMP_WATCHDOG_SECS", 0, INT_MAX, secs))
        cc.watchdogSecs = int(secs);
    return cc;
}

Cluster::Cluster(const ClusterConfig &config) : _config(config)
{
    if (_config.threads != 1)
        fatal("ClusterConfig::threads = %d: a simulation runs on one "
              "host thread, so 1 is the only valid value",
              _config.threads);
    _network = std::make_unique<mesh::Network>(
        _sim, _config.meshWidth, _config.meshHeight, _config.network);

    if (_config.lifecycleTracing)
        _sim.recorder().enableLifecycle();

    int n = _config.meshWidth * _config.meshHeight;
    nodes.reserve(n);
    nics.reserve(n);
    endpoints.reserve(n);
    for (int i = 0; i < n; ++i) {
        nodes.push_back(std::make_unique<node::Node>(
            _sim, NodeId(i), config.machine, config.nodeMemBytes));
        switch (config.nicKind) {
          case NicKind::Shrimp:
            nics.push_back(std::make_unique<nic::ShrimpNic>(
                *nodes.back(), *_network, config.shrimpNic,
                config.reliability));
            break;
          case NicKind::Baseline:
            nics.push_back(std::make_unique<nic::BaselineNic>(
                *nodes.back(), *_network, config.baselineNic,
                config.reliability));
            break;
          case NicKind::Modern:
            nics.push_back(std::make_unique<nic::ModernNic>(
                *nodes.back(), *_network, config.modernNic,
                config.reliability));
            break;
        }
        endpoints.push_back(std::make_unique<Endpoint>(
            *this, *nodes.back(), *nics.back()));
    }

    // The samples go to the causal log; without one, nothing samples.
    if (_config.metricsInterval > 0 && _sim.recorder().causalOn()) {
        registerGauges();
        _sim.recorder().sampleEvery(_config.metricsInterval);
    }

    _sim.rng() = Random(config.seed);
}

void
Cluster::registerGauges()
{
    Recorder &rec = _sim.recorder();
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
        int id = int(np->id());
        rec.addGauge(id, "bus_util", util(nm + ".bus_busy_ps"));
        if (_config.nicKind == NicKind::Shrimp) {
            auto *snic = static_cast<nic::ShrimpNic *>(nics[id].get());
            rec.addGauge(id, "nic.fifo_fill",
                         [snic] { return double(snic->fifoFill()); });
            rec.addGauge(id, "nic.eisa_util",
                         util(nm + ".nic.eisa_busy_ps"));
        }
        if (_config.nicKind == NicKind::Modern) {
            auto *mnic = static_cast<nic::ModernNic *>(nics[id].get());
            rec.addGauge(id, "mnic.cq_depth",
                         [mnic] { return double(mnic->cqDepth()); });
        }
        if (_network->reliabilityEnabled()) {
            auto *nic = nics[id].get();
            rec.addGauge(id, "rel.retx_backlog", [nic] {
                return double(nic->retransmitBacklog());
            });
        }
    }

    rec.addGauge(-1, "mesh.link_backlog_us", [this] {
        return toMicroseconds(_network->maxLinkBacklog(_sim.now()));
    });
    rec.addGauge(-1, "mesh.links_busy", [this] {
        return double(_network->busyLinkCount(_sim.now()));
    });
    rec.addGauge(-1, "sim.event_queue",
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

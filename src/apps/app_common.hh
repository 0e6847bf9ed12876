/**
 * @file
 * Shared infrastructure for the benchmark applications: result
 * records, measurement helpers, and per-app compute-cost calibration
 * constants (60 MHz Pentium era; see EXPERIMENTS.md).
 */

#ifndef SHRIMP_APPS_APP_COMMON_HH
#define SHRIMP_APPS_APP_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cluster.hh"
#include "sim/lifecycle.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/run_report.hh"
#include "sim/stats.hh"
#include "sim/time_account.hh"

namespace shrimp::apps
{

/** What one application run produced. */
struct AppResult
{
    std::string name;
    int nprocs = 1;

    /** Simulated wall time of the measured (parallel) region. */
    Tick elapsed = 0;

    /** Sum of per-rank time accounts over the measured region. */
    TimeAccount combined;

    /** VMMC messages sent during the measured region. */
    std::uint64_t messages = 0;

    /** User-level notifications delivered during the region. */
    std::uint64_t notifications = 0;

    /** App-specific checksum for correctness verification. */
    std::uint64_t checksum = 0;

    /** Per-rank time accounts over the measured region, rank order. */
    std::vector<TimeAccount> perProcess;

    /** Workload knobs (sizes, protocol choice, seed) for the report. */
    std::map<std::string, std::string> params;

    /**
     * Snapshot of the simulation's statistics registry, taken after
     * the run so the result outlives the Cluster (see captureStats).
     */
    StatsRegistry stats;

    /** Events the simulation executed (host-perf reporting). */
    std::uint64_t hostEvents = 0;

    /**
     * Fiber context transfers the run's processes performed
     * (Simulation::fiberSwitchTotal) — deterministic, but reported
     * only in the host block because it describes the simulator, not
     * the simulated machine.
     */
    std::uint64_t hostFiberSwitches = 0;

    /** Time-series samples (empty unless the sampler ran). */
    MetricsSeries metrics;

    /** Sampling cadence the series was recorded at (0 = off). */
    Tick metricsInterval = 0;

    /** Host wall time of the run; filled by the bench harness. */
    double hostWallSeconds = 0;

    /** Record a workload knob; numbers are stringified. */
    template <class T>
    void
    param(const std::string &key, const T &value)
    {
        if constexpr (std::is_convertible_v<const T &, std::string>)
            params[key] = value;
        else
            params[key] = std::to_string(value);
    }

    /** Speedup helper given a 1-proc elapsed time. */
    double
    speedupOver(Tick seq) const
    {
        return elapsed ? double(seq) / double(elapsed) : 0.0;
    }
};

/**
 * Copy the cluster's statistics registry into @p result. Call after
 * the measured region, while the Cluster is still alive; the result
 * then carries everything a RunReport needs.
 */
inline void
captureStats(AppResult &result, core::Cluster &cluster)
{
    result.stats = cluster.sim().stats();
    result.hostEvents = cluster.sim().executedEvents();
    result.hostFiberSwitches = cluster.sim().fiberSwitchTotal();
    result.metrics = cluster.metrics().series();
    result.metricsInterval = cluster.config().metricsInterval;
}

/** Assemble the machine-readable report for a finished run. */
inline RunReport
makeReport(const AppResult &r)
{
    RunReport rep;
    rep.app = r.name;
    rep.nprocs = r.nprocs;
    rep.elapsed = r.elapsed;
    rep.messages = r.messages;
    rep.notifications = r.notifications;
    rep.checksum = r.checksum;
    rep.params = r.params;
    rep.combined = r.combined;
    rep.perProcess = r.perProcess;
    rep.stats = r.stats;
    if (r.stats.counterValue("mesh.faults_active")) {
        rep.faults.enabled = true;
        rep.faults.drops = r.stats.counterValue("mesh.drops");
        rep.faults.outageDrops = r.stats.counterValue("mesh.outage_drops");
        rep.faults.corruptions = r.stats.counterValue("mesh.corruptions");
        rep.faults.retransmits = r.stats.counterValue("mesh.retransmits");
        rep.faults.rtoFires = r.stats.counterValue("mesh.rto_fires");
        rep.faults.dupRx = r.stats.counterValue("mesh.dup_rx");
        rep.faults.acks = r.stats.counterValue("mesh.acks");
        rep.faults.nacks = r.stats.counterValue("mesh.nacks");
    }
    const Histogram *total = r.stats.findHistogram(
        lifeStageHistName(LifeStage::Total));
    if (total && total->count() > 0) {
        rep.latency.enabled = true;
        for (int s = 0; s < int(LifeStage::kCount); ++s) {
            const Histogram *h = r.stats.findHistogram(
                lifeStageHistName(LifeStage(s)));
            if (!h)
                continue;
            RunReport::StageLatency sl;
            sl.stage = lifeStageName(LifeStage(s));
            sl.count = h->count();
            sl.meanUs = h->mean();
            sl.p50Us = h->percentile(50);
            sl.p95Us = h->percentile(95);
            sl.p99Us = h->percentile(99);
            rep.latency.stages.push_back(std::move(sl));
        }
    }
    return rep;
}

/**
 * Snapshot of cluster-wide message counters, for before/after deltas
 * around the measured region.
 */
struct MessageSnapshot
{
    std::uint64_t messages = 0;
    std::uint64_t notifications = 0;

    static MessageSnapshot
    take(core::Cluster &c)
    {
        MessageSnapshot s;
        s.messages = c.sumNodeCounter("vmmc.messages");
        s.notifications = c.sumNodeCounter("vmmc.notifications");
        return s;
    }
};

/** Fill @p result's message fields from a before/after pair. */
inline void
recordMessages(AppResult &result, const MessageSnapshot &before,
               const MessageSnapshot &after)
{
    result.messages = after.messages - before.messages;
    result.notifications = after.notifications - before.notifications;
}

/**
 * Simple max-reduction of per-rank region end times into an elapsed
 * value: ranks record start/end around the measured phase.
 */
struct RegionClock
{
    std::vector<Tick> start;
    std::vector<Tick> end;

    explicit RegionClock(int nprocs) : start(nprocs, 0), end(nprocs, 0)
    {
    }

    Tick
    elapsed() const
    {
        Tick s = ~Tick(0), e = 0;
        for (std::size_t i = 0; i < start.size(); ++i) {
            s = std::min(s, start[i]);
            e = std::max(e, end[i]);
        }
        return e > s ? e - s : 0;
    }
};

/**
 * After cluster.run() returns, any unfinished process is deadlocked
 * (the event queue drained while it was blocked). Warn loudly —
 * results from such a run are not meaningful.
 */
inline std::vector<std::string>
deadlockedProcesses(core::Cluster &cluster)
{
    auto stuck = cluster.sim().unfinishedProcesses();
    // Service processes that intentionally never exit are named with
    // recognisable suffixes; ignore them.
    std::vector<std::string> real;
    for (auto &n : stuck) {
        if (n.find(".notifier") == std::string::npos &&
            n.find(".du_engine") == std::string::npos &&
            n.find(".fw_engine") == std::string::npos &&
            n.find(".sq_engine") == std::string::npos)
            real.push_back(n);
    }
    return real;
}

inline void
warnIfDeadlocked(core::Cluster &cluster, const char *app)
{
    auto real = deadlockedProcesses(cluster);
    if (real.empty())
        return;
    warn("%s: %zu processes deadlocked; first: %s", app, real.size(),
         real.front().c_str());
}

} // namespace shrimp::apps

#endif // SHRIMP_APPS_APP_COMMON_HH

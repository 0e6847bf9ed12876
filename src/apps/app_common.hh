/**
 * @file
 * Shared infrastructure for the benchmark applications: result
 * records, measurement helpers, and per-app compute-cost calibration
 * constants (60 MHz Pentium era; see EXPERIMENTS.md).
 */

#ifndef SHRIMP_APPS_APP_COMMON_HH
#define SHRIMP_APPS_APP_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include <sys/resource.h>

#include "core/cluster.hh"
#include "nic/nic_kind.hh"
#include "sim/fiber.hh"
#include "sim/recorder.hh"
#include "sim/logging.hh"
#include "sim/run_report.hh"
#include "sim/stats.hh"
#include "svm/svm.hh"

namespace shrimp::apps
{

/** What one application run produced. */
struct AppResult
{
    std::string name;
    int nprocs = 1;

    /** Simulated wall time of the measured (parallel) region. */
    Tick elapsed = 0;

    /** Sum of the perProcess time accounts. */
    TimeAccount combined;

    /** VMMC messages sent during the measured region. */
    std::uint64_t messages = 0;

    /** User-level notifications delivered during the region. */
    std::uint64_t notifications = 0;

    /** App-specific checksum for correctness verification. */
    std::uint64_t checksum = 0;

    /**
     * Time accounts of the processes the app measures, in order: one
     * per rank, DFS client or Render controller process.
     */
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

    /** Host wall time of the run; filled by timedRun(). */
    double hostWallSeconds = 0;

    /** CPU time of the thread that ran the simulation; timedRun(). */
    double hostUserSeconds = 0;
    double hostSysSeconds = 0;

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
 * Capability-adaptive variant choice: each app's best-performing
 * variant *for the configured NIC*. AU-dependent choices (AURC, AU
 * bulk transfer) degrade to their deliberate-update equivalents,
 * HLRC and DU, on adapters without automatic update.
 */
inline svm::Protocol
bestProtocol(const core::ClusterConfig &cc)
{
    return nic::nicKindCaps(cc.nicKind).autoUpdate
               ? svm::Protocol::AURC
               : svm::Protocol::HLRC;
}

/** AU when the adapter supports it, else deliberate update. */
inline bool
bestAu(const core::ClusterConfig &cc)
{
    return nic::nicKindCaps(cc.nicKind).autoUpdate;
}

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

// ----------------------------------------------------------------------
// Host performance of a run
// ----------------------------------------------------------------------

/**
 * True when SHRIMP_REPORT_HOST=1 asks for host-perf in reports. Unset,
 * empty or 0 is off; any other value is fatal.
 */
inline bool
reportHostPerf()
{
    const char *v = std::getenv("SHRIMP_REPORT_HOST");
    long on = 0;
    if (v && *v && !core::parseWhole(v, 0, 1, on))
        fatal("SHRIMP_REPORT_HOST='%s': want a whole number from 0 to 1",
              v);
    return on;
}

namespace detail
{

/** User and system CPU seconds of the calling thread so far. */
inline void
threadCpuSeconds(double &user, double &sys)
{
    struct rusage ru;
    if (getrusage(RUSAGE_THREAD, &ru) != 0) {
        user = sys = 0;
        return;
    }
    auto secs = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    user = secs(ru.ru_utime);
    sys = secs(ru.ru_stime);
}

} // namespace detail

/**
 * Run @p fn, which returns an AppResult, and record into that result
 * the host wall time and the CPU time of this thread. A simulation
 * runs on the thread that calls it, so each job of a parallel sweep
 * records its own CPU time.
 */
template <class F>
AppResult
timedRun(F &&fn)
{
    double user0, sys0, user1, sys1;
    detail::threadCpuSeconds(user0, sys0);
    auto t0 = std::chrono::steady_clock::now();
    AppResult r = fn();
    r.hostWallSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    detail::threadCpuSeconds(user1, sys1);
    r.hostUserSeconds = user1 - user0;
    r.hostSysSeconds = sys1 - sys0;
    return r;
}

/**
 * The report's host block for run @p r: its wall and CPU times (from
 * timedRun), events and fiber switches, plus two process-wide
 * figures, the peak RSS so far and the deepest fiber-stack use.
 */
inline RunReport::HostPerf
hostPerf(const AppResult &r)
{
    RunReport::HostPerf h;
    h.enabled = true;
    h.wallSeconds = r.hostWallSeconds;
    h.events = r.hostEvents;
    h.eventsPerSec =
        r.hostWallSeconds > 0 ? double(r.hostEvents) / r.hostWallSeconds
                              : 0;
    h.userSeconds = r.hostUserSeconds;
    h.sysSeconds = r.hostSysSeconds;
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0)
        h.maxRssKb = std::uint64_t(ru.ru_maxrss); // kilobytes on Linux
    h.fiberSwitches = r.hostFiberSwitches;
    h.fiberStackHwmBytes = FiberStack::globalHighWaterBytes();
    return h;
}

/**
 * The measured region of one run. Each member (a rank, a DFS client,
 * Render's image) calls enter() where its measured work starts and
 * leave() where it ends; elapsed runs from the first entry to the last
 * exit. The message and notification counts run from member 0's entry
 * to the last exit, so setup before the region and teardown after it
 * are not counted. After cluster.run(), finish() fills the result.
 */
class Region
{
  public:
    Region(core::Cluster &cluster, int members)
        : cluster(cluster), entered(members, 0), left(members, 0)
    {
    }

    /** Member @p m starts its measured work now. */
    void
    enter(int m)
    {
        entered[m] = cluster.sim().now();
        if (m == 0)
            atOpen = counts();
    }

    /**
     * Member @p m ends its measured work now.
     * @return now, the tick at which the member's account stops.
     */
    Tick
    leave(int m)
    {
        left[m] = cluster.sim().now();
        if (++leaves == int(left.size()))
            atClose = counts();
        return left[m];
    }

    /**
     * Fill @p result after cluster.run(): warn of deadlocked processes,
     * then set elapsed, the counts and the time accounts of @p accounts
     * (one perProcess entry each, in order, and their sum as combined),
     * and capture the statistics. The counts of a run in which some
     * member never left run to its end.
     * @return true when no process deadlocked.
     */
    bool
    finish(AppResult &result, const std::vector<Process *> &accounts = {})
    {
        auto stuck = cluster.sim().deadlockedProcesses();
        if (!stuck.empty())
            warn("%s: %zu processes deadlocked; first: %s",
                 result.name.c_str(), stuck.size(), stuck.front().c_str());
        Tick first = *std::min_element(entered.begin(), entered.end());
        Tick last = *std::max_element(left.begin(), left.end());
        result.elapsed = last > first ? last - first : 0;
        if (leaves < int(left.size()))
            atClose = counts();
        result.messages = atClose.messages - atOpen.messages;
        result.notifications =
            atClose.notifications - atOpen.notifications;
        for (const Process *p : accounts) {
            result.combined.merge(p->account);
            result.perProcess.push_back(p->account);
        }
        captureStats(result, cluster);
        return stuck.empty();
    }

  private:
    struct Counts
    {
        std::uint64_t messages = 0;
        std::uint64_t notifications = 0;
    };

    Counts
    counts()
    {
        return {cluster.sumNodeCounter("vmmc.messages"),
                cluster.sumNodeCounter("vmmc.notifications")};
    }

    core::Cluster &cluster;
    std::vector<Tick> entered;
    std::vector<Tick> left;
    int leaves = 0;
    Counts atOpen;
    Counts atClose;
};

/**
 * Call @p fn on each of the @p n elements of the page-aligned shared
 * array @p a, in order, reading every page from its home replica.
 * This is how an SVM app reads its answer after cluster.run(): each
 * rank's last barrier made its writes visible at the homes under all
 * three protocols, and the read costs no simulated time.
 */
template <class T, class F>
void
forEachAtHome(svm::SvmRuntime &rt, const T *a, std::size_t n, F &&fn)
{
    static_assert(node::kPageBytes % sizeof(T) == 0,
                  "an element must not straddle two pages");
    if (reinterpret_cast<std::uintptr_t>(a) % node::kPageBytes != 0)
        panic("forEachAtHome: the array does not start a page");
    constexpr std::size_t kPerPage = node::kPageBytes / sizeof(T);
    for (std::size_t i = 0; i < n; i += kPerPage) {
        const T *home = reinterpret_cast<const T *>(
            rt.replicaAddr(rt.homeOf(a + i), a + i));
        for (std::size_t j = 0; j < std::min(kPerPage, n - i); ++j)
            fn(home[j]);
    }
}

} // namespace shrimp::apps

#endif // SHRIMP_APPS_APP_COMMON_HH

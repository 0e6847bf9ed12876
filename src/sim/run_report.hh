/**
 * @file
 * RunReport — the machine-readable result of one simulated run.
 *
 * Bundles what every experiment needs to diff or plot: workload
 * identity and parameters, elapsed simulated time, message and
 * notification totals, the Figure-4 time-category breakdown (combined
 * and per process), and a full snapshot of the statistics registry.
 * Serializes to a stable JSON document (schema_version field): two
 * identical seeded runs produce byte-identical reports.
 *
 * Consumers: `shrimp_run --stats-json FILE` writes one pretty report;
 * the bench harness appends compact one-line reports to the file
 * named by SHRIMP_REPORT_JSONL.
 */

#ifndef SHRIMP_SIM_RUN_REPORT_HH
#define SHRIMP_SIM_RUN_REPORT_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/time_account.hh"
#include "sim/types.hh"

namespace shrimp
{

struct RunReport
{
    /**
     * Bump when a field changes meaning or layout.
     *
     * 3: histograms gained "p99" and "scale" (log-bucket mode), the
     *    stats block gained the "scalars" sub-object, and runs with
     *    packet lifecycle tracing enabled carry a
     *    "latency_breakdown" block (see sim/recorder.hh).
     *
     *    Note (no layout change): since the three-NIC redesign,
     *    shrimp_run reports always carry a "cli_nic" param
     *    ("shrimp"|"baseline"|"modern"); it used to appear only on
     *    baseline runs.
     */
    static constexpr int kSchemaVersion = 3;

    std::string app;
    int nprocs = 0;

    /** Simulated wall time of the measured region. */
    Tick elapsed = 0;

    std::uint64_t messages = 0;
    std::uint64_t notifications = 0;
    std::uint64_t checksum = 0;

    /**
     * Host-side performance of the run (wall-clock, not simulated).
     * Non-deterministic by nature, so it is only serialized when
     * enabled — the bench harness turns it on via SHRIMP_REPORT_HOST=1
     * to capture the simulator's own perf trajectory across PRs;
     * determinism tests leave it off.
     */
    struct HostPerf
    {
        bool enabled = false;
        double wallSeconds = 0;       //!< host wall time of the run
        std::uint64_t events = 0;     //!< events executed by the run
        double eventsPerSec = 0;      //!< events / wallSeconds
        double userSeconds = 0;       //!< the run's user CPU time
        double sysSeconds = 0;        //!< the run's system CPU time
        std::uint64_t maxRssKb = 0;   //!< the process's peak RSS

        /**
         * Fiber context transfers performed by the run's processes
         * (Simulation::fiberSwitchTotal). Deterministic, but host
         * metadata, so it lives here.
         */
        std::uint64_t fiberSwitches = 0;

        /**
         * Deepest fiber-stack use observed process-wide
         * (FiberStack::globalHighWaterBytes): resident-page probe of
         * live stacks plus the retired maximum. Guides stack sizing.
         */
        std::uint64_t fiberStackHwmBytes = 0;
    };
    HostPerf host;

    /**
     * Fault-injection outcome of the run. Serialized only when the
     * mesh fault plane was active, so lossless-run reports carry no
     * extra noise.
     */
    struct Faults
    {
        bool enabled = false;
        std::uint64_t drops = 0;        //!< packets killed in flight
        std::uint64_t outageDrops = 0;  //!< subset due to link outages
        std::uint64_t corruptions = 0;  //!< checksums perturbed in flight
        std::uint64_t retransmits = 0;  //!< data packets resent
        std::uint64_t rtoFires = 0;     //!< retransmission timeouts
        std::uint64_t dupRx = 0;        //!< duplicates filtered at rx
        std::uint64_t acks = 0;         //!< ACK control packets sent
        std::uint64_t nacks = 0;        //!< NACK control packets sent
    };
    Faults faults;

    /**
     * Per-stage latency attribution of every delivered packet
     * (sim/recorder.hh). Serialized only when lifecycle tracing was
     * on; the stage list ends with "total" (end-to-end).
     */
    struct StageLatency
    {
        std::string stage;
        std::uint64_t count = 0;
        double meanUs = 0;
        double p50Us = 0;
        double p95Us = 0;
        double p99Us = 0;
    };
    struct LatencyBreakdown
    {
        bool enabled = false;
        std::vector<StageLatency> stages;
    };
    LatencyBreakdown latency;

    /** Workload knobs (sizes, protocol, seed, CLI what-ifs). */
    std::map<std::string, std::string> params;

    /** Sum of the per-process accounts. */
    TimeAccount combined;

    /** Figure-4 categories for each accounted process, in app order. */
    std::vector<TimeAccount> perProcess;

    /** Snapshot of every counter/accumulator/histogram of the run. */
    StatsRegistry stats;

    /** Serialize; @p pretty selects indented vs single-line output. */
    void writeJson(std::ostream &os, bool pretty = true) const;

    /** writeJson into a string. */
    std::string toJson(bool pretty = true) const;

    /** Write a pretty report to @p path (fatal on I/O error). */
    void writeFile(const std::string &path) const;
};

} // namespace shrimp

#endif // SHRIMP_SIM_RUN_REPORT_HH

/**
 * @file
 * Reader side of the causal trace log (sim/causal.hh): loads the
 * JSONL file's spans and gauge counters, checks the span-DAG and
 * counter invariants, reconstructs per-operation critical paths,
 * summarizes the gauges, and draws the log as a Chrome timeline.
 * Shared by tools/shrimp_analyze (--critical-path, --chrome) and the
 * causal-tracing tests.
 */

#ifndef SHRIMP_SIM_CAUSAL_READ_HH
#define SHRIMP_SIM_CAUSAL_READ_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace shrimp::causal_read
{

/** One parsed span line. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 == trace root
    std::uint64_t trace = 0;  //!< root span id of the trace
    int node = -1;
    std::string name;
    std::uint64_t startPs = 0;
    std::uint64_t endPs = 0;

    std::uint64_t durationPs() const { return endPs - startPs; }

    /** The layer prefix: everything before the first '.'. */
    std::string layer() const;
};

/** One parsed counter line: a gauge's samples over one run. */
struct Counter
{
    std::string name;
    int node = -1; //!< -1 for a cluster-wide gauge
    std::uint64_t everyPs = 0;
    std::vector<double> values; //!< at everyPs, 2 everyPs, ...
};

/**
 * A gauge's label, its Chrome counter track and analyzer row:
 * "node3 bus_util", or the name alone for a cluster-wide gauge.
 */
std::string gaugeLabel(int node, const std::string &name);

/** A loaded log plus its lookup indices. */
struct Log
{
    std::vector<Span> spans;
    std::vector<Counter> counters; //!< in the log's order

    /** Span by id; nullptr when absent. */
    const Span *byId(std::uint64_t id) const;

    /** Indices (into spans) of the children of @p id. */
    const std::vector<std::size_t> &childrenOf(std::uint64_t id) const;

    /** Rebuild the id and children indices after mutating spans. */
    void reindex();

  private:
    std::unordered_map<std::uint64_t, std::size_t> idIndex;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>>
        childIndex;
    std::vector<std::size_t> noChildren;
};

/**
 * Load @p path: the header line `{"causal_schema":2}`, then one span
 * or counter line per line. A counter's values must be numbers.
 * @return success; on failure @p err (if non-null) explains.
 */
bool load(const std::string &path, Log &out, std::string *err);

/**
 * Check the span-DAG invariants: ids unique; every non-zero parent
 * exists; trace ids are consistent (a root's trace is its own id, a
 * child's trace is its parent's); and a child never starts before its
 * parent (asynchronous packets may *end* after the posting span, so
 * full interval nesting is deliberately not required). Each counter
 * has a name, a node of -1 or more and an every_ps above 0.
 */
bool validate(const Log &log, std::string *err);

/** Time attributed to one span name along a critical path. */
struct Attribution
{
    std::string name;
    std::uint64_t ps = 0;
    std::uint64_t segments = 0; //!< covering segments merged in
};

/** A per-layer critical-path breakdown of one operation. */
struct CriticalPath
{
    std::uint64_t rootId = 0;
    std::string rootName;
    std::uint64_t startPs = 0;
    std::uint64_t endPs = 0;
    std::uint64_t totalPs = 0;
    /** Partition of [startPs, endPs]: ps values sum to totalPs.
     *  Sorted by ps, largest first. */
    std::vector<Attribution> stages;
};

/**
 * Reconstruct the critical path of the operation rooted at @p root_id:
 * every instant of [root.start, root.end] is attributed to the
 * *deepest* span of the root's subtree covering it (the most specific
 * ongoing work), and the resulting segments are summed per span name.
 * The attribution is an exact partition of the root interval.
 */
bool criticalPath(const Log &log, std::uint64_t root_id,
                  CriticalPath &out, std::string *err);

/**
 * Pick a default root: the longest span whose name contains
 * @p name_substr (every span qualifies when the filter is empty and
 * only trace roots are considered). @return nullptr when none match.
 */
const Span *findRoot(const Log &log, const std::string &name_substr);

/** Count/mean of one span name over the whole log. */
struct NameStat
{
    std::string name;
    std::uint64_t count = 0;
    double meanPs = 0.0;
};

/**
 * Per-name duration statistics for every "pkt.*" span in the log —
 * the stage means of the packets the log holds. The recorder's
 * receive hook emits these spans from the same stamps it samples into
 * the lifecycle histograms.
 */
std::vector<NameStat> packetStageStats(const Log &log);

/** Samples, mean and peak of one gauge over the whole log. */
struct GaugeStat
{
    int node = -1;
    std::string name;
    std::uint64_t samples = 0;
    double mean = 0.0;
    double peak = 0.0;
};

/**
 * Per node and gauge name, the samples of every counter line the log
 * holds for it, in order of first appearance (a one-run log lists the
 * gauges in the order the run registered them).
 */
std::vector<GaugeStat> gaugeStats(const Log &log);

/**
 * Draw @p log on @p out as a Chrome trace_event document (load it in
 * Perfetto or chrome://tracing): one complete ("X") event per span,
 * on a track per node and layer prefix ("node3 svm", "node3 pkt"),
 * with the span's ids as args {span, parent, trace}, and one counter
 * ("C") event per gauge sample, on a counter track named by the
 * gauge's label ("node3 bus_util"). Timestamps are simulated
 * microseconds printed to the picosecond. Every run a log holds is
 * drawn on the same tracks.
 */
void writeChrome(const Log &log, std::ostream &out);

} // namespace shrimp::causal_read

#endif // SHRIMP_SIM_CAUSAL_READ_HH

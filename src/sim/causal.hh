/**
 * @file
 * Causal tracing: a Dapper-style trace context (trace id + parent
 * span id) minted at each app-level operation and carried through
 * every layer a message crosses — msg domains, sockets, VMMC,
 * collectives, SVM, the NICs, and the mesh packets themselves — so an
 * app-level stall can be attributed to the exact chain of sends,
 * retransmits, and notifications behind it. Each run's Recorder
 * (sim/recorder.hh) mints and buffers the spans; this header holds
 * the context type and the log file's open/close.
 *
 * Output is a compact JSONL causal log: a header line
 * `{"causal_schema":2}` followed by one parent-linked span per line,
 *
 *   {"id":N,"parent":N,"trace":N,"node":N,"name":"nx.csend",
 *    "start_ps":N,"end_ps":N}
 *
 * with integer picosecond timestamps (exact, no rounding), sorted by
 * id. Span ids are `(node+1) << 32 | counter`, with a counter per
 * node that runs across every run written to the log, in run order
 * (see Recorder), so the whole log is identical between executions
 * of a bit-identical workload, whatever the sweep's job count.
 * `parent == 0` marks a trace root; `trace` is the root span's id.
 *
 * After the spans come the gauges of the runs that sampled them
 * (ClusterConfig::metricsInterval), runs in run order and each run's
 * gauges in registration order, one line per gauge per run:
 *
 *   {"counter":"bus_util","node":3,"every_ps":N,"values":[...]}
 *
 * sampled at every_ps, 2 every_ps, and so on, with node -1 for a
 * cluster-wide gauge (mesh.*, sim.event_queue) and each value in its
 * shortest round-trip form. Schema 1 logs held spans only.
 *
 * This log is the only trace a run writes. Enable it with
 * causal::open(path) (shrimp_run --causal FILE, or the SHRIMP_CAUSAL
 * environment variable) and finish with close(). tools/shrimp_analyze
 * --critical-path analyzes it, prints its gauges' means and peaks,
 * and --chrome draws it as a Chrome trace_event timeline, one event
 * per span and per gauge sample (causal_read::writeChrome).
 */

#ifndef SHRIMP_SIM_CAUSAL_HH
#define SHRIMP_SIM_CAUSAL_HH

#include <cstdint>
#include <string>

namespace shrimp::causal
{

/**
 * The propagated context: the trace a span belongs to and the span
 * that caused it. Zero means "no context" — a packet sent outside any
 * traced operation becomes the root of its own trace. The struct is
 * two plain words so it travels inside packets for free (in
 * PacketLife: observability metadata, not protocol state).
 */
struct CauseCtx
{
    std::uint64_t trace = 0; //!< root span id of the enclosing trace
    std::uint64_t span = 0;  //!< immediate parent span id

    bool valid() const { return span != 0; }
};

/**
 * Open @p path as the causal log. Replaces any open log. Runs whose
 * Simulation is built from now on record into it.
 */
void open(const std::string &path);

/** Renumber, sort, write and close the log. Idempotent. */
void close();

} // namespace shrimp::causal

#endif // SHRIMP_SIM_CAUSAL_HH

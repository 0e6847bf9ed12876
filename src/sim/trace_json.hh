/**
 * @file
 * The Chrome trace_event JSON output, loadable in chrome://tracing
 * and Perfetto.
 *
 * Each run's Recorder (sim/recorder.hh) writes span and instant
 * events on named *tracks* — one per simulated process, plus
 * per-node NIC/SVM tracks, per-link mesh tracks and, with the causal
 * log also open, one causal.node<N> mirror track per node. Events
 * carry simulated time (microsecond ts/dur with picosecond
 * precision), so a run's events are deterministic.
 *
 * Every run in the file is its own trace process: runs that execute
 * in parallel never share a track. A single-run trace has one
 * process, pid 0, named "shrimp"; in a multi-run trace the processes
 * are named "shrimp run <k>" with k the run order (Recorder).
 * Events stream to the file in bounded per-run chunks.
 *
 * Enable with trace_json::open(path) (shrimp_run --trace FILE, or the
 * SHRIMP_TRACE environment variable) and finish with close().
 */

#ifndef SHRIMP_SIM_TRACE_JSON_HH
#define SHRIMP_SIM_TRACE_JSON_HH

#include <string>

namespace shrimp::trace_json
{

/**
 * Open @p path as the Chrome trace. Replaces any open trace. Runs
 * whose Simulation is built from now on record into it; the file
 * becomes a complete JSON document once close() runs.
 */
void open(const std::string &path);

/** Name the runs' processes, finish the document. Idempotent. */
void close();

} // namespace shrimp::trace_json

#endif // SHRIMP_SIM_TRACE_JSON_HH

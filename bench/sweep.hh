/**
 * @file
 * Thread-parallel experiment sweeps.
 *
 * Every table/figure bench runs many independent, deterministic
 * Simulation instances; runSweep() farms them out to SHRIMP_JOBS host
 * threads. Simulation state is instance-scoped (the per-thread pieces
 * — the running fiber, the job's run-order slot — are thread_local),
 * so each worker owns its jobs completely.
 *
 * Determinism invariants:
 *  - Results are returned in submission order regardless of worker
 *    interleaving.
 *  - RunReport JSONL emission (emitReport) is buffered per job during
 *    a sweep and flushed in submission order afterwards, so the
 *    SHRIMP_REPORT_JSONL file is byte-identical for SHRIMP_JOBS=1 and
 *    SHRIMP_JOBS=N.
 *  - Job i's Simulations take slot i of a block of the run order
 *    the sweep reserves (sim/recorder.hh), so traced sweeps run in
 *    parallel too: the SHRIMP_CAUSAL log, and so the Chrome timeline
 *    shrimp_analyze --chrome draws from it, is byte-identical for any
 *    SHRIMP_JOBS.
 */

#ifndef SHRIMP_BENCH_SWEEP_HH
#define SHRIMP_BENCH_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace shrimp
{
struct RunReport;
}

namespace shrimp::bench
{

/**
 * Worker-thread count for sweeps: the SHRIMP_JOBS environment
 * variable, a whole number from 1 to 64; any other value is fatal.
 * Defaults to 1 (serial).
 */
int sweepJobs();

/**
 * Append @p report as one compact JSONL line to the file named by
 * SHRIMP_REPORT_JSONL (no-op when unset). The sink opens the file
 * once, serializes appends behind a mutex, and warns about an
 * unopenable path only once. Inside runSweep() the line is buffered
 * and flushed in submission order (see file comment).
 */
void emitReport(const RunReport &report);

namespace detail
{

/** Run runOne(0..count-1), parallel when sweepJobs() > 1. */
void runJobs(std::size_t count,
             const std::function<void(std::size_t)> &run_one);

} // namespace detail

/**
 * Run every job and return their results in submission order.
 *
 * Jobs must be independent: each builds (and tears down) its own
 * Simulation/Cluster and must not touch shared mutable state. Jobs
 * are handed to workers in index order, one at a time, so load
 * balances even when run times vary.
 */
template <class R>
std::vector<R>
runSweep(std::vector<std::function<R()>> jobs)
{
    std::vector<R> results(jobs.size());
    detail::runJobs(jobs.size(),
                    [&](std::size_t i) { results[i] = jobs[i](); });
    return results;
}

} // namespace shrimp::bench

#endif // SHRIMP_BENCH_SWEEP_HH

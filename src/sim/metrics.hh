/**
 * @file
 * Time-series metrics sampling (the flight recorder's first half; the
 * second is the lifecycle histograms of sim/recorder.hh).
 *
 * A MetricsSampler holds a set of named read-only gauges and samples
 * them all on a fixed simulated-time cadence into a columnar
 * in-memory buffer (MetricsSeries). The series is flushed after the
 * run as JSONL or CSV alongside the run report.
 *
 * Determinism contract: the sampler's event callback only *reads*
 * simulation state — it never blocks, allocates simulation objects,
 * touches the RNG, or wakes processes — and its events interleave
 * into the queue without reordering anyone else's (the queue breaks
 * ties by submission sequence, which is order-preserving for the
 * pre-existing events). Runs with sampling on therefore produce
 * bit-identical checksums and counters to runs with it off.
 *
 * The sampler reschedules itself only while other events remain in
 * the queue, so it never keeps an otherwise-finished simulation
 * alive.
 */

#ifndef SHRIMP_SIM_METRICS_HH
#define SHRIMP_SIM_METRICS_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace shrimp
{

class Simulation;

/**
 * The columnar sample buffer: one row per sampling instant, one
 * column per gauge. An ordinary value — copying it snapshots the
 * series, which is how it outlives the Simulation (AppResult).
 */
struct MetricsSeries
{
    std::vector<std::string> names;           //!< column names
    std::vector<Tick> times;                  //!< sample instants
    std::vector<std::vector<double>> columns; //!< [column][row]

    bool empty() const { return times.empty(); }
    std::size_t sampleCount() const { return times.size(); }

    /**
     * Serialize as JSONL: one header line (metrics_schema, app,
     * interval_us, samples, columns), then one line per sample with
     * the time in microseconds and the dense value row. Deterministic
     * formatting (JsonWriter), so identical runs emit identical
     * bytes.
     */
    void writeJsonl(std::ostream &os, const std::string &app,
                    Tick interval) const;

    /** Serialize as CSV: "t_us,<name>,..." header plus data rows. */
    void writeCsv(std::ostream &os) const;
};

/**
 * Samples registered gauges every @p interval of simulated time.
 */
class MetricsSampler
{
  public:
    using Gauge = std::function<double()>;

    /** Register a gauge; call before start(). */
    void addGauge(std::string name, Gauge fn);

    /**
     * Begin sampling: the first sample fires one @p interval from
     * now. @p interval must be > 0.
     */
    void start(Simulation &sim, Tick interval);

    bool running() const { return _sim != nullptr; }
    const MetricsSeries &series() const { return _series; }

  private:
    void tick();

    Simulation *_sim = nullptr;
    Tick _interval = 0;
    std::vector<Gauge> gauges;
    MetricsSeries _series;
};

} // namespace shrimp

#endif // SHRIMP_SIM_METRICS_HH

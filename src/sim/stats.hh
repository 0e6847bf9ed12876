/**
 * @file
 * A small statistics package: named counters, scalars and histograms
 * collected in a registry, dumpable in a stable, sorted text format
 * and serializable to JSON (RunReport).
 *
 * A StatsRegistry is an ordinary value: copying it snapshots every
 * statistic, which is how results outlive the Simulation that
 * produced them (see apps::AppResult::stats).
 */

#ifndef SHRIMP_SIM_STATS_HH
#define SHRIMP_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace shrimp
{

class JsonWriter;

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { _value += n; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/** Running scalar accumulator with min/max/mean. */
class Accumulator
{
  public:
    /** Add one sample. */
    void
    sample(double v)
    {
        ++_count;
        _sum += v;
        if (_count == 1 || v < _min)
            _min = v;
        if (_count == 1 || v > _max)
            _max = v;
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _min; }
    double max() const { return _max; }
    double mean() const { return _count ? _sum / double(_count) : 0.0; }

    void
    reset()
    {
        _count = 0;
        _sum = _min = _max = 0.0;
    }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/**
 * Fixed-bucket histogram over [lo, hi) with underflow/overflow bins.
 *
 * Buckets are linear by default; configureLog() switches to
 * geometrically spaced buckets, which keep relative resolution
 * constant across wide ranges (a 3.71 us AU word and a 5 ms capped
 * RTO backoff fit the same histogram without one of them landing in
 * the overflow bin). Reconfiguring clears the samples. The summary
 * accessors (mean/min/max) come from exact running sums, while
 * percentile() interpolates within its bucket, so its resolution is
 * one bucket width (linear) or one bucket ratio (log).
 */
class Histogram
{
  public:
    Histogram() { configure(0.0, 100.0, 20); }

    /** Set the range and bucket count; clears all samples. */
    void
    configure(double lo, double hi, std::size_t buckets)
    {
        _log = false;
        _lo = lo;
        _hi = hi > lo ? hi : lo + 1.0;
        _buckets.assign(buckets ? buckets : 1, 0);
        _invLogWidth = 0.0;
        reset();
    }

    /**
     * Switch to geometric (log-scale) buckets over [lo, hi).
     * Requires lo > 0; values below lo count as underflow.
     */
    void configureLog(double lo, double hi, std::size_t buckets);

    /** Add one sample. */
    void
    sample(double v)
    {
        summary.sample(v);
        if (v < _lo) {
            ++_underflow;
        } else if (v >= _hi) {
            ++_overflow;
        } else {
            std::size_t i = _log ? logIndex(v)
                                 : std::size_t((v - _lo) / bucketWidth());
            if (i >= _buckets.size()) // guard fp edge at hi
                i = _buckets.size() - 1;
            ++_buckets[i];
        }
    }

    std::uint64_t count() const { return summary.count(); }
    double sum() const { return summary.sum(); }
    double mean() const { return summary.mean(); }
    double min() const { return summary.min(); }
    double max() const { return summary.max(); }

    double lo() const { return _lo; }
    double hi() const { return _hi; }
    double bucketWidth() const { return (_hi - _lo) / double(_buckets.size()); }
    std::size_t bucketCount() const { return _buckets.size(); }
    std::uint64_t bucket(std::size_t i) const { return _buckets.at(i); }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }
    bool logScale() const { return _log; }

    /** Lower edge of bucket @p i (either scale). */
    double bucketLowEdge(std::size_t i) const;

    /**
     * Value at percentile @p p (0..100), interpolated within its
     * bucket (linearly or geometrically, matching the bucket scale).
     * Underflow samples resolve to lo, overflow to hi.
     */
    double percentile(double p) const;

    /** Clear all samples; keeps the bucket configuration. */
    void
    reset()
    {
        summary.reset();
        _underflow = _overflow = 0;
        for (auto &b : _buckets)
            b = 0;
    }

  private:
    /** Bucket index of @p v in log mode; requires lo <= v < hi. */
    std::size_t logIndex(double v) const;

    double _lo = 0.0;
    double _hi = 100.0;
    bool _log = false;
    double _invLogWidth = 0.0; //!< buckets / ln(hi/lo), log mode only
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    Accumulator summary;
};

/**
 * A last-writer-wins gauge: instrumentation sites publish the current
 * value of some piece of state (outstanding retransmit packets, the
 * time of the last RTO fire) and observers read it at any later point
 * — typically end of run via the report, or mid-run by a layer that
 * wants to react to it (sockets/NX watching reliability stalls).
 */
class Scalar
{
  public:
    void set(double v) { _value = v; }
    double value() const { return _value; }
    void reset() { _value = 0.0; }

  private:
    double _value = 0.0;
};

class StatsRegistry;

/**
 * Interned reference to a named Counter: the name is built once (at
 * instrumentation-site construction) and the registry lookup happens
 * at most once, so the per-event cost is a branch and an increment
 * instead of a string construction plus a map walk.
 *
 * Resolution is lazy by default: the counter is not created in the
 * registry until the first inc(). That preserves the registry's
 * create-on-first-use semantics exactly — a counter that is never
 * bumped stays absent from reports, byte-for-byte. Call bind() to
 * force eager creation where a zero-valued counter is intentional
 * (e.g. the mesh fault counters pre-touched when reliability is on).
 *
 * Handles hold a pointer into the registry's node-stable std::map,
 * so they remain valid for the registry's lifetime; they must not
 * outlive it, and they do not follow registry copies (snapshots).
 */
class CounterHandle
{
  public:
    CounterHandle() = default;
    CounterHandle(StatsRegistry &reg, std::string name)
        : _reg(&reg), _name(std::move(name))
    {
    }

    void
    inc(std::uint64_t n = 1)
    {
        if (!_counter)
            bind();
        _counter->inc(n);
    }

    /** Create the counter in the registry now (shows up as 0). */
    void bind();

    /** Current value; 0 if unbound and absent from the registry. */
    std::uint64_t value() const;

    const std::string &name() const { return _name; }
    explicit operator bool() const { return _reg != nullptr; }

  private:
    StatsRegistry *_reg = nullptr;
    std::string _name;
    Counter *_counter = nullptr;
};

/** Interned reference to a named Accumulator; see CounterHandle. */
class AccumulatorHandle
{
  public:
    AccumulatorHandle() = default;
    AccumulatorHandle(StatsRegistry &reg, std::string name)
        : _reg(&reg), _name(std::move(name))
    {
    }

    void
    sample(double v)
    {
        if (!_acc)
            bind();
        _acc->sample(v);
    }

    /** Create the accumulator in the registry now. */
    void bind();

    const std::string &name() const { return _name; }
    explicit operator bool() const { return _reg != nullptr; }

  private:
    StatsRegistry *_reg = nullptr;
    std::string _name;
    Accumulator *_acc = nullptr;
};

/**
 * Flat registry of named statistics.
 *
 * Names are hierarchical by convention ("node3.nic.packets_in").
 * Lookup creates on first use, so instrumentation sites stay terse.
 * Hot paths intern the lookup with counterHandle()/CounterHandle
 * instead of calling counter(name) per event; name-keyed lookup
 * remains the interface for reports and tests.
 */
class StatsRegistry
{
  public:
    /** Get (or create) the counter called @p name. */
    Counter &
    counter(const std::string &name)
    {
        return counters[name];
    }

    /**
     * Interned handle for @p name, resolved eagerly: the counter is
     * created now and appears in reports even if never incremented.
     * Use plain CounterHandle{reg, name} for lazy resolution.
     */
    CounterHandle
    counterHandle(const std::string &name)
    {
        CounterHandle h(*this, name);
        h.bind();
        return h;
    }

    /** Get (or create) the accumulator called @p name. */
    Accumulator &
    accumulator(const std::string &name)
    {
        return accumulators[name];
    }

    /** Get (or create, default-configured) the histogram @p name. */
    Histogram &histogram(const std::string &name)
    {
        return histograms[name];
    }

    /**
     * Get the histogram @p name, configuring its range on first use.
     * An existing histogram's configuration is left untouched.
     */
    Histogram &
    histogram(const std::string &name, double lo, double hi,
              std::size_t buckets)
    {
        auto [it, inserted] = histograms.try_emplace(name);
        if (inserted)
            it->second.configure(lo, hi, buckets);
        return it->second;
    }

    /**
     * Get the histogram @p name, log-configured on first use.
     * An existing histogram's configuration is left untouched.
     */
    Histogram &
    logHistogram(const std::string &name, double lo, double hi,
                 std::size_t buckets)
    {
        auto [it, inserted] = histograms.try_emplace(name);
        if (inserted)
            it->second.configureLog(lo, hi, buckets);
        return it->second;
    }

    /** Get (or create) the scalar gauge called @p name. */
    Scalar &
    scalar(const std::string &name)
    {
        return scalars[name];
    }

    /** @return the counter value, or 0 if never touched. */
    std::uint64_t
    counterValue(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second.value();
    }

    /** @return the scalar value, or 0 if never touched. */
    double
    scalarValue(const std::string &name) const
    {
        auto it = scalars.find(name);
        return it == scalars.end() ? 0.0 : it->second.value();
    }

    /** @return the histogram called @p name, or nullptr. */
    const Histogram *
    findHistogram(const std::string &name) const
    {
        auto it = histograms.find(name);
        return it == histograms.end() ? nullptr : &it->second;
    }

    /** All counters, sorted by name (tests, golden comparisons). */
    const std::map<std::string, Counter> &
    allCounters() const
    {
        return counters;
    }

    /** All scalars, sorted by name (tests, golden comparisons). */
    const std::map<std::string, Scalar> &
    allScalars() const
    {
        return scalars;
    }

    /** Sum of all counters whose name begins with @p prefix. */
    std::uint64_t sumCounters(const std::string &prefix) const;

    /** Reset every statistic to zero. */
    void reset();

    /** Write all statistics, sorted by name. */
    void dump(std::ostream &os) const;

    /**
     * Serialize into the writer's currently open object as four
     * keyed sub-objects — "counters", "accumulators", "histograms",
     * "scalars" — each sorted by name (stable output).
     */
    void writeJson(JsonWriter &w) const;

  private:
    std::map<std::string, Counter> counters;
    std::map<std::string, Accumulator> accumulators;
    std::map<std::string, Histogram> histograms;
    std::map<std::string, Scalar> scalars;
};

inline void
CounterHandle::bind()
{
    if (!_counter)
        _counter = &_reg->counter(_name);
}

inline std::uint64_t
CounterHandle::value() const
{
    if (_counter)
        return _counter->value();
    return _reg ? _reg->counterValue(_name) : 0;
}

inline void
AccumulatorHandle::bind()
{
    if (!_acc)
        _acc = &_reg->accumulator(_name);
}

} // namespace shrimp

#endif // SHRIMP_SIM_STATS_HH

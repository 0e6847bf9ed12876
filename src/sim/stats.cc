#include "sim/stats.hh"

#include <cmath>

#include "sim/json.hh"

namespace shrimp
{

void
Histogram::configureLog(double lo, double hi, std::size_t buckets)
{
    _log = true;
    _lo = lo > 0.0 ? lo : 1e-12;
    _hi = hi > _lo ? hi : _lo * 2.0;
    _buckets.assign(buckets ? buckets : 1, 0);
    _invLogWidth = double(_buckets.size()) / std::log(_hi / _lo);
    reset();
}

std::size_t
Histogram::logIndex(double v) const
{
    double x = std::log(v / _lo) * _invLogWidth;
    return x > 0.0 ? std::size_t(x) : 0;
}

double
Histogram::bucketLowEdge(std::size_t i) const
{
    if (!_log)
        return _lo + double(i) * bucketWidth();
    return _lo *
           std::pow(_hi / _lo, double(i) / double(_buckets.size()));
}

double
Histogram::percentile(double p) const
{
    std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    if (p <= 0.0)
        return min();
    if (p >= 100.0)
        return max();

    double target = p / 100.0 * double(n);
    double cum = double(_underflow);
    if (cum >= target)
        return _lo;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        double next = cum + double(_buckets[i]);
        if (next >= target && _buckets[i] > 0) {
            double frac = (target - cum) / double(_buckets[i]);
            if (_log)
                return _lo * std::pow(_hi / _lo,
                                      (double(i) + frac) /
                                          double(_buckets.size()));
            return _lo + (double(i) + frac) * bucketWidth();
        }
        cum = next;
    }
    return _hi;
}

std::uint64_t
StatsRegistry::sumCounters(const std::string &prefix) const
{
    std::uint64_t total = 0;
    for (auto it = counters.lower_bound(prefix); it != counters.end();
         ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        total += it->second.value();
    }
    return total;
}

void
StatsRegistry::reset()
{
    for (auto &kv : counters)
        kv.second.reset();
    for (auto &kv : accumulators)
        kv.second.reset();
    for (auto &kv : histograms)
        kv.second.reset();
    for (auto &kv : scalars)
        kv.second.reset();
}

void
StatsRegistry::writeJson(JsonWriter &w) const
{
    w.beginObject("counters");
    for (const auto &kv : counters)
        w.field(kv.first, kv.second.value());
    w.endObject();

    w.beginObject("accumulators");
    for (const auto &kv : accumulators) {
        const auto &a = kv.second;
        w.beginObject(kv.first);
        w.field("count", a.count());
        w.field("sum", a.sum());
        w.field("mean", a.mean());
        w.field("min", a.min());
        w.field("max", a.max());
        w.endObject();
    }
    w.endObject();

    w.beginObject("histograms");
    for (const auto &kv : histograms) {
        const auto &h = kv.second;
        w.beginObject(kv.first);
        w.field("count", h.count());
        w.field("mean", h.mean());
        w.field("min", h.min());
        w.field("max", h.max());
        w.field("p50", h.percentile(50));
        w.field("p95", h.percentile(95));
        w.field("p99", h.percentile(99));
        w.field("lo", h.lo());
        w.field("hi", h.hi());
        w.field("scale", h.logScale() ? "log" : "linear");
        w.field("underflow", h.underflow());
        w.field("overflow", h.overflow());
        w.beginArray("buckets");
        for (std::size_t i = 0; i < h.bucketCount(); ++i)
            w.value(h.bucket(i));
        w.endArray();
        w.endObject();
    }
    w.endObject();

    w.beginObject("scalars");
    for (const auto &kv : scalars)
        w.field(kv.first, kv.second.value());
    w.endObject();
}

} // namespace shrimp

#include "mesh/fault.hh"

#include <cstdlib>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace shrimp::mesh
{

namespace
{

/** SplitMix64 finalizer: full-avalanche 64-bit mixing. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine (seed, link, crossing) into one well-spread RNG seed. */
std::uint64_t
crossingSeed(std::uint64_t seed, int link, std::uint64_t crossing)
{
    return mix64(mix64(seed ^ (std::uint64_t(link) << 32)) ^ crossing);
}

} // anonymous namespace

bool
parseLinkOutage(const std::string &spec, LinkOutage &out)
{
    char *end = nullptr;
    const char *s = spec.c_str();
    long link = std::strtol(s, &end, 10);
    if (end == s || *end != ':')
        return false;
    s = end + 1;
    double t0 = std::strtod(s, &end);
    if (end == s || *end != ':')
        return false;
    s = end + 1;
    double t1 = std::strtod(s, &end);
    if (end == s || *end != '\0' || link < 0 || t1 < t0)
        return false;
    out.link = int(link);
    out.from = microseconds(t0);
    out.until = microseconds(t1);
    return true;
}

FaultInjector::FaultInjector(const FaultParams &params, int link_count)
    : _params(params), crossings(link_count, 0)
{
    for (const auto &o : _params.outages)
        if (o.link < 0 || o.link >= link_count)
            fatal("fault outage names link %d; topology has %d links",
                  o.link, link_count);
}

FaultVerdict
FaultInjector::crossLink(int link, Tick when)
{
    FaultVerdict v;
    std::uint64_t crossing = crossings[link]++;

    for (const auto &o : _params.outages) {
        if (o.link == link && when >= o.from && when < o.until) {
            v.drop = true;
            v.outage = true;
            return v;
        }
    }

    if (_params.dropRate <= 0.0 && _params.corruptRate <= 0.0 &&
        _params.jitterRate <= 0.0)
        return v;

    // A fresh stream per crossing: verdicts for one link never depend
    // on how many packets other links have carried.
    Random r(crossingSeed(_params.seed, link, crossing));
    if (_params.dropRate > 0.0 && r.chance(_params.dropRate)) {
        v.drop = true;
        return v;
    }
    if (_params.corruptRate > 0.0 && r.chance(_params.corruptRate)) {
        v.corrupt = true;
        v.corruptMask = r.next() | 1; // nonzero: checksum must mismatch
    }
    if (_params.jitterRate > 0.0 && r.chance(_params.jitterRate))
        v.jitter = Tick(r.below(std::uint64_t(_params.maxJitter) + 1));
    return v;
}

} // namespace shrimp::mesh

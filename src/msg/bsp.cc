#include "msg/bsp.hh"

#include "sim/logging.hh"
#include "sim/recorder.hh"

namespace shrimp::msg
{

BspDomain::BspDomain(core::Cluster &cluster, const BspConfig &config)
    : cluster(cluster), nprocs(config.nprocs), ranks(config.nprocs),
      regCount(config.nprocs, 0)
{
    if (nprocs < 1 || nprocs > cluster.nodeCount())
        fatal("BspDomain: nprocs %d out of range", nprocs);
}

BspDomain::~BspDomain() = default;

void
BspDomain::init(int rank)
{
    PerRank &r = ranks[rank];
    core::Endpoint &ep = cluster.vmmc(rank);
    auto &mem = ep.node().mem();

    // End-of-superstep markers: one u64 slot per peer.
    auto *eos = static_cast<std::uint64_t *>(
        mem.alloc(node::kPageBytes, true));
    r.eos = eos;
    r.eosExp = ep.exportBuffer(eos, node::kPageBytes);
    r.initialized = true;

    Simulation &sim = ep.node().simulation();
    auto all = [this] {
        for (auto &x : ranks)
            if (!x.initialized)
                return false;
        return true;
    };
    while (!all())
        sim.delay(microseconds(10));

    r.eosProxy.assign(nprocs, core::kInvalidProxy);
    for (int peer = 0; peer < nprocs; ++peer) {
        if (peer != rank)
            r.eosProxy[peer] = ep.import(NodeId(peer),
                                         ranks[peer].eosExp);
    }
}

int
BspDomain::registerArea(int rank, void *base, std::size_t bytes)
{
    PerRank &r = ranks[rank];
    core::Endpoint &ep = cluster.vmmc(rank);

    int area_id = regCount[rank]++;
    if (area_id == int(areas.size())) {
        areas.emplace_back();
        areas.back().exps.assign(nprocs, core::kInvalidExport);
        areas.back().proxies.assign(
            nprocs,
            std::vector<core::ProxyId>(nprocs, core::kInvalidProxy));
        areas.back().bytes = bytes;
    }
    AreaSet &a = areas[area_id];
    if (a.bytes != bytes)
        fatal("bsp: area %d registered with mismatched sizes",
              area_id);
    a.exps[rank] = ep.exportBuffer(base, bytes);
    (void)r;

    // Wait until every rank has exported this area, then import.
    Simulation &sim = ep.node().simulation();
    auto all = [&a, this] {
        for (int q = 0; q < nprocs; ++q)
            if (a.exps[q] == core::kInvalidExport)
                return false;
        return true;
    };
    while (!all())
        sim.delay(microseconds(10));

    for (int owner = 0; owner < nprocs; ++owner) {
        if (owner != rank)
            a.proxies[rank][owner] =
                ep.import(NodeId(owner), a.exps[owner]);
    }
    return area_id;
}

void
BspDomain::put(int rank, int dst, int area, std::size_t offset,
               const void *src, std::size_t bytes)
{
    if (area < 0 || area >= int(areas.size()))
        fatal("bsp: bad area id %d", area);
    AreaSet &a = areas[area];
    if (offset + bytes > a.bytes)
        fatal("bsp: put overruns area %d", area);
    if (dst == rank)
        fatal("bsp: put-to-self is not supported");

    core::Endpoint &ep = cluster.vmmc(rank);
    ep.node().cpu().sync();
    ScopedCategory cat(cluster.sim(), TimeCategory::Communication);
    causal::OpSpan span(cluster.sim().recorder(), rank, "bsp.put");
    ep.send(a.proxies[rank][dst], src, bytes, offset);
    PerRank &pr = ranks[rank];
    if (!pr.stPuts)
        pr.stPuts = CounterHandle(cluster.sim().stats(),
                                  ep.node().name() + ".bsp.puts");
    pr.stPuts.inc();
}

void
BspDomain::sync(int rank)
{
    PerRank &r = ranks[rank];
    core::Endpoint &ep = cluster.vmmc(rank);
    ep.node().cpu().sync();
    ScopedCategory cat(cluster.sim(), TimeCategory::Barrier);
    causal::OpSpan span(cluster.sim().recorder(), rank, "bsp.sync");

    std::uint64_t step = ++r.step;

    // The marker trails this superstep's puts on every (FIFO) pair,
    // so its arrival certifies their delivery.
    for (int peer = 0; peer < nprocs; ++peer) {
        if (peer == rank)
            continue;
        ep.send(r.eosProxy[peer], &step, sizeof(step),
                std::size_t(rank) * sizeof(std::uint64_t));
    }

    // Wait for every peer's marker for this superstep.
    ep.waitUntil([this, &r, step] {
        for (int peer = 0; peer < nprocs; ++peer) {
            if (peer != int(&r - ranks.data()) && r.eos[peer] < step)
                return false;
        }
        return true;
    });
}

std::uint64_t
BspDomain::superstep(int rank) const
{
    return ranks[rank].step;
}

} // namespace shrimp::msg

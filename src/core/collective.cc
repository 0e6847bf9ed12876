#include "core/collective.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/recorder.hh"

namespace shrimp::core
{

Collective::Collective(Cluster &cluster, int nprocs)
    : cluster(cluster), nprocs(nprocs),
      exported(nprocs, kInvalidExport), setup(nprocs), ranks(nprocs)
{
    if (nprocs < 1 || nprocs > kMaxProcs)
        fatal("Collective: nprocs %d out of range", nprocs);
    if (nprocs > cluster.nodeCount())
        fatal("Collective: more ranks than nodes");
}

void
Collective::init(int rank)
{
    Endpoint &ep = cluster.vmmc(rank);
    PerRank &r = ranks[rank];

    // The control page: MemberCtl for everyone; the coordinator page
    // additionally holds the gather slots behind it. One page covers
    // 255 ranks; bigger meshes grow the coordinator region in page
    // multiples so the sweep axis isn't capped by a fixed buffer.
    std::size_t bytes = node::kPageBytes;
    if (rank == 0) {
        std::size_t need =
            sizeof(MemberCtl) + std::size_t(nprocs) * sizeof(Slot);
        bytes = (need + node::kPageBytes - 1) / node::kPageBytes *
                node::kPageBytes;
    }
    r.page = static_cast<char *>(ep.node().mem().alloc(bytes, true));
    std::fill(r.page, r.page + bytes, 0);
    exported[rank] = ep.exportBuffer(r.page, bytes);

    // Init-phase rendezvous: wait (model-level) until every rank has
    // exported, then import the pages we need.
    setup.arriveAndWait(ep.node().simulation());

    if (rank == 0) {
        r.toMembers.resize(nprocs, kInvalidProxy);
        for (int i = 1; i < nprocs; ++i)
            r.toMembers[i] = ep.import(NodeId(i), exported[i]);
    } else {
        r.toCoordinator = ep.import(NodeId(0), exported[0]);
    }
    r.initialized = true;
}

void
Collective::barrier(int rank)
{
    reduce(rank, 0.0, Op::Barrier);
}

double
Collective::reduceSum(int rank, double value)
{
    return reduce(rank, value, Op::Sum);
}

double
Collective::reduceMax(int rank, double value)
{
    return reduce(rank, value, Op::Max);
}

double
Collective::reduce(int rank, double value, Op op)
{
    PerRank &r = ranks[rank];
    if (!r.initialized)
        panic("Collective::reduce before init on rank %d", rank);
    Endpoint &ep = cluster.vmmc(rank);
    ScopedCategory cat(cluster.sim(), TimeCategory::Barrier);
    causal::OpSpan span(cluster.sim().recorder(), rank, "coll.reduce");

    std::uint64_t e = ++r.epoch;

    if (rank != 0) {
        // Gather slots live behind the MemberCtl on the coordinator
        // page; one 16-byte message delivers epoch + value atomically.
        Slot slot{e, value};
        std::size_t offset =
            sizeof(MemberCtl) + std::size_t(rank) * sizeof(Slot);
        ep.send(r.toCoordinator, &slot, sizeof(Slot), offset);

        auto *ctl = reinterpret_cast<MemberCtl *>(r.page);
        ep.waitUntil([ctl, e] { return ctl->releaseEpoch >= e; });
        return ctl->result;
    }

    // Coordinator: wait for all arrivals, combine, release.
    auto *slots = reinterpret_cast<Slot *>(r.page + sizeof(MemberCtl));
    ep.waitUntil([this, slots, e] {
        for (int i = 1; i < nprocs; ++i)
            if (slots[i].epoch < e)
                return false;
        return true;
    });

    double result = value;
    for (int i = 1; i < nprocs; ++i) {
        switch (op) {
          case Op::Barrier:
            break;
          case Op::Sum:
            result += slots[i].value;
            break;
          case Op::Max:
            result = std::max(result, slots[i].value);
            break;
        }
    }

    MemberCtl out{e, result};
    for (int i = 1; i < nprocs; ++i)
        ep.send(r.toMembers[i], &out, sizeof(MemberCtl), 0);
    return result;
}

} // namespace shrimp::core

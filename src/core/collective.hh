/**
 * @file
 * Barrier and reduction collectives built on plain VMMC deliberate
 * update + polling, the way SHRIMP libraries implemented them: a
 * coordinator gathers per-rank epoch/value slots and releases members
 * by writing into their control pages. Monotonic epochs make the
 * slots reusable without reset races.
 */

#ifndef SHRIMP_CORE_COLLECTIVE_HH
#define SHRIMP_CORE_COLLECTIVE_HH

#include <cstdint>
#include <vector>

#include "core/vmmc.hh"

namespace shrimp::core
{

/**
 * One collective-communication domain over ranks 0..n-1 mapped to
 * nodes 0..n-1.
 */
class Collective
{
  public:
    /**
     * Maximum participating processes. The gather region is sized to
     * the rank count at init(), so the only hard ceiling left is the
     * mesh itself (mesh::kMaxMeshNodes).
     */
    static constexpr int kMaxProcs = 64 * 1024;

    /**
     * @param cluster The cluster.
     * @param nprocs Number of participating ranks.
     */
    Collective(Cluster &cluster, int nprocs);

    /**
     * Collective setup; every rank must call this from its process
     * before the first operation. Performs the export/import dance.
     */
    void init(int rank);

    /** Barrier across all ranks; the wait is charged to Barrier. */
    void barrier(int rank);

    /** Global sum; every rank receives the result. */
    double reduceSum(int rank, double value);

    /** Global max; every rank receives the result. */
    double reduceMax(int rank, double value);

    /** Number of participating ranks. */
    int size() const { return nprocs; }

  private:
    enum class Op { Barrier, Sum, Max };

    double reduce(int rank, double value, Op op);

    /** Gather slot on the coordinator page, one per rank. */
    struct Slot
    {
        std::uint64_t epoch;
        double value;
    };

    /** Control block on each member page. */
    struct MemberCtl
    {
        std::uint64_t releaseEpoch;
        double result;
    };

    Cluster &cluster;
    int nprocs;

    // Model-level shared setup state (init-phase only, uncharged).
    std::vector<ExportId> exported;
    Rendezvous setup;

    struct PerRank
    {
        char *page = nullptr;
        ProxyId toCoordinator = kInvalidProxy; //!< member -> coord page
        std::vector<ProxyId> toMembers;        //!< coord -> member pages
        std::uint64_t epoch = 0;
        bool initialized = false;
    };

    std::vector<PerRank> ranks;
};

} // namespace shrimp::core

#endif // SHRIMP_CORE_COLLECTIVE_HH

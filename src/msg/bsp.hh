/**
 * @file
 * A cBSP-style bulk-synchronous-parallel library on VMMC (Sec 3, [3]:
 * "cBSP: Zero-Cost Synchronization in a Modified BSP Model").
 *
 * Computation proceeds in supersteps; during a superstep processes
 * `put` data directly into registered areas of remote memories, and
 * `sync` ends the superstep. The SHRIMP trick that makes sync nearly
 * free: deliberate-update delivery is FIFO per sender/receiver pair,
 * so an end-of-superstep marker sent after a process's puts *proves*
 * those puts have landed — no counting, no central barrier, just one
 * small message per peer and a wait for the peers' markers.
 */

#ifndef SHRIMP_MSG_BSP_HH
#define SHRIMP_MSG_BSP_HH

#include <cstdint>
#include <vector>

#include "core/vmmc.hh"

namespace shrimp::msg
{

/** Configuration of a BSP domain. */
struct BspConfig
{
    int nprocs = 16;
};

/**
 * One BSP domain over ranks 0..n-1 on nodes 0..n-1.
 */
class BspDomain
{
  public:
    BspDomain(core::Cluster &cluster, const BspConfig &config);
    ~BspDomain();

    /** Per-rank setup; call first from each rank's process. */
    void init(int rank);

    /**
     * Collective area registration: every rank calls this with its
     * own page-aligned arena buffer of identical size, in the same
     * program order. @return the area id, identical on all ranks.
     */
    int registerArea(int rank, void *base, std::size_t bytes);

    /**
     * Put @p bytes into rank @p dst's registered area @p area at
     * @p offset. One-sided; lands before the destination leaves the
     * next sync. Charged to Communication.
     */
    void put(int rank, int dst, int area, std::size_t offset,
             const void *src, std::size_t bytes);

    /**
     * End the superstep (cBSP marker exchange, no central barrier).
     * The wait is charged to Barrier.
     */
    void sync(int rank);

    /** Supersteps completed by @p rank. */
    std::uint64_t superstep(int rank) const;

    int size() const { return nprocs; }

  private:
    struct AreaSet
    {
        std::vector<core::ExportId> exps;      //!< per owner rank
        std::vector<std::vector<core::ProxyId>> proxies; //!< [rank][owner]
        std::size_t bytes = 0;
    };

    struct PerRank
    {
        bool initialized = false;
        /** eos[peer] = that peer's last completed superstep. */
        volatile std::uint64_t *eos = nullptr;
        core::ExportId eosExp = core::kInvalidExport;
        std::vector<core::ProxyId> eosProxy;
        std::uint64_t step = 0;
        std::vector<void *> pendingAreas; //!< registration order

        /** Interned ".bsp.puts", bound on first put (lazy). */
        CounterHandle stPuts;
    };

    core::Cluster &cluster;
    int nprocs;
    std::vector<PerRank> ranks;
    std::vector<AreaSet> areas;
    // Collective registration bookkeeping.
    std::vector<int> regCount;
};

} // namespace shrimp::msg

#endif // SHRIMP_MSG_BSP_HH

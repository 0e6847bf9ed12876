/**
 * @file
 * Page-based shared virtual memory over VMMC, in the three flavours
 * the paper compares (Sec 4.2, Fig. 4 left):
 *
 *  - HLRC     home-based lazy release consistency [47]: twins on
 *             first write, diffs computed at release and sent to the
 *             page's home by deliberate update; page faults fetch the
 *             full page from home.
 *  - HLRC-AU  like HLRC, but the written data propagates to the home
 *             through automatic-update mappings as it is produced, so
 *             no diff messages are sent — the diff computation (and
 *             twins) remain.
 *  - AURC     automatic update release consistency [25]: shared pages
 *             are write-through mapped to their homes; no twins, no
 *             diffs at all.
 *
 * Coherence metadata follows the LRC literature: vector timestamps,
 * per-release intervals carrying write notices, invalidations applied
 * at acquire time. Locks use per-lock managers; barriers a central
 * manager. All protocol control messages travel through notification-
 * enabled receive buffers — which is why SVM dominates the paper's
 * Table 3 notification counts.
 */

#ifndef SHRIMP_SVM_SVM_HH
#define SHRIMP_SVM_SVM_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/vmmc.hh"

namespace shrimp::svm
{

/** Which consistency protocol a run uses. */
enum class Protocol
{
    HLRC,
    HLRC_AU,
    AURC,
};

/** Printable protocol name. */
const char *protocolName(Protocol p);

/** Shared page index. */
using PageId = std::uint32_t;

/** Configuration of an SVM run. */
struct SvmConfig
{
    Protocol protocol = Protocol::HLRC;
    int nprocs = 16;

    /** Shared heap size (replicated per node). */
    std::size_t heapBytes = 16ull * 1024 * 1024;

    /** Number of lock identifiers available. */
    int numLocks = 1024;

    // --- protocol cost knobs (60 MHz Pentium era) ---

    /** Page-fault trap + SIGSEGV-style handler entry/exit. */
    Tick faultTrapCost = microseconds(35);

    /** Fixed part of making a twin (alloc + mprotect). */
    Tick twinBaseCost = microseconds(12);

    /** Fixed part of diffing one page (the scan is charged as a copy). */
    Tick diffBaseCost = microseconds(15);

    /** Fixed part of applying one diff at the home. */
    Tick applyBaseCost = microseconds(8);

    /** Per-page invalidation (mprotect). */
    Tick invalidateCost = microseconds(3);

    /** Protocol handler processing per control message. */
    Tick handlerCost = microseconds(5);
};

/**
 * The SVM runtime for one cluster run.
 *
 * Usage: construct; sharedAlloc() the shared data (canonical
 * pointers); optionally setHomeBlock(); spawn one process per rank,
 * each calling init(rank) first; then access shared data through the
 * read/write accessors and synchronize with lock/unlock/barrier.
 * These calls charge the running process's time account: page
 * fetches to Communication, twins, diffs and releases to Overhead,
 * lock waits to Lock and barrier waits to Barrier.
 */
class SvmRuntime
{
  public:
    SvmRuntime(core::Cluster &cluster, const SvmConfig &config);
    ~SvmRuntime();

    SvmRuntime(const SvmRuntime &) = delete;
    SvmRuntime &operator=(const SvmRuntime &) = delete;

    /** The cluster. */
    core::Cluster &clusterRef() { return cluster; }

    /** Configuration. */
    const SvmConfig &config() const { return cfg; }

    // ------------------------------------------------------------------
    // Setup (call before the simulation runs)
    // ------------------------------------------------------------------

    /**
     * Allocate shared memory; returns a canonical pointer valid on
     * every rank through the accessors. Page-aligned when
     * @p page_aligned.
     */
    void *sharedAlloc(std::size_t bytes, bool page_aligned = true);

    /** Typed sharedAlloc. */
    template <typename T>
    T *
    sharedAllocArray(std::size_t n, bool page_aligned = true)
    {
        return static_cast<T *>(sharedAlloc(n * sizeof(T), page_aligned));
    }

    /**
     * Assign the pages of [p, p+bytes) to home @p rank (default homes
     * are round-robin by page).
     */
    void setHomeBlock(const void *p, std::size_t bytes, int rank);

    // ------------------------------------------------------------------
    // Per-rank runtime interface (call from rank processes)
    // ------------------------------------------------------------------

    /** Collective setup; call first from every rank's process. */
    void init(int rank);

    /** Read a shared value. */
    template <typename T>
    T
    read(int rank, const T *caddr)
    {
        char *local = ensureRead(rank, caddr);
        return *reinterpret_cast<T *>(local);
    }

    /** Write a shared value. */
    template <typename T>
    void
    write(int rank, T *caddr, T value)
    {
        char *local = ensureWrite(rank, caddr);
        storeShared(rank, local, &value, sizeof(T));
    }

    /** Read-modify accessor for bulk rows: validate + charge once. */
    const char *readRange(int rank, const void *caddr,
                          std::size_t bytes);

    /** Bulk write of a contiguous shared range. */
    void writeRange(int rank, void *caddr, const void *src,
                    std::size_t bytes);

    /**
     * Validate a small structure for reading and charge @p accesses
     * cached references (cheaper than readRange's bulk-copy charge;
     * for records like tree cells).
     */
    const char *readStruct(int rank, const void *caddr,
                           std::size_t bytes, int accesses);

    /** Acquire lock @p id. */
    void lock(int rank, int id);

    /** Release lock @p id. */
    void unlock(int rank, int id);

    /** Global barrier. */
    void barrier(int rank);

    // ------------------------------------------------------------------
    // Introspection (tests, benches)
    // ------------------------------------------------------------------

    /** Home rank of the page containing @p caddr. */
    int homeOf(const void *caddr) const;

    /** Count of page faults served for @p rank. */
    std::uint64_t faults(int rank) const;

    /** Count of diffs created by @p rank. */
    std::uint64_t diffsCreated(int rank) const;

    /**
     * Rank @p rank's replica of a canonical pointer (tests; apps read
     * their answers at the homes after the run, apps::forEachAtHome).
     */
    char *replicaAddr(int rank, const void *caddr);

    /** Debug aid: describe what every rank last did (deadlock hunts). */
    std::string debugState() const;

  private:
    struct RankState;
    struct LockState;

    /** Vector timestamp: intervals known per node. */
    using Vc = std::vector<std::uint32_t>;

    // Access-layer internals.
    char *ensureRead(int rank, const void *caddr);
    char *ensureWrite(int rank, const void *caddr);
    void storeShared(int rank, char *local, const void *src,
                     std::size_t bytes);
    void fetchPage(int rank, PageId page);
    void makeTwin(int rank, PageId page);

    // Release/acquire machinery.
    void releaseInterval(int rank);
    void flushPendingDiffs(int rank);
    void capturePendingDiff(int rank, PageId page);
    void applyNotices(int rank, const Vc &upto);
    void releaseStaleCopies(int rank);
    std::size_t noticeBytes(const Vc &have, const Vc &upto) const;
    static void vcMax(Vc &into, const Vc &other);

    // Messaging.
    void sendCtl(int rank, int to, const void *msg, std::size_t bytes);
    void sendCtlWithNotices(int rank, int to, std::uint32_t kind,
                            std::uint32_t arg0, const Vc &vc,
                            std::size_t notice_bytes);
    void handleCtl(int rank, NodeId src, std::uint32_t offset,
                   std::uint32_t bytes);

    // Lock/barrier manager actions (run on the manager's node).
    void managerLockRequest(int mgr, int requester, int lock_id,
                            const Vc &req_vc);
    void managerLockRelease(int mgr, int lock_id, const Vc &rel_vc);
    void managerGrant(int mgr, int lock_id, int to, const Vc &req_vc);
    void managerBarrierArrive(int mgr, const Vc &vc);

    PageId pageOfCanonical(const void *caddr) const;

    core::Cluster &cluster;
    SvmConfig cfg;

    /** Every rank has exported its regions (init phase). */
    Rendezvous setup;

    /**
     * NIC-capability driven (nic::NicCaps::batchedNotify): when the
     * adapter keeps per-id arrival counters, the page-fetch stamp and
     * diff acks are awaited through notifyWait() instead of polling
     * control-page scalars; control sends are marked urgent so they
     * bypass completion-queue coalescing.
     */
    bool useNotify = false;

    // Shared heap replicas; canonical addresses point into replica 0.
    std::vector<char *> replicas;
    std::size_t heapUsed = 0;
    PageId pageCount = 0;
    std::vector<int> homes;

    /**
     * One closed interval: the pages a node dirtied between two
     * releases. Write notices are composed from this log; the model
     * keeps it centrally but charges the bytes that carry it in
     * grant/release/barrier messages.
     */
    struct Interval
    {
        std::vector<PageId> pages;
    };

    /** intervalsOf[node][seq-1] = that node's seq'th interval. */
    std::vector<std::vector<Interval>> intervalsOf;

    std::vector<std::unique_ptr<RankState>> ranks;
    std::vector<std::unique_ptr<LockState>> locks;

    // Barrier manager state (manager = rank 0).
    std::uint64_t barrierEpoch = 0;
    int barrierArrived = 0;
    Vc barrierVc;
};

/**
 * Convenience per-rank view with implicit rank argument.
 */
class SvmView
{
  public:
    SvmView(SvmRuntime &rt, int rank) : rt(rt), rank(rank) {}

    template <typename T>
    T
    read(const T *p) const
    {
        return rt.read<T>(rank, p);
    }

    template <typename T>
    void
    write(T *p, T v) const
    {
        rt.write<T>(rank, p, v);
    }

    const char *
    readRange(const void *p, std::size_t n) const
    {
        return rt.readRange(rank, p, n);
    }

    const char *
    readStruct(const void *p, std::size_t n, int accesses) const
    {
        return rt.readStruct(rank, p, n, accesses);
    }

    void
    writeRange(void *p, const void *src, std::size_t n) const
    {
        rt.writeRange(rank, p, src, n);
    }

    void lock(int id) const { rt.lock(rank, id); }
    void unlock(int id) const { rt.unlock(rank, id); }
    void barrier() const { rt.barrier(rank); }

    SvmRuntime &runtime() const { return rt; }

  private:
    SvmRuntime &rt;
    int rank;
};

} // namespace shrimp::svm

#endif // SHRIMP_SVM_SVM_HH

/**
 * @file
 * An NX-compatible message-passing library on VMMC (Sec 3, [2]).
 *
 * Intel NX semantics: typed messages, csend/crecv blocking calls with
 * type selectors (-1 matches anything), plus a global barrier. The
 * implementation follows the SHRIMP NX port: every pair of ranks
 * shares a receiver-side ring buffer written by deliberate update (or
 * automatic update, Sec 4.2's what-if), with receiver-driven credit
 * returns for flow control and polling receives — no receive-side
 * interrupts.
 */

#ifndef SHRIMP_MSG_NX_HH
#define SHRIMP_MSG_NX_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/collective.hh"
#include "core/vmmc.hh"

namespace shrimp::msg
{

/** Configuration of an NX domain. */
struct NxConfig
{
    int nprocs = 16;

    /** Per-pair ring capacity. */
    std::size_t ringBytes = 256 * 1024;

    /**
     * Use automatic update instead of deliberate update as the bulk
     * transfer mechanism (the Sec 4.2 experiment).
     */
    bool useAutomaticUpdate = false;
};

class NxDomain;

/**
 * Per-rank NX library handle; all calls must be made from the rank's
 * process. Sends and receives charge that process's time account to
 * Communication, the global operations to Barrier.
 */
class NxProcess
{
  public:
    /** Rank of this process. */
    int mynode() const { return rank; }

    /** Number of ranks. */
    int numnodes() const;

    /**
     * Blocking typed send of @p len bytes to rank @p to.
     * Returns when the application buffer is reusable.
     */
    void csend(int type, const void *buf, std::size_t len, int to);

    /**
     * Blocking typed receive: first pending message whose type
     * matches @p typesel (-1 = any). @return the message length.
     * fatal() if the message exceeds @p maxlen.
     */
    std::size_t crecv(int typesel, void *buf, std::size_t maxlen);

    /**
     * Like crecv but also returns/filters the sender.
     *
     * @param from Only match messages from this rank (-1 = any).
     * @param src_out If non-null, receives the sender rank.
     */
    std::size_t crecvProbe(int typesel, int from, void *buf,
                           std::size_t maxlen, int *src_out);

    /** @return a matching pending message's length, or -1. */
    long iprobe(int typesel);

    /** Global synchronization across the domain. */
    void gsync();

    /** Global double sum (NX gdsum with a single element). */
    double gdsum(double v);

    /** Global double max. */
    double gdhigh(double v);

  private:
    friend class NxDomain;

    NxProcess(NxDomain &dom, int rank) : dom(dom), rank(rank) {}

    /** Header framing each ring message. */
    struct MsgHeader
    {
        std::uint32_t seq;     //!< 1-based per-pair sequence
        std::uint32_t type;
        std::uint32_t len;
        std::uint32_t pad;
    };

    /** Trailer stamp written after the payload (arrival marker). */
    struct MsgTrailer
    {
        std::uint32_t seq;
        std::uint32_t pad;
    };

    /**
     * A drained message that no crecv has taken yet. Its payload stays
     * where it landed in the sender's ring until sendCredits lets the
     * sender overwrite it; sendCredits then moves it into @c copy.
     */
    struct PendingMsg
    {
        std::uint64_t order;          //!< drain sequence number
        const char *data;             //!< in the ring, or copy.get()
        std::unique_ptr<char[]> copy; //!< owned payload once credited
        std::uint32_t len;
        int type;
        std::int32_t next;            //!< next slot in the FIFO, or -1
    };

    /** One sender's pending messages in drain order: slot indices. */
    struct PendingFifo
    {
        std::int32_t head = -1;
        std::int32_t tail = -1;
    };

    /** A pending message picked by findPending, and its predecessor. */
    struct Match
    {
        int src = -1;
        std::int32_t prev = -1;
        std::int32_t slot = -1;
    };

    /**
     * Poll every ring: drain the ones whose unread bit is set and
     * charge an empty poll for each of the others.
     */
    void drainRings();
    void drainRingFrom(int src);
    void sendCredits(int src);

    /** Append a drained message to @p src's FIFO. */
    void queuePending(int src, int type, const char *data,
                      std::uint32_t len);

    /**
     * The first pending message in drain order whose type matches
     * @p typesel and whose sender matches @p from (-1 = any of each).
     */
    Match findPending(int typesel, int from) const;

    /** Unlink @p m from its sender's FIFO and free its slot. */
    void takePending(const Match &m);

    NxDomain &dom;
    int rank;

    /**
     * Pending messages: one FIFO per sender, threaded through a single
     * slot pool so an idle pair costs 8 bytes, not a container. A
     * named receive looks only at its sender's FIFO; a wildcard one
     * takes the lowest drain number among each sender's first match,
     * which is the message one arrival-ordered list would have given.
     * fifos and hasPending are sized on the first drain.
     */
    std::vector<PendingMsg> slots;
    std::int32_t freeSlot = -1;           //!< free list through next
    std::vector<PendingFifo> fifos;       //!< [sender]
    std::vector<std::uint64_t> hasPending; //!< bit per non-empty FIFO
    std::uint64_t drained = 0;            //!< messages drained so far

    // Interned per-process statistics, bound on first send (lazy;
    // see sim/stats.hh).
    CounterHandle stSends;
    CounterHandle stSendBytes;
};

/**
 * An NX domain over ranks 0..n-1 on nodes 0..n-1 of a cluster.
 *
 * Construct once, then have each rank call init() from its process
 * before any communication.
 */
class NxDomain
{
  public:
    NxDomain(core::Cluster &cluster, const NxConfig &config);
    ~NxDomain();

    /** Collective setup; call first from every rank's process. */
    void init(int rank);

    /** The per-rank library handle. */
    NxProcess &process(int rank) { return *procs.at(rank); }

    /** Number of ranks. */
    int size() const { return config.nprocs; }

    core::Cluster &clusterRef() { return cluster; }

  private:
    friend class NxProcess;

    /** Receiver-side state for one incoming pair ring. */
    struct InRing
    {
        char *base = nullptr;        //!< exported ring memory
        core::ExportId exp = core::kInvalidExport;
        std::uint32_t nextSeq = 1;
        std::uint64_t consumed = 0;  //!< total consumed bytes
        std::uint64_t creditsSent = 0;
    };

    /** Sender-side state for one outgoing pair ring. */
    struct OutRing
    {
        core::ProxyId proxy = core::kInvalidProxy;
        std::uint64_t writePos = 0;  //!< produced bytes (total)
        char *auStage = nullptr;     //!< AU-bound staging copy
        /** Credit word (peer writes total consumed) in my credit page. */
        volatile std::uint64_t *credit = nullptr;
        std::uint32_t nextSeq = 1;
    };

    core::Cluster &cluster;
    NxConfig config;
    core::Collective coll;

    std::vector<std::unique_ptr<NxProcess>> procs;

    // [rank][peer] state; indexed by the owning rank.
    std::vector<std::vector<InRing>> inRings;
    std::vector<std::vector<OutRing>> outRings;

    /**
     * unread[rank] is a bitset over senders, 64 to a word. Bit p is
     * set from the moment p starts posting a record to rank until
     * rank has consumed every byte p produced (InRing::consumed
     * equals OutRing::writePos), so a clear bit means an empty ring.
     * A host-side index only: polls are charged as if every ring
     * were read.
     */
    std::vector<std::vector<std::uint64_t>> unread;

    // Credit pages: credits[rank] holds one u64 per peer, exported by
    // rank and written by its peers as they consume.
    std::vector<char *> creditPages;
    std::vector<core::ExportId> creditExports;
    std::vector<std::vector<core::ProxyId>> creditProxies;

    /** Every rank has exported its rings and credits (init phase). */
    Rendezvous setup;
};

} // namespace shrimp::msg

#endif // SHRIMP_MSG_NX_HH

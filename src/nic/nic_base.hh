/**
 * @file
 * Abstract network interface: the contract VMMC (core/) programs to.
 *
 * Three implementations exist: ShrimpNic (the paper's custom hardware,
 * with user-level DMA and automatic update), BaselineNic (a
 * Myrinet-style firmware-mediated adapter used for the "did it make
 * sense to build hardware?" comparison, Sec 4.1) and ModernNic (an
 * RDMA-style adapter with doorbell send queues, completion queues and
 * notifiable remote writes, the post-SHRIMP design point).
 *
 * The contract is capability-queried: upper layers ask caps() what
 * the adapter can do (automatic update, doorbell posting, batched
 * notification) and pick mechanisms from those bits — there is no
 * dynamic_cast or kind switch anywhere above this interface. The bits
 * come from one table, nicKindCaps(). Data moves through post();
 * receivers poll, take per-page notification upcalls, or
 * (batchedNotify adapters) wait on notification-id counters via
 * notifyWait().
 *
 * The base class owns what every adapter shares: the send request
 * queue and the engine process that drains it, the common half of
 * post(), drainSends(), the mesh-packet build of an injection, the
 * receive lane that lands packets in DMA order, and the landing of a
 * deliberate-update packet in memory. An adapter states its issue
 * cost and queue depth, its engine step (transmit()) and how it lands
 * and announces a packet (land()).
 *
 * The base class also owns the link-level reliability protocol used
 * when the mesh fault plane is active (mesh/fault.hh): per-(src,dst)
 * sequence numbers and checksums on every packet, receiver-side
 * duplicate/gap detection, cumulative ACKs, go-back-N NACKs, and a
 * sender retransmit buffer with timeout + exponential backoff. The
 * protocol preserves the in-order delivery invariant VMMC relies on:
 * a receiver hands packets to the NI model strictly in sequence
 * order, exactly once. With the fault plane off, every packet passes
 * straight through with zero protocol state or overhead.
 */

#ifndef SHRIMP_NIC_NIC_BASE_HH
#define SHRIMP_NIC_NIC_BASE_HH

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "mesh/network.hh"
#include "nic/nic_kind.hh"
#include "nic/packet.hh"
#include "nic/page_tables.hh"
#include "node/node.hh"

namespace shrimp
{
class Accumulator;
class Histogram;
class Scalar;
} // namespace shrimp

namespace shrimp::nic
{

/** Tunables of the link-level reliability protocol (fault mode). */
struct ReliabilityParams
{
    /**
     * Floor of the retransmission timeout. Deliberately conservative:
     * lost packets in the middle of a window are recovered fast via
     * NACKs, so the timer only covers losses at the tail of a window,
     * and a short timeout fires spuriously whenever mesh backlog
     * delays an ACK beyond it (costing duplicate traffic, not
     * correctness). Channels with round-trip history adapt upward
     * from this floor: the armed timeout is srtt + 4*rttvar
     * (RFC6298-style) clamped to [rtoBase, rtoMax], so a congested
     * path raises its own timer instead of firing spuriously.
     */
    Tick rtoBase = microseconds(300);

    /** Backoff cap: RTO doubles per fire up to this. */
    Tick rtoMax = microseconds(5000);

    /**
     * Consecutive timeouts without forward progress before the NIC
     * declares the path dead. Bounds simulation time under a
     * permanent outage.
     */
    int rtoGiveUp = 64;

    /**
     * When true (the default), a give-up kills the run with a fatal
     * error. When false, the channel is marked dead instead: its
     * retransmit window is released, later sends to it are dropped,
     * and upper layers observe the death through peerHealth() — the
     * basis of application-level failover experiments.
     */
    bool fatalOnGiveUp = true;

    /** On-wire size of an ACK/NACK packet (header only). */
    std::uint32_t ctrlWireBytes = 16;
};

/**
 * Largest mesh whose NICs publish the per-destination "rel.dst<D>.*"
 * scalar mirror of each reliability channel. Past it the mirror
 * would put O(nodes^2) scalars in every RunReport; channel state
 * itself (and peerHealth()) is unaffected.
 */
inline constexpr int kPerDestStatsMaxNodes = 64;

/**
 * A posted send descriptor: one remote write, as issued by the VMMC
 * library through NicBase::post().
 *
 * Transfers may not cross a page boundary on either side (Sec 4.5.3);
 * the library splits larger sends.
 */
struct SendDesc
{
    const void *src = nullptr;      //!< source in the sender's arena/heap
    OptIndex proxy = kInvalidOpt;   //!< destination mapping (OPT entry)
    std::uint32_t dstOffset = 0;    //!< offset within destination page
    std::uint32_t bytes = 0;        //!< transfer size

    /**
     * Notifiable-write id (batchedNotify adapters): when non-zero the
     * receiving NIC bumps the per-id arrival counter that
     * notifyWait() blocks on. Ignored by adapters without the
     * capability.
     */
    std::uint32_t notifyId = 0;

    bool notify = false;            //!< request a receiver notification

    /**
     * Solicited-event bit (batchedNotify adapters): a notification
     * bypasses interrupt coalescing and drains the completion queue
     * immediately. Ignored elsewhere.
     */
    bool urgent = false;

    bool endOfMessage = true;       //!< last chunk of a library message
};

/** Information handed to the VMMC layer when a packet lands. */
struct Delivery
{
    NodeId srcNode = kInvalidNode;
    node::Frame frame = node::kInvalidFrame;
    std::uint32_t offset = 0;
    std::uint32_t bytes = 0;
    std::uint32_t notifyId = 0; //!< notifiable-write id, 0 = none
    bool endOfMessage = true;
    bool automatic = false;   //!< automatic-update traffic
    bool notify = false;      //!< notification interrupt fired
};

/**
 * Base class for node network interfaces.
 */
class NicBase
{
  public:
    using DeliverHook = std::function<void(const Delivery &)>;
    using PeerDeadHook = std::function<void(NodeId)>;

    /**
     * @param n Owning node (the NIC writes arriving data into its
     *          memory and raises interrupts at its OS).
     * @param net The backplane; the NIC attaches itself as the
     *            receiver for the node.
     * @param kind Which adapter this is; caps() reads its row of the
     *             capability table.
     * @param rel Reliability-protocol tunables (used only in fault
     *            mode).
     */
    NicBase(node::Node &n, mesh::Network &net, NicKind kind,
            const ReliabilityParams &rel = {});

    virtual ~NicBase() = default;

    NicBase(const NicBase &) = delete;
    NicBase &operator=(const NicBase &) = delete;

    /** Node this NIC belongs to. */
    NodeId nodeId() const { return _node.id(); }

    /** Owning node. */
    node::Node &owner() { return _node; }

    /** What this adapter can do; upper layers branch on these bits. */
    NicCaps caps() const { return nicKindCaps(_kind); }

    /** Convenience capability read. */
    bool supportsAutomaticUpdate() const { return caps().autoUpdate; }

    // ------------------------------------------------------------------
    // Peer health (ROADMAP: in-run stall/death surfacing)
    // ------------------------------------------------------------------

    /**
     * Read-only snapshot of one sender-side reliability channel, so
     * upper layers (sockets/NX, via Cluster::peerHealth) can observe
     * a stalled or dead destination without scraping the
     * "<node>.rel.dst<D>.*" scalars the same fields are mirrored as.
     */
    struct PeerHealth
    {
        std::uint64_t outstanding = 0; //!< unacked packets in flight
        Tick srtt = 0;            //!< smoothed ACK round-trip, 0 = none
        Tick rttvar = 0;          //!< round-trip variation estimate
        Tick lastRtoFire = kTickNever; //!< time of the last timeout
        int rtoStreak = 0;        //!< consecutive fires, no progress
        bool gaveUp = false;      //!< path declared dead
    };

    /** Channel state toward @p dst (all-zero if never used). */
    PeerHealth peerHealth(NodeId dst) const;

    /** Total unacked packets across channels (rel.retx_backlog gauge). */
    std::size_t retransmitBacklog() const;

    /**
     * Hook invoked (event context) when a channel gives up with
     * fatalOnGiveUp off, so blocked processes can re-check their
     * peer's health instead of sleeping forever.
     */
    void setPeerDeadHook(PeerDeadHook h) { peerDeadHook = std::move(h); }

    // ------------------------------------------------------------------
    // Mapping setup (driven by the VMMC system layer)
    // ------------------------------------------------------------------

    /**
     * Allocate OPT entries for an imported (proxy) buffer of @p pages
     * pages starting at @p first_frame on @p dst_node. @return the
     * first of @p pages consecutive indices, one per page.
     */
    OptIndex
    importPage(NodeId dst_node, node::Frame first_frame, std::size_t pages)
    {
        return _opt.allocate(dst_node, first_frame, pages);
    }

    /**
     * Tear down the proxy mapping that owns entry @p idx, all of its
     * pages; later transfers through any of them fault.
     */
    void invalidateProxy(OptIndex idx) { _opt.invalidate(idx); }

    /** Receiver-side interrupt enable bit for an exported page. */
    void
    setInterruptEnable(node::Frame frame, bool enable)
    {
        _ipt.setInterruptEnable(frame, enable);
    }

    /**
     * Bind local physical page @p local for automatic update to
     * (@p dst_node, @p dst_frame). Only on adapters with
     * caps().autoUpdate.
     */
    virtual void
    bindAu(node::Frame local, NodeId dst_node, node::Frame dst_frame,
           bool combining, bool interrupt_request);

    /** Remove an AU binding. */
    virtual void unbindAu(node::Frame local);

    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------

    /**
     * Post a send. Process context; charges the adapter's issue cost,
     * then blocks while its request queue is full. Returns once the
     * request is accepted (sends are asynchronous). On doorbell
     * adapters acceptance is a cheap user-level MMIO write; elsewhere
     * it carries the adapter's per-send initiation cost.
     */
    void post(const SendDesc &desc);

    /**
     * A write to AU-bound memory, as snooped off the memory bus.
     * @p src must point into the node's arena. Process context.
     */
    virtual void auStore(const void *src, std::uint32_t bytes);

    /**
     * Flush any open AU packet trains (called at NI-visible ordering
     * points: blocking operations, synchronization, explicit flush).
     */
    virtual void auFlush();

    /**
     * Flush AU trains and block until every automatic update this
     * node issued has been applied at its destination. Used by SVM
     * release operations (AURC/HLRC-AU correctness).
     */
    virtual void auFence();

    /** Block until all posted sends have left the adapter. */
    void drainSends();

    // ------------------------------------------------------------------
    // Receive side
    // ------------------------------------------------------------------

    /**
     * Hook invoked (event context) when data lands in memory, and
     * again for a notification the adapter delivers later (a
     * completion-queue event); Delivery::notify marks notifications.
     */
    void setDeliverHook(DeliverHook h) { deliverHook = std::move(h); }

    /**
     * Arrival count of notifiable writes carrying @p id (0 if none
     * ever landed). Only on adapters with caps().batchedNotify.
     */
    virtual std::uint64_t notifyCount(std::uint32_t id) const;

    /**
     * Block until notifyCount(@p id) >= @p target: a user-level
     * completion-queue wait, no interrupt involved. Process context.
     * Only on adapters with caps().batchedNotify.
     */
    virtual void notifyWait(std::uint32_t id, std::uint64_t target);

  protected:
    /** Host cost of issuing one send, charged before the queue wait. */
    virtual Tick issueCost() const = 0;

    /** Requests the queue holds, counting the one in service. */
    virtual int queueDepth() const = 0;

    /**
     * Spawn the send engine as service process @p name; it hands
     * each queued request to transmit(). post() counts every accepted
     * request in counter @p sends and its bytes in counter @p bytes.
     * Each adapter calls this once, from its constructor.
     */
    void startEngine(const std::string &name, const std::string &sends,
                     const std::string &bytes);

    /**
     * The engine step: move @p pkt out to node @p dst. Runs in the
     * engine process, which may block in it; the next request starts
     * when it returns.
     */
    virtual void transmit(DuPacket &&pkt, NodeId dst) = 0;

    /**
     * Build the mesh packet that carries @p payload to @p dst as
     * @p wire bytes in @p hw_packets hardware packets, stamp its
     * injection time, and send it (netSend).
     */
    void inject(std::shared_ptr<NicPayload> payload, NodeId dst,
                std::uint32_t wire, std::uint32_t hw_packets = 1);

    /**
     * Land @p payload, whose receive DMA has just completed: write it
     * into memory and announce it. Event context.
     */
    virtual void land(const NicPayload &payload) = 0;

    /**
     * Write an arrived deliberate-update packet into node memory.
     * @return its Delivery, with notify still unset.
     */
    Delivery landDu(const DuPacket &du);

    /**
     * Inject @p pkt into the backplane. With reliability on, stamps
     * the per-destination sequence number and checksum, keeps a copy
     * in the retransmit buffer and arms the retransmission timer;
     * with it off, forwards straight to the mesh. Sends to a dead
     * (gaveUp) channel are dropped.
     */
    void netSend(mesh::Packet pkt);

    /**
     * Implementation delivery point: a verified, in-order data packet
     * (the only kind the subclass ever sees). Event context.
     */
    virtual void receive(const mesh::Packet &pkt) = 0;

    node::Node &_node;
    Simulation &sim;
    mesh::Network &_net;
    OutgoingPageTable _opt;
    IncomingPageTable _ipt;
    DeliverHook deliverHook;
    PeerDeadHook peerDeadHook;

    /**
     * Receive completions: an adapter pushes each packet at the tick
     * its receive DMA completes, and the lane lands it (land()) then.
     * An adapter runs its receive DMAs one after another, so those
     * ticks never move back.
     */
    Lane<std::shared_ptr<NicPayload>> receives;

  private:
    /** The send engine process: drains the request queue. */
    void engineBody();

    /** Land @p payload, prefetching the landing queued behind it. */
    void complete(const NicPayload &payload);

    NicKind _kind;

    // Send request queue, drained by the engine process.
    std::deque<DuPacket> sendQueue;
    std::deque<NodeId> sendQueueDst;
    WaitQueue slotWait;
    WaitQueue workWait;
    WaitQueue idleWait;
    bool engineBusy = false;
    CounterHandle stSends;
    CounterHandle stSendBytes;

    /** Sender-side per-destination reliability state. */
    struct RelChannel
    {
        std::uint64_t nextSeq = 1;      //!< next sequence to assign

        /**
         * Retransmit buffer, seq order. Slots are drawn from the
         * network's PacketPool at send and released on cumulative
         * ACK/NACK progress, so buffering a packet costs a pool pop
         * instead of a heap-backed deque copy.
         */
        std::deque<mesh::Packet *> unacked;
        std::deque<Tick> sentAt;        //!< first-send time, parallel
        EventHandle rto;                //!< pending timeout, if any
        Tick rtoNow = 0;                //!< current backoff value
        int rtoStreak = 0;              //!< consecutive fires, no progress

        // Round-trip estimators (adaptive RTO) + observability.
        Tick srtt = 0;             //!< smoothed ACK round-trip
        Tick rttvar = 0;           //!< round-trip variation (RFC6298)
        Tick lastRtoFire = kTickNever; //!< last timeout fire time
        bool gaveUp = false;       //!< give-up reached
        std::uint64_t retxMaxSeq = 0; //!< highest seq ever resent
        Scalar *stOutstanding = nullptr; //!< ".outstanding" gauge
        Scalar *stSrttUs = nullptr;      //!< ".srtt_us" gauge
        Scalar *stRttvarUs = nullptr;    //!< ".rttvar_us" gauge
        Scalar *stLastRtoUs = nullptr;   //!< ".last_rto_fire_us"
        Scalar *stGaveUp = nullptr;      //!< ".gave_up" flag
        Accumulator *accRttUs = nullptr; //!< ".ack_rtt_us" samples
    };

    /** Receiver-side per-source reliability state. */
    struct RelReceiver
    {
        std::uint64_t expected = 1; //!< next in-order sequence
        std::uint64_t nackedAt = 0; //!< expected value already NACKed
    };

    /** Mesh delivery entry point: filters the reliability protocol. */
    void linkReceive(const mesh::Packet &pkt);

    /**
     * The channel toward @p dst, created (and its observability
     * gauges bound into the StatsRegistry) on first use.
     */
    RelChannel &channelFor(NodeId dst);

    /** Record one ACK round-trip sample for @p ch (Karn-filtered). */
    void sampleRtt(RelChannel &ch, Tick rtt);

    /**
     * The adaptive timeout for @p ch: srtt + 4*rttvar clamped to
     * [rtoBase, rtoMax], or plain rtoBase before any round-trip
     * sample exists. Exponential backoff in rtoFire still doubles
     * from whatever this returns.
     */
    Tick rtoFor(const RelChannel &ch) const;

    void handleAck(const mesh::Packet &pkt);
    void handleNack(const mesh::Packet &pkt);
    void sendCtrl(NodeId dst, mesh::PacketKind kind, std::uint64_t seq);
    void sendNackOnce(RelReceiver &rx, NodeId src);
    void armRto(RelChannel &ch, NodeId dst);
    void rtoFire(NodeId dst);
    void retransmit(RelChannel &ch, NodeId dst);

    bool _reliable = false;
    ReliabilityParams _rel;
    std::unordered_map<NodeId, RelChannel> channels;
    std::unordered_map<NodeId, RelReceiver> rxStreams;

    // Interned protocol counters (lazy; see sim/stats.hh).
    CounterHandle stCorruptRx;
    CounterHandle stDupRx;
    CounterHandle stRetransmits;
    CounterHandle stRtoFires;
    CounterHandle stAcks;
    CounterHandle stNacks;

    /** Node-wide ACK round-trip histogram ("<node>.rel.ack_rtt_us"). */
    Histogram *rttHist = nullptr;
};

} // namespace shrimp::nic

#endif // SHRIMP_NIC_NIC_BASE_HH

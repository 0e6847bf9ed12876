/**
 * @file
 * The SHRIMP network interface (Fig. 2 of the paper).
 *
 * Send side: a user-level-initiated deliberate-update DMA engine with
 * a configurable request queue, and an automatic-update path that
 * snoops memory-bus writes, optionally combines consecutive stores,
 * and buffers packets in an outgoing FIFO with threshold-interrupt
 * flow control. Receive side: an incoming DMA engine indexed by the
 * incoming page table, with optional notification interrupts.
 *
 * Model note: between two NI-visible ordering points, AU stores to the
 * same destination page are carried in one AuTrainPacket whose timing
 * charges the wire bytes and per-packet receiver costs of the packets
 * the real hardware would have emitted (see DESIGN.md).
 */

#ifndef SHRIMP_NIC_SHRIMP_NIC_HH
#define SHRIMP_NIC_SHRIMP_NIC_HH

#include <vector>

#include "nic/nic_base.hh"
#include "sim/simulation.hh"

namespace shrimp::nic
{

/** Tunables of the SHRIMP network interface. */
struct ShrimpNicParams
{
    /**
     * Send overhead of the two-instruction UDMA initiation sequence
     * plus library checks; the paper reports < 2 us (Sec 4.3).
     */
    Tick udmaIssueCost = microseconds(1.4);

    /** Engine per-request processing before the DMA read starts. */
    Tick duSetupCost = nanoseconds(1700);

    /**
     * Deliberate-update request queue depth. 1 models the prototype
     * (the library waits for an idle engine); 2 models the queueing
     * experiment of Sec 4.5.3.
     */
    int duQueueDepth = 1;

    /** Snoop + packetize latency for automatic update. */
    Tick auSnoopLatency = nanoseconds(1600);

    /** Sub-page combining boundary (Sec 4.5.1). */
    std::uint32_t combineMaxBytes = 256;

    /** Outgoing FIFO capacity; the prototype shipped 32 Kbytes. */
    std::uint32_t outFifoBytes = 32 * 1024;

    /** FIFO fill fraction that raises the threshold interrupt. */
    double fifoThresholdFraction = 0.75;

    /** FIFO fill fraction at which stalled AU processes resume. */
    double fifoResumeFraction = 0.25;

    /** Cost of the FIFO threshold interrupt + de-scheduling work. */
    Tick fifoInterruptCost = microseconds(12.0);

    /** Receiver processing + DMA setup per arriving packet. */
    Tick incomingPacketCost = nanoseconds(1200);

    /**
     * What-if knob (Table 4): force an interrupt on every arriving
     * message, with a null kernel handler.
     */
    bool interruptPerMessage = false;

    /** What-if knob (Sec 4.5.1): disable AU combining globally. */
    bool combiningEnabled = true;
};

/**
 * The SHRIMP NI, one per node.
 */
class ShrimpNic : public NicBase
{
  public:
    /**
     * @param n Owning node.
     * @param net The backplane; the NIC attaches itself as the
     *            receiver for the node.
     * @param params NIC tunables.
     * @param rel Reliability-protocol tunables.
     */
    ShrimpNic(node::Node &n, mesh::Network &net,
              const ShrimpNicParams &params = ShrimpNicParams(),
              const ReliabilityParams &rel = {});

    void bindAu(node::Frame local, NodeId dst_node, node::Frame dst_frame,
                bool combining, bool interrupt_request) override;

    void unbindAu(node::Frame local) override;

    void auStore(const void *src, std::uint32_t bytes) override;

    void auFlush() override;

    void auFence() override;

    /** Current outgoing-FIFO fill, bytes. */
    std::uint32_t fifoFill() const { return _fifoFill; }

    /** Parameters (mutable so experiments can flip what-if knobs). */
    ShrimpNicParams &params() { return _params; }

  private:
    /**
     * One open AU packet train: the packet it becomes, stamped at its
     * first snooped store, and the combining state that shapes it.
     * The packet moves out whole at flush, leaving its records empty.
     */
    struct AuTrain
    {
        node::Frame localFrame = node::kInvalidFrame; //!< snooped page
        NodeId dstNode = kInvalidNode;
        std::uint32_t openPacketBytes = 0;  //!< bytes in current packet
        std::uint32_t lastEnd = ~0u;        //!< end offset of last store
        bool combining = false;
        AuTrainPacket pkt;
    };

    /**
     * A packet due out of the NI chip: a DU packet, or an AU train and
     * the outgoing-FIFO bytes it frees as it leaves.
     */
    struct Injection
    {
        std::shared_ptr<NicPayload> payload;
        NodeId dst = kInvalidNode;
        std::uint32_t wire = 0;        //!< bytes on the wire
        std::uint32_t hwPackets = 1;   //!< hardware packets represented
        std::uint32_t fifoBytes = 0;   //!< outgoing-FIFO credit (AU)
    };

    Tick issueCost() const override { return _params.udmaIssueCost; }
    int queueDepth() const override { return _params.duQueueDepth; }
    void transmit(DuPacket &&pkt, NodeId dst) override;
    void flushTrain(AuTrain &train);
    /** Inject @p i, the NI chip's next packet. */
    void injectNext(Injection &i);
    /** One of this NI's trains has landed (called by the lander). */
    void trainLanded();
    void fifoCredit(std::uint32_t wire_bytes);
    void receive(const mesh::Packet &pkt) override;
    void land(const NicPayload &payload) override;
    void finishDelivery(const Delivery &d, bool want_notify);

    ShrimpNicParams _params;
    std::string statPrefix;

    // The open FIFO stall: when the threshold interrupt fired and the
    // causal context of the store that crossed it.
    Tick fifoStallStart = 0;
    causal::CauseCtx fifoStallCause;

    // Interned per-NIC statistics (lazy; see sim/stats.hh).
    CounterHandle stEisaBusyPs;
    CounterHandle stAuStores;
    CounterHandle stAuBytes;
    CounterHandle stAuPackets;
    CounterHandle stAuWireBytes;
    CounterHandle stFifoThresholdIrqs;
    CounterHandle stPacketsIn;
    CounterHandle stBytesIn;

    // Automatic update. Trains flush in first-write order so that
    // multi-page write sequences arrive in program order. trainIndex
    // maps a local frame to its open train's slot in trainOrder
    // (kNoTrain: none); like the OPT's AU entries it is sized to the
    // highest frame bound so far, and a flushed train clears its slot.
    static constexpr std::uint32_t kNoTrain = ~std::uint32_t(0);
    std::vector<std::uint32_t> trainIndex;
    std::vector<AuTrain> trainOrder;
    /**
     * Page of the most recent AU store: combining merges only stores
     * that are consecutive both in address *and in time*, so a store
     * to a different page closes the open packet (Sec 4.5.1 — this
     * is why the temporally interleaved radix writes defeat
     * combining).
     */
    node::Frame lastAuFrame = node::kInvalidFrame;

    // Outgoing FIFO flow control.
    std::uint32_t _fifoFill = 0;
    bool fifoStalled = false;
    WaitQueue fifoWait;

    // AU fence support: trains injected but not yet applied remotely.
    std::uint64_t auInFlight = 0;
    WaitQueue auFenceWait;

    // Shared NI-chip injection/arbitration timeline, and the packets
    // it injects, each due at the chipBusyUntil its push set.
    Tick chipBusyUntil = 0;
    Lane<Injection> injections;

    // EISA DMA timeline shared by DU reads and incoming writes.
    Tick eisaBusyUntil = 0;
};

} // namespace shrimp::nic

#endif // SHRIMP_NIC_SHRIMP_NIC_HH

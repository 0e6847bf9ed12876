/**
 * @file
 * A Myrinet-style baseline network interface (Sec 4.1).
 *
 * The adapter sits on the I/O bus and is driven by firmware on an
 * embedded processor: the host posts a send descriptor (doorbell),
 * firmware validates it, programs a DMA read of the data, and pushes
 * the packet onto the link; receive is the mirror image. There is no
 * memory-bus snooping, hence no automatic update. Parameter defaults
 * target the ~10 us small-message latency the paper reports for its
 * optimized VMMC firmware on Myrinet/PCI Pentiums.
 */

#ifndef SHRIMP_NIC_BASELINE_NIC_HH
#define SHRIMP_NIC_BASELINE_NIC_HH

#include <string>

#include "nic/nic_base.hh"
#include "sim/simulation.hh"

namespace shrimp::nic
{

/** Tunables of the baseline (Myrinet-like) adapter. */
struct BaselineNicParams
{
    /** Host cost to build + post a send descriptor over the I/O bus. */
    Tick doorbellCost = microseconds(1.2);

    /** Adapter processing per send (firmware: validate, program DMA). */
    Tick sendCost = microseconds(3.6);

    /** Adapter processing per arriving packet before its DMA. */
    Tick recvCost = microseconds(3.4);

    /** Host I/O-bus DMA bandwidth (PCI-class). */
    double dmaBytesPerSec = 90.0e6;

    /** DMA setup per burst. */
    Tick dmaSetup = nanoseconds(400);

    /** Descriptor queue depth in adapter memory. */
    int sendQueueDepth = 32;
};

/**
 * The baseline adapter.
 */
class BaselineNic : public NicBase
{
  public:
    /**
     * @param n Owning node.
     * @param net The backplane.
     * @param params Adapter tunables.
     */
    BaselineNic(node::Node &n, mesh::Network &net,
                const BaselineNicParams &params = BaselineNicParams());

    /** Parameters access. */
    const BaselineNicParams &params() const { return _params; }

  protected:
    /**
     * A derived adapter with the same send and receive path: @p kind
     * names its capabilities, @p name its stat prefix (after the node
     * name) and @p engine its send engine process.
     */
    BaselineNic(node::Node &n, mesh::Network &net, NicKind kind,
                const std::string &name, const char *engine,
                const BaselineNicParams &params);

    /**
     * Announce a packet that has landed as @p d: set the notification
     * bit from the sender's bit and the page's interrupt enable, and
     * call the deliver hook. Event context.
     */
    virtual void announce(const DuPacket &du, Delivery d);

  private:
    Tick issueCost() const override { return _params.doorbellCost; }
    int queueDepth() const override { return _params.sendQueueDepth; }
    void transmit(DuPacket &&pkt, NodeId dst) override;
    void receive(const mesh::Packet &pkt) override;
    void land(const NicPayload &payload) override;

    BaselineNicParams _params;

    // Interned per-NIC statistics (lazy; see sim/stats.hh).
    CounterHandle stPacketsIn;
    CounterHandle stBytesIn;

    Tick recvBusyUntil = 0;
};

} // namespace shrimp::nic

#endif // SHRIMP_NIC_BASELINE_NIC_HH

/**
 * @file
 * A modern RDMA-style network interface: the third design point the
 * Table-1 suite is re-litigated against (ROADMAP; modeled after the
 * UNR/RAMC notifiable-RMA primitives in PAPERS.md).
 *
 * It is the baseline adapter with other costs plus a completion
 * queue. Send side: the host posts a work-queue entry with a single
 * user-level doorbell write (hundreds of nanoseconds, not the
 * microsecond-class UDMA issue or firmware descriptor cost of the
 * other adapters) into a deep send queue the NIC drains
 * asynchronously. Receive side: arriving writes land straight in
 * memory (pollers see them immediately); notifications are not
 * per-packet interrupts but completion-queue events with interrupt
 * coalescing — the host is interrupted when the CQ reaches a
 * threshold, when a coalescing timer expires, or immediately for
 * urgent (solicited) packets. Orthogonally, a write may carry a
 * notification id: the NIC bumps a per-id arrival counter the
 * receiver can wait on at user level with no interrupt at all
 * (UNR-style notifiable remote writes).
 *
 * There is no memory-bus snooping, hence no automatic update: the
 * claim this adapter exists to test is that cheap posting plus
 * batched notification recovers AU's benefits without custom
 * snooping hardware.
 */

#ifndef SHRIMP_NIC_MODERN_NIC_HH
#define SHRIMP_NIC_MODERN_NIC_HH

#include <unordered_map>
#include <vector>

#include "nic/baseline_nic.hh"

namespace shrimp::nic
{

/**
 * Tunables of the modern (RDMA-style) adapter: the baseline's, with
 * PCIe-era defaults, plus the completion queue's.
 */
struct ModernNicParams : BaselineNicParams
{
    ModernNicParams()
    {
        // Queue entry + doorbell write; a deep send work queue.
        doorbellCost = nanoseconds(300);
        sendQueueDepth = 256;
        // NIC processing per work-queue entry (translate, validate)
        // and per arriving packet.
        sendCost = nanoseconds(500);
        recvCost = nanoseconds(500);
        // Host-memory DMA (PCIe-class for the era contrast).
        dmaBytesPerSec = 400.0e6;
        dmaSetup = nanoseconds(200);
    }

    /** CQ depth that triggers a coalesced notification interrupt. */
    int cqThreshold = 8;

    /** Coalescing timer: max latency a queued CQ entry may sit. */
    Tick cqTimeout = microseconds(20);

    /** Cost of one CQ interrupt + event dispatch, however many CQEs. */
    Tick cqInterruptCost = microseconds(8);
};

/**
 * The modern adapter.
 */
class ModernNic : public BaselineNic
{
  public:
    /**
     * @param n Owning node.
     * @param net The backplane.
     * @param params Adapter tunables.
     */
    ModernNic(node::Node &n, mesh::Network &net,
              const ModernNicParams &params = ModernNicParams());

    std::uint64_t notifyCount(std::uint32_t id) const override;

    void notifyWait(std::uint32_t id, std::uint64_t target) override;

    /** Completion-queue entries currently coalescing (gauge). */
    std::size_t cqDepth() const { return cq.size(); }

    /** Parameters access. */
    const ModernNicParams &params() const { return _params; }

  private:
    /** Arrival counter + waiters of one notification id. */
    struct NotifyState
    {
        std::uint64_t count = 0;
        WaitQueue waiters;
    };

    /**
     * Bump the packet's notifiable-write counter, deliver at once,
     * and queue a notification as a coalesced CQ event.
     */
    void announce(const DuPacket &du, Delivery d) override;
    void drainCq();

    /**
     * The completion queue reads its fields here; the send and
     * receive path read BaselineNic's copy of the baseline fields.
     * Neither copy changes after construction.
     */
    ModernNicParams _params;

    // Interned per-NIC statistics (lazy; see sim/stats.hh).
    CounterHandle stCqInterrupts;
    CounterHandle stCqEvents;
    CounterHandle stNotifyWrites;

    // Completion queue (deliveries awaiting the coalesced interrupt).
    std::vector<Delivery> cq;
    EventHandle cqTimer;

    // Notifiable-write counters, by id.
    std::unordered_map<std::uint32_t, NotifyState> notifyStates;
};

} // namespace shrimp::nic

#endif // SHRIMP_NIC_MODERN_NIC_HH

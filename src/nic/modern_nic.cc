#include "nic/modern_nic.hh"

#include <algorithm>

namespace shrimp::nic
{

ModernNic::ModernNic(node::Node &n, mesh::Network &net,
                     const ModernNicParams &params)
    : BaselineNic(n, net, NicKind::Modern, "mnic", "sq_engine", params),
      _params(params),
      stCqInterrupts(sim.stats(), n.name() + ".mnic.cq_interrupts"),
      stCqEvents(sim.stats(), n.name() + ".mnic.cq_events"),
      stNotifyWrites(sim.stats(), n.name() + ".mnic.notify_writes")
{
}

std::uint64_t
ModernNic::notifyCount(std::uint32_t id) const
{
    auto it = notifyStates.find(id);
    return it == notifyStates.end() ? 0 : it->second.count;
}

void
ModernNic::notifyWait(std::uint32_t id, std::uint64_t target)
{
    // A user-level CQ read loop: pending local work must complete
    // before blocking, but no interrupt or syscall is involved.
    _node.cpu().sync();
    NotifyState &ns = notifyStates[id];
    while (ns.count < target)
        ns.waiters.wait(sim);
}

void
ModernNic::drainCq()
{
    cqTimer.cancel();
    if (cq.empty())
        return;
    std::vector<Delivery> batch;
    batch.swap(cq);
    stCqInterrupts.inc();
    stCqEvents.inc(batch.size());

    // One interrupt covers the whole batch; the handler dispatches
    // every queued completion event when it runs.
    Tick handler_done = _node.os().interrupt(_params.cqInterruptCost);
    sim.schedule(handler_done - sim.now(),
                 [this, batch = std::move(batch)] {
        if (deliverHook)
            for (const Delivery &d : batch)
                deliverHook(d);
    });
}

void
ModernNic::announce(const DuPacket &du, Delivery d)
{
    // Notifiable write: bump the id's arrival counter and wake
    // user-level waiters right away — no interrupt.
    if (du.notifyId) {
        NotifyState &ns = notifyStates[du.notifyId];
        ++ns.count;
        stNotifyWrites.inc();
        ns.waiters.wakeAll(sim);
    }

    // Data is in memory now: pollers must see it immediately.
    if (deliverHook)
        deliverHook(d);

    // Interrupt-style notification goes through the CQ and is
    // coalesced: interrupt on threshold, timeout, or solicited
    // (urgent) events.
    if (du.notify && _ipt.interruptEnable(du.dstFrame)) {
        d.notify = true;
        cq.push_back(d);
        if (int(cq.size()) >= std::max(1, _params.cqThreshold) ||
            du.urgent)
            drainCq();
        else if (cq.size() == 1)
            cqTimer = sim.scheduleCancellable(_params.cqTimeout,
                                              [this] { drainCq(); });
    }
}

} // namespace shrimp::nic

#include "nic/modern_nic.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace shrimp::nic
{

ModernNic::ModernNic(node::Node &n, mesh::Network &net,
                     const ModernNicParams &params, const Config &cfg)
    : NicBase(n, net, cfg), sim(n.simulation()), _params(params),
      statPrefix(n.name() + ".mnic"),
      stSends(sim.stats(), statPrefix + ".sends"),
      stSendBytes(sim.stats(), statPrefix + ".send_bytes"),
      stPacketsIn(sim.stats(), statPrefix + ".packets_in"),
      stBytesIn(sim.stats(), statPrefix + ".bytes_in"),
      stCqInterrupts(sim.stats(), statPrefix + ".cq_interrupts"),
      stCqEvents(sim.stats(), statPrefix + ".cq_events"),
      stNotifyWrites(sim.stats(), statPrefix + ".notify_writes")
{
    sim.spawn(statPrefix + ".sq_engine", [this] { engineBody(); });
}

void
ModernNic::post(const SendDesc &req)
{
    auto &cpu = _node.cpu();
    const OptEntry entry = _opt.proxy(req.proxy);

    if (req.dstOffset + req.bytes > node::kPageBytes)
        panic("transfer crosses destination page boundary");
    if (req.bytes == 0 || req.bytes > node::kPageBytes)
        panic("posted send size %u invalid", req.bytes);

    PacketLife life = sim.recorder().sendStamp();

    // The whole host-side cost of a send: build the WQE and ring the
    // doorbell with one user-level MMIO write.
    cpu.compute(_params.doorbellCost);
    cpu.sync();

    while (int(sendQueue.size()) + (engineBusy ? 1 : 0) >=
           std::max(1, _params.sendQueueDepth))
        slotWait.wait(sim);

    DuPacket pkt;
    pkt.srcNode = nodeId();
    pkt.dstFrame = entry.dstFrame;
    pkt.dstOffset = req.dstOffset;
    pkt.data.resize(req.bytes);
    std::memcpy(pkt.data.data(), req.src, req.bytes);
    pkt.notify = req.notify;
    pkt.notifyId = req.notifyId;
    pkt.urgent = req.urgent;
    pkt.endOfMessage = req.endOfMessage;
    pkt.life = life;
    pkt.life.queued = sim.now(); // after any queue-full wait

    sendQueue.push_back(std::move(pkt));
    sendQueueDst.push_back(entry.dstNode);
    stSends.inc();
    stSendBytes.inc(req.bytes);
    workWait.wakeAll(sim);
}

void
ModernNic::engineBody()
{
    double link_bw = _net.params().linkBytesPerSec;

    for (;;) {
        while (sendQueue.empty())
            workWait.wait(sim);

        engineBusy = true;
        DuPacket pkt = std::move(sendQueue.front());
        sendQueue.pop_front();
        NodeId dst = sendQueueDst.front();
        sendQueueDst.pop_front();
        slotWait.wakeAll(sim);

        // The NIC walks the WQE and DMAs the payload from host memory.
        std::uint64_t bytes = pkt.data.size();
        sim.delay(_params.wqeProcessCost + _params.dmaSetup +
                  transferTime(bytes, _params.dmaBytesPerSec));
        _node.bus().reserve(
            transferTime(bytes, _node.params().memBusBytesPerSec));

        std::uint32_t wire = std::uint32_t(bytes) + kPacketHeaderBytes;
        sim.delay(transferTime(wire, link_bw));

        mesh::Packet mp;
        mp.src = nodeId();
        mp.dst = dst;
        mp.wireBytes = wire;
        mp.life = pkt.life;
        mp.life.injected = sim.now();
        auto payload = std::make_shared<NicPayload>();
        payload->body = std::move(pkt);
        mp.payload = std::move(payload);
        netSend(std::move(mp));

        engineBusy = false;
        slotWait.wakeAll(sim);
        if (sendQueue.empty())
            idleWait.wakeAll(sim);
    }
}

void
ModernNic::drainSends()
{
    _node.cpu().sync();
    while (!sendQueue.empty() || engineBusy)
        idleWait.wait(sim);
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
        for (const Delivery &d : batch) {
            if (notifyHook)
                notifyHook(d.frame);
            if (deliverHook)
                deliverHook(d);
        }
    });
}

void
ModernNic::receive(const mesh::Packet &pkt)
{
    auto payload = std::static_pointer_cast<NicPayload>(pkt.payload);
    auto *du = std::get_if<DuPacket>(&payload->body);
    if (!du)
        panic("modern NIC received an automatic-update packet");

    std::uint64_t bytes = du->data.size();
    Tick start = std::max(sim.now(), recvBusyUntil);
    Tick done = start + _params.recvPacketCost + _params.dmaSetup +
                transferTime(bytes, _params.dmaBytesPerSec);
    recvBusyUntil = done;
    _node.bus().reserve(
        transferTime(bytes, _node.params().memBusBytesPerSec));

    stPacketsIn.inc();
    stBytesIn.inc(bytes);
    sim.recorder().packetDelivered(pkt.life, int(nodeId()), start, done);

    sim.schedule(done - sim.now(), [this, payload] {
        causal::EventCtxScope cctx(
            sim.recorder(), std::get<DuPacket>(payload->body).life.cause);
        auto &mem = _node.mem();
        auto &du2 = std::get<DuPacket>(payload->body);
        if (du2.dstFrame >= mem.frameCount())
            panic("packet to invalid frame %u", du2.dstFrame);
        std::memcpy(
            static_cast<char *>(mem.ptrOf(du2.dstFrame, du2.dstOffset)),
            du2.data.data(), du2.data.size());

        Delivery d;
        d.srcNode = du2.srcNode;
        d.frame = du2.dstFrame;
        d.offset = du2.dstOffset;
        d.bytes = std::uint32_t(du2.data.size());
        d.endOfMessage = du2.endOfMessage;
        d.automatic = false;
        d.notifyId = du2.notifyId;
        d.notify = false;

        // Notifiable write: bump the id's arrival counter and wake
        // user-level waiters right away — no interrupt.
        if (du2.notifyId) {
            NotifyState &ns = notifyStates[du2.notifyId];
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
        if (du2.notify && _ipt.interruptEnable(du2.dstFrame)) {
            Delivery ev = d;
            ev.notify = true;
            cq.push_back(ev);
            if (int(cq.size()) >= std::max(1, _params.cqThreshold) ||
                du2.urgent)
                drainCq();
            else if (cq.size() == 1)
                cqTimer = sim.scheduleCancellable(
                    _params.cqTimeout, [this] { drainCq(); });
        }
    });
}

} // namespace shrimp::nic

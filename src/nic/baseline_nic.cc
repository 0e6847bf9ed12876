#include "nic/baseline_nic.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace shrimp::nic
{

BaselineNic::BaselineNic(node::Node &n, mesh::Network &net,
                         const BaselineNicParams &params,
                         const Config &cfg)
    : NicBase(n, net, cfg), sim(n.simulation()), _params(params),
      statPrefix(n.name() + ".bnic"),
      stSends(sim.stats(), statPrefix + ".sends"),
      stSendBytes(sim.stats(), statPrefix + ".send_bytes"),
      stPacketsIn(sim.stats(), statPrefix + ".packets_in"),
      stBytesIn(sim.stats(), statPrefix + ".bytes_in")
{
    sim.spawn(statPrefix + ".fw_engine", [this] { engineBody(); });
}

void
BaselineNic::post(const SendDesc &req)
{
    auto &cpu = _node.cpu();
    const OptEntry entry = _opt.proxy(req.proxy);

    if (req.dstOffset + req.bytes > node::kPageBytes)
        panic("transfer crosses destination page boundary");

    PacketLife life = sim.recorder().sendStamp();

    // Host builds a descriptor and rings the doorbell over the I/O bus.
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
BaselineNic::engineBody()
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

        // Firmware validates the descriptor and DMAs the data from
        // host memory into adapter SRAM.
        std::uint64_t bytes = pkt.data.size();
        sim.delay(_params.firmwareSendCost + _params.dmaSetup +
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
BaselineNic::drainSends()
{
    _node.cpu().sync();
    while (!sendQueue.empty() || engineBusy)
        idleWait.wait(sim);
}

void
BaselineNic::receive(const mesh::Packet &pkt)
{
    auto payload = std::static_pointer_cast<NicPayload>(pkt.payload);
    auto *du = std::get_if<DuPacket>(&payload->body);
    if (!du)
        panic("baseline NIC received an automatic-update packet");

    std::uint64_t bytes = du->data.size();
    Tick start = std::max(sim.now(), recvBusyUntil);
    Tick done = start + _params.firmwareRecvCost + _params.dmaSetup +
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

        d.notify = du2.notify &&
                   _ipt.interruptEnable(du2.dstFrame);
        if (d.notify && notifyHook)
            notifyHook(d.frame);
        if (deliverHook)
            deliverHook(d);
    });
}

} // namespace shrimp::nic

#include "nic/shrimp_nic.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace shrimp::nic
{

namespace
{

/** AU packets carry one store each; Pentium stores are <= 8 bytes. */
constexpr std::uint32_t kAuStoreBytes = 8;

/** Hardware packets needed for @p bytes of uncombined AU data. */
std::uint32_t
auStorePackets(std::uint32_t bytes)
{
    return (bytes + kAuStoreBytes - 1) / kAuStoreBytes;
}

} // anonymous namespace

ShrimpNic::ShrimpNic(node::Node &n, mesh::Network &net,
                     const ShrimpNicParams &params)
    : NicBase(n, net, NicKind::Shrimp), _params(params),
      statPrefix(n.name() + ".nic"),
      stEisaBusyPs(sim.stats(), statPrefix + ".eisa_busy_ps"),
      stAuStores(sim.stats(), statPrefix + ".au_stores"),
      stAuBytes(sim.stats(), statPrefix + ".au_bytes"),
      stAuPackets(sim.stats(), statPrefix + ".au_packets"),
      stAuWireBytes(sim.stats(), statPrefix + ".au_wire_bytes"),
      stFifoThresholdIrqs(sim.stats(),
                          statPrefix + ".fifo_threshold_irqs"),
      stPacketsIn(sim.stats(), statPrefix + ".packets_in"),
      stBytesIn(sim.stats(), statPrefix + ".bytes_in"),
      injections(sim.events(), [this](Injection &i) { injectNext(i); })
{
    startEngine(statPrefix + ".du_engine", statPrefix + ".du_transfers",
                statPrefix + ".du_bytes");
}

void
ShrimpNic::bindAu(node::Frame local, NodeId dst_node,
                  node::Frame dst_frame, bool combining,
                  bool interrupt_request)
{
    _opt.bindAu(local, dst_node, dst_frame,
                combining && _params.combiningEnabled, interrupt_request);
    if (local >= trainIndex.size())
        trainIndex.resize(std::size_t(local) + 1, kNoTrain);
}

void
ShrimpNic::unbindAu(node::Frame local)
{
    if (local < trainIndex.size() && trainIndex[local] != kNoTrain)
        flushTrain(trainOrder[trainIndex[local]]);
    _opt.unbindAu(local);
}

void
ShrimpNic::transmit(DuPacket &&pkt, NodeId dst)
{
    const auto &mp = _node.params();

    // EISA DMA read of the source block from main memory. The
    // memory bus cannot cycle-share, so the burst stalls the CPU.
    std::uint64_t bytes = pkt.data.size();
    Tick start = std::max(sim.now(), eisaBusyUntil);
    Tick dma_done = start + _params.duSetupCost + mp.eisaDmaSetup +
                    transferTime(bytes, mp.eisaDmaBytesPerSec);
    eisaBusyUntil = dma_done;
    // The Xpress bus cannot cycle-share: the burst's memory-bus
    // grants stall the CPU outright (Sec 2.1 — the reason DU
    // queueing buys nothing, Sec 4.5.3).
    Tick bus_time = transferTime(bytes, mp.memBusBytesPerSec);
    _node.bus().reserve(bus_time);
    _node.cpu().reserveKernel(bus_time);
    stEisaBusyPs.inc(dma_done - start);
    sim.delay(dma_done - sim.now());

    // Inject through the NI chip (shared with the AU FIFO drain;
    // incoming packets can push chipBusyUntil out). Injection is
    // pipelined: the engine starts the next DMA while the packet
    // streams out of the NI buffers.
    std::uint32_t wire = std::uint32_t(bytes) + kPacketHeaderBytes;
    Tick inj = std::max(sim.now(), chipBusyUntil) +
               transferTime(wire, _net.params().linkBytesPerSec);
    chipBusyUntil = inj;

    auto payload = std::make_shared<NicPayload>();
    payload->body = std::move(pkt);
    injections.push(inj, Injection{std::move(payload), dst, wire});
}

void
ShrimpNic::auStore(const void *src, std::uint32_t bytes)
{
    auto &mem = _node.mem();
    node::Frame frame = mem.frameOf(src);
    const OptEntry *entry = _opt.auBinding(frame);
    if (!entry) {
        // Snooped, but the OPT entry is not AU-enabled: ignored.
        return;
    }

    std::uint32_t offset = node::pageOffset(mem.offsetOf(src));
    if (offset + bytes > node::kPageBytes)
        panic("AU store crosses a page boundary");

    // Flow control: the threshold interrupt de-schedules AU writers
    // until the FIFO drains (Sec 4.5.2). The stall can clear while
    // pending computation drains inside sync(), so re-check before
    // sleeping.
    while (fifoStalled) {
        _node.cpu().sync();
        if (fifoStalled)
            fifoWait.wait(sim);
        // Other processes ran meanwhile; a bind that grew the table
        // moved the entry, and an unbind removed it.
        entry = _opt.auBinding(frame);
        if (!entry)
            return;
    }

    // A bound frame is below trainIndex.size() (bindAu grew it).
    std::uint32_t &slot = trainIndex[frame];
    if (slot == kNoTrain) {
        slot = std::uint32_t(trainOrder.size());
        AuTrain &fresh = trainOrder.emplace_back();
        fresh.localFrame = frame;
        fresh.dstNode = entry->dstNode;
        fresh.combining = entry->combining;
        fresh.pkt.dstFrame = entry->dstFrame;
        fresh.pkt.interruptRequest = entry->interruptRequest;
        fresh.pkt.sender = this;
        fresh.pkt.life = sim.recorder().sendStamp();
    }
    AuTrain &train = trainOrder[slot];
    train.pkt.records.append(offset, src, bytes);
    train.pkt.dataBytes += bytes;

    // Count the hardware packets this store contributes.
    if (!train.combining) {
        train.pkt.packetCount += auStorePackets(bytes);
        train.openPacketBytes = 0;
        train.lastEnd = offset + bytes;
    } else {
        std::uint32_t remaining = bytes;
        bool contiguous = (train.lastEnd == offset &&
                           train.openPacketBytes > 0 &&
                           lastAuFrame == frame);
        while (remaining > 0) {
            std::uint32_t room = contiguous
                ? _params.combineMaxBytes - train.openPacketBytes
                : 0;
            if (room == 0) {
                ++train.pkt.packetCount;
                train.openPacketBytes = 0;
                room = _params.combineMaxBytes;
                contiguous = true;
            }
            std::uint32_t take = std::min(room, remaining);
            train.openPacketBytes += take;
            remaining -= take;
        }
        train.lastEnd = offset + bytes;
    }

    lastAuFrame = frame;
    stAuStores.inc();
    stAuBytes.inc(bytes);
}

void
ShrimpNic::auFlush()
{
    if (trainOrder.empty())
        return;
    for (auto &t : trainOrder)
        flushTrain(t);
    trainOrder.clear();
}

void
ShrimpNic::flushTrain(AuTrain &train)
{
    if (train.pkt.records.empty())
        return;
    trainIndex[train.localFrame] = kNoTrain;

    double link_bw = _net.params().linkBytesPerSec;
    std::uint32_t hw = train.pkt.packetCount;
    std::uint32_t wire = train.pkt.dataBytes + hw * kPacketHeaderBytes;

    stAuPackets.inc(hw);
    stAuWireBytes.inc(wire);

    // FIFO occupancy. The link drains ~8x faster than write-through
    // stores arrive, so with a free NI chip only a couple of packets
    // are ever resident; the whole train backs up in the FIFO only
    // when injection is already backlogged (incoming priority or
    // network contention pushing chipBusyUntil out).
    bool backlogged = chipBusyUntil > sim.now() + _params.auSnoopLatency;
    std::uint32_t per_packet = hw ? wire / hw : wire;
    std::uint32_t contribution =
        backlogged ? wire : std::min(wire, 2 * per_packet);
    // Physical bound: a FIFO cannot hold more than its capacity.
    contribution = std::min(contribution,
                            _params.outFifoBytes - std::min(
                                _params.outFifoBytes, _fifoFill));
    _fifoFill += contribution;
    auto threshold =
        std::uint32_t(_params.fifoThresholdFraction *
                      double(_params.outFifoBytes));
    if (_fifoFill > threshold && !fifoStalled) {
        fifoStalled = true;
        fifoStallStart = sim.now();
        fifoStallCause = sim.recorder().current();
        stFifoThresholdIrqs.inc();
        _node.os().interrupt(_params.fifoInterruptCost);
    }

    Tick inj = std::max(sim.now() + _params.auSnoopLatency,
                        chipBusyUntil) +
               transferTime(wire, link_bw);
    chipBusyUntil = inj;

    train.pkt.life.queued = sim.now(); // NI-visible ordering point
    ++auInFlight;
    auto payload = std::make_shared<NicPayload>();
    payload->body.emplace<AuTrainPacket>(std::move(train.pkt));
    injections.push(inj, Injection{std::move(payload), train.dstNode,
                                   wire, hw, contribution});
}

void
ShrimpNic::injectNext(Injection &i)
{
    // A train leaving the NI frees its bytes in the outgoing FIFO.
    if (std::holds_alternative<AuTrainPacket>(i.payload->body))
        fifoCredit(i.fifoBytes);
    inject(std::move(i.payload), i.dst, i.wire, i.hwPackets);
}

void
ShrimpNic::trainLanded()
{
    if (--auInFlight == 0)
        auFenceWait.wakeAll(sim);
}

void
ShrimpNic::auFence()
{
    auFlush();
    _node.cpu().sync();
    while (auInFlight > 0)
        auFenceWait.wait(sim);
}

void
ShrimpNic::fifoCredit(std::uint32_t wire_bytes)
{
    _fifoFill = _fifoFill > wire_bytes ? _fifoFill - wire_bytes : 0;
    auto resume = std::uint32_t(_params.fifoResumeFraction *
                                double(_params.outFifoBytes));
    if (fifoStalled && _fifoFill <= resume) {
        fifoStalled = false;
        sim.recorder().leaf(fifoStallCause, int(nodeId()),
                            "nic.fifo_stall", fifoStallStart, sim.now());
        fifoWait.wakeAll(sim);
    }
}

void
ShrimpNic::receive(const mesh::Packet &pkt)
{
    auto payload = std::static_pointer_cast<NicPayload>(pkt.payload);
    const auto &mp = _node.params();

    std::uint32_t data_bytes;
    std::uint32_t packets;
    if (auto *du = std::get_if<DuPacket>(&payload->body)) {
        data_bytes = std::uint32_t(du->data.size());
        packets = 1;
    } else {
        auto &au = std::get<AuTrainPacket>(payload->body);
        data_bytes = au.dataBytes;
        packets = au.packetCount;
    }

    // Incoming DMA into main memory; incoming has top priority for
    // the NI chip, so it also pushes out pending outgoing injection.
    Tick start = std::max(sim.now(), eisaBusyUntil);
    Tick done = start + Tick(packets) * _params.incomingPacketCost +
                mp.eisaDmaSetup +
                transferTime(data_bytes, mp.eisaDmaBytesPerSec);
    eisaBusyUntil = done;
    chipBusyUntil = std::max(chipBusyUntil, done);
    // Incoming DMA bursts also stall the CPU (no cycle sharing).
    Tick bus_time = transferTime(data_bytes, mp.memBusBytesPerSec);
    _node.bus().reserve(bus_time);
    _node.cpu().reserveKernel(bus_time);

    stPacketsIn.inc(packets);
    stBytesIn.inc(data_bytes);
    stEisaBusyPs.inc(done - start);
    sim.recorder().packetDelivered(pkt.life, int(nodeId()), start, done);
    receives.push(done, std::move(payload));
}

void
ShrimpNic::land(const NicPayload &payload)
{
    // Sends issued from inside the delivery chain (notification
    // handlers and their replies) inherit the packet's carried
    // context through the run's event slot.
    const auto *du = std::get_if<DuPacket>(&payload.body);
    causal::EventCtxScope cctx(
        sim.recorder(),
        du ? du->life.cause
           : std::get<AuTrainPacket>(payload.body).life.cause);

    Delivery d;
    bool want_notify = false;

    if (du) {
        d = landDu(*du);
        want_notify = du->notify && _ipt.interruptEnable(du->dstFrame);
    } else {
        auto &mem = _node.mem();
        const auto &au = std::get<AuTrainPacket>(payload.body);
        if (au.dstFrame >= mem.frameCount())
            panic("AU packet to invalid frame %u", au.dstFrame);
        // The payload is shared with the sender's retransmit buffer,
        // so the replay leaves the records as they are.
        au.records.replay(static_cast<char *>(mem.ptrOf(au.dstFrame, 0)));
        au.sender->trainLanded();
        d.srcNode = au.sender->nodeId();
        d.frame = au.dstFrame;
        d.offset = au.records.firstOffset();
        d.bytes = au.dataBytes;
        d.endOfMessage = true;
        d.automatic = true;
        want_notify = au.interruptRequest &&
                      _ipt.interruptEnable(au.dstFrame);
    }

    finishDelivery(d, want_notify);
}

void
ShrimpNic::finishDelivery(const Delivery &d, bool want_notify)
{
    // What-if (Table 4): every arriving message interrupts the host
    // with a null kernel handler; data only becomes visible to the
    // application once the handler has run.
    Delivery copy = d;
    copy.notify = want_notify;

    if (_params.interruptPerMessage && d.endOfMessage) {
        Tick handler_done =
            _node.os().interrupt(_node.params().interruptCost);
        sim.schedule(handler_done - sim.now(), [this, copy] {
            if (deliverHook)
                deliverHook(copy);
        });
        return;
    }

    if (deliverHook)
        deliverHook(copy);
}

} // namespace shrimp::nic

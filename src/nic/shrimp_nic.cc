#include "nic/shrimp_nic.hh"

#include <algorithm>
#include <cstring>

#include "sim/lifecycle.hh"
#include "sim/logging.hh"
#include "sim/trace_json.hh"

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
                     const ShrimpNicParams &params, const Config &cfg)
    : NicBase(n, net, cfg), sim(n.simulation()), _params(params),
      statPrefix(n.name() + ".nic"),
      stDuTransfers(sim.stats(), statPrefix + ".du_transfers"),
      stDuBytes(sim.stats(), statPrefix + ".du_bytes"),
      stEisaBusyPs(sim.stats(), statPrefix + ".eisa_busy_ps"),
      stAuStores(sim.stats(), statPrefix + ".au_stores"),
      stAuBytes(sim.stats(), statPrefix + ".au_bytes"),
      stAuPackets(sim.stats(), statPrefix + ".au_packets"),
      stAuWireBytes(sim.stats(), statPrefix + ".au_wire_bytes"),
      stFifoThresholdIrqs(sim.stats(),
                          statPrefix + ".fifo_threshold_irqs"),
      stPacketsIn(sim.stats(), statPrefix + ".packets_in"),
      stBytesIn(sim.stats(), statPrefix + ".bytes_in")
{
    sim.spawn(statPrefix + ".du_engine", [this] { duEngineBody(); });
}

int
ShrimpNic::traceTrack()
{
    if (_traceTrack < 0)
        _traceTrack = trace_json::track(statPrefix);
    return _traceTrack;
}

void
ShrimpNic::bindAu(node::Frame local, NodeId dst_node,
                  node::Frame dst_frame, bool combining,
                  bool interrupt_request)
{
    _opt.bindAu(local, dst_node, dst_frame,
                combining && _params.combiningEnabled, interrupt_request);
}

void
ShrimpNic::unbindAu(node::Frame local)
{
    auto it = trainIndex.find(local);
    if (it != trainIndex.end()) {
        flushTrain(trainOrder[it->second]);
        trainIndex.erase(it);
    }
    _opt.unbindAu(local);
}

void
ShrimpNic::post(const SendDesc &req)
{
    auto &cpu = _node.cpu();
    const auto &entry = _opt.proxy(req.proxy);

    if (req.dstOffset + req.bytes > node::kPageBytes)
        panic("deliberate update crosses destination page boundary");
    if (req.bytes == 0 || req.bytes > node::kPageBytes)
        panic("deliberate update size %u invalid", req.bytes);

    // The two-instruction UDMA initiation sequence plus the library's
    // protection bookkeeping. The span also covers any queue-full wait
    // below, so the trace shows true per-send initiation cost.
    trace_json::Span span(traceTrack(), "du_submit");
    mesh::PacketLife life;
    if (lifecycle && lifecycle->enabled()) {
        life.id = lifecycle->nextId();
        life.born = sim.now();
    }
    cpu.compute(_params.udmaIssueCost);
    cpu.sync();

    // Without a request queue the library spins until the engine is
    // free; with a queue it blocks only when the queue is full.
    while (int(duQueue.size()) + (duEngineBusy ? 1 : 0) >=
           std::max(1, _params.duQueueDepth))
        duSlotWait.wait(sim);

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
    pkt.cause = causal::current();

    duQueue.push_back(std::move(pkt));
    duQueueDst.push_back(entry.dstNode);
    stDuTransfers.inc();
    stDuBytes.inc(req.bytes);
    duWorkWait.wakeAll(sim);
}

void
ShrimpNic::duEngineBody()
{
    const auto &mp = _node.params();
    double link_bw = _net.params().linkBytesPerSec;

    for (;;) {
        while (duQueue.empty())
            duWorkWait.wait(sim);

        duEngineBusy = true;
        DuPacket pkt = std::move(duQueue.front());
        duQueue.pop_front();
        NodeId dst = duQueueDst.front();
        duQueueDst.pop_front();
        duSlotWait.wakeAll(sim);

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
        std::uint32_t wire =
            std::uint32_t(bytes) + kPacketHeaderBytes;
        Tick inj = std::max(sim.now(), chipBusyUntil) +
                   transferTime(wire, link_bw);
        chipBusyUntil = inj;

        if (trace_json::enabled())
            trace_json::completeEvent(
                traceTrack(), "du_xfer", start, inj,
                strfmt("{\"bytes\":%llu,\"dst\":%u}",
                       (unsigned long long)bytes, dst));

        auto payload = std::make_shared<NicPayload>();
        payload->body = std::move(pkt);
        NodeId src = nodeId();
        sim.schedule(inj - sim.now(), [this, payload, dst, src, wire] {
            mesh::Packet mp2;
            mp2.src = src;
            mp2.dst = dst;
            mp2.wireBytes = wire;
            mp2.life = std::get<DuPacket>(payload->body).life;
            if (mp2.life.id)
                mp2.life.injected = sim.now();
            mp2.cause = std::get<DuPacket>(payload->body).cause;
            mp2.payload = payload;
            netSend(std::move(mp2));
        });

        duEngineBusy = false;
        duSlotWait.wakeAll(sim);
        if (duQueue.empty())
            duIdleWait.wakeAll(sim);
    }
}

void
ShrimpNic::drainSends()
{
    _node.cpu().sync();
    while (!duQueue.empty() || duEngineBusy)
        duIdleWait.wait(sim);
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
    }

    auto [it, inserted] =
        trainIndex.try_emplace(frame, trainOrder.size());
    if (inserted)
        trainOrder.emplace_back();
    AuTrain &train = trainOrder[it->second];
    if (train.dstFrame == node::kInvalidFrame) {
        train.dstNode = entry->dstNode;
        train.dstFrame = entry->dstFrame;
        train.combining = entry->combining;
        train.interruptRequest = entry->interruptRequest;
        if (lifecycle && lifecycle->enabled()) {
            train.life.id = lifecycle->nextId();
            train.life.born = sim.now();
        }
        train.cause = causal::current();
    }

    AuWrite w;
    w.offset = offset;
    w.bytes = bytes;
    w.dataIndex = std::uint32_t(train.data.size());
    train.data.insert(train.data.end(),
                      static_cast<const char *>(src),
                      static_cast<const char *>(src) + bytes);
    train.writes.push_back(w);

    // Count the hardware packets this store contributes.
    if (!train.combining) {
        train.packetCount += auStorePackets(bytes);
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
                ++train.packetCount;
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
    trainIndex.clear();
}

void
ShrimpNic::flushTrain(AuTrain &train)
{
    if (train.writes.empty())
        return;

    double link_bw = _net.params().linkBytesPerSec;
    std::uint32_t data_bytes = std::uint32_t(train.data.size());
    std::uint32_t wire =
        data_bytes + train.packetCount * kPacketHeaderBytes;

    stAuPackets.inc(train.packetCount);
    stAuWireBytes.inc(wire);

    // FIFO occupancy. The link drains ~8x faster than write-through
    // stores arrive, so with a free NI chip only a couple of packets
    // are ever resident; the whole train backs up in the FIFO only
    // when injection is already backlogged (incoming priority or
    // network contention pushing chipBusyUntil out).
    bool backlogged = chipBusyUntil > sim.now() + _params.auSnoopLatency;
    std::uint32_t per_packet =
        train.packetCount ? wire / train.packetCount : wire;
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
        stFifoThresholdIrqs.inc();
        if (trace_json::enabled())
            trace_json::instantEvent(traceTrack(), "fifo_threshold_irq");
        _node.os().interrupt(_params.fifoInterruptCost);
    }

    Tick inj = std::max(sim.now() + _params.auSnoopLatency,
                        chipBusyUntil) +
               transferTime(wire, link_bw);
    chipBusyUntil = inj;

    if (trace_json::enabled())
        trace_json::completeEvent(
            traceTrack(), "au_train", sim.now(), inj,
            strfmt("{\"packets\":%u,\"bytes\":%u}", train.packetCount,
                   data_bytes));

    AuTrainPacket pkt;
    pkt.srcNode = nodeId();
    pkt.dstFrame = train.dstFrame;
    pkt.writes = std::move(train.writes);
    pkt.data = std::move(train.data);
    pkt.packetCount = train.packetCount;
    pkt.dataBytes = data_bytes;
    pkt.interruptRequest = train.interruptRequest;
    pkt.life = train.life;
    pkt.life.queued = sim.now(); // NI-visible ordering point
    pkt.cause = train.cause;
    ++auInFlight;
    pkt.applied = [this] {
        if (--auInFlight == 0)
            auFenceWait.wakeAll(sim);
    };

    auto payload = std::make_shared<NicPayload>();
    std::uint32_t hw = pkt.packetCount;
    payload->body = std::move(pkt);
    NodeId dst = train.dstNode;
    NodeId src = nodeId();

    std::uint32_t credit_bytes = contribution;
    sim.schedule(inj - sim.now(),
                 [this, payload, wire, dst, src, credit_bytes, hw] {
        fifoCredit(credit_bytes);
        mesh::Packet mp;
        mp.src = src;
        mp.dst = dst;
        mp.wireBytes = wire;
        mp.hwPackets = hw;
        mp.life = std::get<AuTrainPacket>(payload->body).life;
        if (mp.life.id)
            mp.life.injected = sim.now();
        mp.cause = std::get<AuTrainPacket>(payload->body).cause;
        mp.payload = payload;
        netSend(std::move(mp));
    });

    train = AuTrain();
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
        if (trace_json::enabled())
            trace_json::completeEvent(traceTrack(), "fifo_stall",
                                      fifoStallStart, sim.now());
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
    if (pkt.life.id && lifecycle)
        lifecycle->record(pkt.life.born, pkt.life.queued,
                          pkt.life.injected, pkt.life.delivered, start,
                          done);
    if (pkt.life.id && causal::enabled())
        causal::emitPacket(pkt.cause, int(nodeId()), pkt.life.born,
                           pkt.life.queued, pkt.life.injected,
                           pkt.life.delivered, start, done);

    if (trace_json::enabled())
        trace_json::completeEvent(
            traceTrack(), "rx", start, done,
            strfmt("{\"packets\":%u,\"bytes\":%u,\"src\":%u}", packets,
                   data_bytes, pkt.src));

    sim.schedule(done - sim.now(), [this, payload] {
        // Sends issued from inside the delivery chain (notification
        // handlers and their replies) inherit the packet's carried
        // context through the thread's event slot.
        causal::CauseCtx cause;
        if (causal::enabled()) {
            if (auto *du = std::get_if<DuPacket>(&payload->body))
                cause = du->cause;
            else
                cause = std::get<AuTrainPacket>(payload->body).cause;
        }
        causal::EventCtxScope cctx(cause);

        auto &mem = _node.mem();
        Delivery d;
        bool want_notify = false;

        if (auto *du = std::get_if<DuPacket>(&payload->body)) {
            if (du->dstFrame >= mem.frameCount())
                panic("DU packet to invalid frame %u", du->dstFrame);
            std::memcpy(static_cast<char *>(
                            mem.ptrOf(du->dstFrame, du->dstOffset)),
                        du->data.data(), du->data.size());
            d.srcNode = du->srcNode;
            d.frame = du->dstFrame;
            d.offset = du->dstOffset;
            d.bytes = std::uint32_t(du->data.size());
            d.endOfMessage = du->endOfMessage;
            d.automatic = false;
            d.notifyId = du->notifyId;
            want_notify = du->notify &&
                          _ipt.interruptEnable(du->dstFrame);
        } else {
            auto &au = std::get<AuTrainPacket>(payload->body);
            if (au.dstFrame >= mem.frameCount())
                panic("AU packet to invalid frame %u", au.dstFrame);
            char *page =
                static_cast<char *>(mem.ptrOf(au.dstFrame, 0));
            for (const auto &w : au.writes)
                std::memcpy(page + w.offset, au.data.data() + w.dataIndex,
                            w.bytes);
            if (au.applied)
                au.applied();
            d.srcNode = au.srcNode;
            d.frame = au.dstFrame;
            d.offset = au.writes.empty() ? 0 : au.writes.front().offset;
            d.bytes = au.dataBytes;
            d.endOfMessage = true;
            d.automatic = true;
            want_notify = au.interruptRequest &&
                          _ipt.interruptEnable(au.dstFrame);
        }

        finishDelivery(d, want_notify);
    });
}

void
ShrimpNic::finishDelivery(const Delivery &d, bool want_notify)
{
    // What-if (Table 4): every arriving message interrupts the host
    // with a null kernel handler; data only becomes visible to the
    // application once the handler has run.
    Delivery copy = d;
    copy.notify = want_notify;

    if (want_notify && trace_json::enabled())
        trace_json::instantEvent(
            traceTrack(), "notify",
            strfmt("{\"src\":%u,\"bytes\":%u}", d.srcNode, d.bytes));

    if (_params.interruptPerMessage && d.endOfMessage) {
        Tick handler_done =
            _node.os().interrupt(_node.params().interruptCost);
        sim.schedule(handler_done - sim.now(), [this, copy] {
            if (copy.notify && notifyHook)
                notifyHook(copy.frame);
            if (deliverHook)
                deliverHook(copy);
        });
        return;
    }

    if (copy.notify && notifyHook)
        notifyHook(copy.frame);
    if (deliverHook)
        deliverHook(copy);
}

} // namespace shrimp::nic

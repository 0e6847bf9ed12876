#include "nic/nic_base.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace shrimp::nic
{

NicBase::NicBase(node::Node &n, mesh::Network &net, NicKind kind,
                 const ReliabilityParams &rel)
    : _node(n), sim(n.simulation()), _net(net),
      receives(n.simulation().events(),
               [this](std::shared_ptr<NicPayload> &p) { complete(*p); }),
      _kind(kind), _reliable(net.reliabilityEnabled()), _rel(rel),
      stCorruptRx(n.simulation().stats(), "mesh.corrupt_rx"),
      stDupRx(n.simulation().stats(), "mesh.dup_rx"),
      stRetransmits(n.simulation().stats(), "mesh.retransmits"),
      stRtoFires(n.simulation().stats(), "mesh.rto_fires"),
      stAcks(n.simulation().stats(), "mesh.acks"),
      stNacks(n.simulation().stats(), "mesh.nacks")
{
    _net.attach(n.id(),
                [this](const mesh::Packet &p) { linkReceive(p); });
}

// ----------------------------------------------------------------------
// Send queue and engine
// ----------------------------------------------------------------------

void
NicBase::startEngine(const std::string &name, const std::string &sends,
                     const std::string &bytes)
{
    stSends = CounterHandle(sim.stats(), sends);
    stSendBytes = CounterHandle(sim.stats(), bytes);
    sim.spawn(name, [this] { engineBody(); })->service = true;
}

void
NicBase::post(const SendDesc &req)
{
    auto &cpu = _node.cpu();
    const OptEntry entry = _opt.proxy(req.proxy);

    if (req.dstOffset + req.bytes > node::kPageBytes)
        panic("transfer crosses destination page boundary");
    if (req.bytes == 0 || req.bytes > node::kPageBytes)
        panic("send size %u invalid", req.bytes);

    PacketLife life = sim.recorder().sendStamp();
    cpu.compute(issueCost());
    cpu.sync();

    // Without a request queue the library spins until the engine is
    // free; with a queue it blocks only when the queue is full.
    while (int(sendQueue.size()) + (engineBusy ? 1 : 0) >=
           std::max(1, queueDepth()))
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
NicBase::engineBody()
{
    for (;;) {
        while (sendQueue.empty())
            workWait.wait(sim);

        engineBusy = true;
        DuPacket pkt = std::move(sendQueue.front());
        sendQueue.pop_front();
        NodeId dst = sendQueueDst.front();
        sendQueueDst.pop_front();
        slotWait.wakeAll(sim);

        transmit(std::move(pkt), dst);

        engineBusy = false;
        slotWait.wakeAll(sim);
        if (sendQueue.empty())
            idleWait.wakeAll(sim);
    }
}

void
NicBase::drainSends()
{
    _node.cpu().sync();
    while (!sendQueue.empty() || engineBusy)
        idleWait.wait(sim);
}

void
NicBase::inject(std::shared_ptr<NicPayload> payload, NodeId dst,
                std::uint32_t wire, std::uint32_t hw_packets)
{
    mesh::Packet mp;
    mp.src = nodeId();
    mp.dst = dst;
    mp.wireBytes = wire;
    mp.hwPackets = hw_packets;
    mp.life = std::visit([](const auto &body) { return body.life; },
                         payload->body);
    mp.life.injected = sim.now();
    mp.payload = std::move(payload);
    netSend(std::move(mp));
}

void
NicBase::complete(const NicPayload &payload)
{
    // The next train's destination line is rarely still cached by the
    // time its DMA completes; start the miss now, while this one lands.
    // DU packets mostly land in freshly faulted pages, where a
    // prefetch cannot help.
    if (const auto *next = receives.front()) {
        const auto *au = std::get_if<AuTrainPacket>(&(*next)->body);
        auto &mem = _node.mem();
        if (au && au->dstFrame < mem.frameCount())
            __builtin_prefetch(
                mem.ptrOf(au->dstFrame, au->records.firstOffset()), 1);
    }
    land(payload);
}

Delivery
NicBase::landDu(const DuPacket &du)
{
    auto &mem = _node.mem();
    if (du.dstFrame >= mem.frameCount())
        panic("DU packet to invalid frame %u", du.dstFrame);
    std::memcpy(mem.ptrOf(du.dstFrame, du.dstOffset), du.data.data(),
                du.data.size());

    Delivery d;
    d.srcNode = du.srcNode;
    d.frame = du.dstFrame;
    d.offset = du.dstOffset;
    d.bytes = std::uint32_t(du.data.size());
    d.notifyId = du.notifyId;
    d.endOfMessage = du.endOfMessage;
    return d;
}

// ----------------------------------------------------------------------
// Automatic update and batched notification: absent by default
// ----------------------------------------------------------------------

void
NicBase::bindAu(node::Frame, NodeId, node::Frame, bool, bool)
{
    fatal("this network interface does not support automatic update");
}

void
NicBase::unbindAu(node::Frame)
{
    fatal("this network interface does not support automatic update");
}

void
NicBase::auStore(const void *, std::uint32_t)
{
    // Writes are snooped but ignored on adapters without AU support;
    // on a bus-less adapter there is simply nothing to do.
}

void
NicBase::auFlush()
{
}

void
NicBase::auFence()
{
    auFlush();
}

std::uint64_t
NicBase::notifyCount(std::uint32_t) const
{
    fatal("%s: this network interface has no batched notification "
          "support (check caps().batchedNotify before notifyCount)",
          _node.name().c_str());
}

void
NicBase::notifyWait(std::uint32_t, std::uint64_t)
{
    fatal("%s: this network interface has no batched notification "
          "support (check caps().batchedNotify before notifyWait)",
          _node.name().c_str());
}

// ----------------------------------------------------------------------
// Link-level reliability protocol (fault mode only)
// ----------------------------------------------------------------------

NicBase::RelChannel &
NicBase::channelFor(NodeId dst)
{
    auto [it, inserted] = channels.try_emplace(dst);
    RelChannel &ch = it->second;
    if (inserted) {
        auto &stats = sim.stats();
        if (_net.topology().nodeCount() <= kPerDestStatsMaxNodes) {
            // Bind the per-channel observability surface once; map
            // entries are address-stable so the pointers stay valid.
            // Big meshes skip this mirror (nodes^2 scalars would
            // swamp every report); the node-wide histogram below
            // still aggregates RTTs.
            std::string prefix =
                _node.name() + ".rel.dst" + std::to_string(dst) + ".";
            ch.stOutstanding = &stats.scalar(prefix + "outstanding");
            ch.stSrttUs = &stats.scalar(prefix + "srtt_us");
            ch.stRttvarUs = &stats.scalar(prefix + "rttvar_us");
            ch.stLastRtoUs =
                &stats.scalar(prefix + "last_rto_fire_us");
            ch.stGaveUp = &stats.scalar(prefix + "gave_up");
            ch.accRttUs = &stats.accumulator(prefix + "ack_rtt_us");
        }
        if (!rttHist)
            rttHist = &stats.logHistogram(
                _node.name() + ".rel.ack_rtt_us", 0.1, 1e5, 150);
    }
    return ch;
}

NicBase::PeerHealth
NicBase::peerHealth(NodeId dst) const
{
    auto it = channels.find(dst);
    if (it == channels.end())
        return PeerHealth();
    const RelChannel &ch = it->second;
    PeerHealth v;
    v.outstanding = ch.unacked.size();
    v.srtt = ch.srtt;
    v.rttvar = ch.rttvar;
    v.lastRtoFire = ch.lastRtoFire;
    v.rtoStreak = ch.rtoStreak;
    v.gaveUp = ch.gaveUp;
    return v;
}

std::size_t
NicBase::retransmitBacklog() const
{
    std::size_t total = 0;
    for (const auto &kv : channels)
        total += kv.second.unacked.size();
    return total;
}

void
NicBase::sampleRtt(RelChannel &ch, Tick rtt)
{
    // RFC6298-style estimators feeding the adaptive timeout: the
    // variation update uses the error against the *previous* srtt,
    // so it must run first.
    if (ch.srtt == 0) {
        ch.srtt = rtt;
        ch.rttvar = rtt / 2;
    } else {
        Tick err = rtt > ch.srtt ? rtt - ch.srtt : ch.srtt - rtt;
        ch.rttvar = (3 * ch.rttvar + err) / 4;
        ch.srtt = (7 * ch.srtt + rtt) / 8;
    }
    double us = toMicroseconds(rtt);
    rttHist->sample(us);
    if (ch.accRttUs) {
        ch.accRttUs->sample(us);
        ch.stSrttUs->set(toMicroseconds(ch.srtt));
        ch.stRttvarUs->set(toMicroseconds(ch.rttvar));
    }
}

Tick
NicBase::rtoFor(const RelChannel &ch) const
{
    if (ch.srtt == 0)
        return _rel.rtoBase;
    return std::clamp(ch.srtt + 4 * ch.rttvar, _rel.rtoBase,
                      _rel.rtoMax);
}

void
NicBase::netSend(mesh::Packet pkt)
{
    if (!_reliable) {
        _net.send(std::move(pkt));
        return;
    }

    RelChannel &ch = channelFor(pkt.dst);
    if (ch.gaveUp) {
        // The path was declared dead (fatalOnGiveUp off): sends to it
        // evaporate, like writes into an unplugged cable.
        return;
    }
    pkt.kind = mesh::PacketKind::Data;
    pkt.seq = ch.nextSeq++;
    pkt.checksum = mesh::packetChecksum(pkt);

    // Keep a clean copy (in a pool slot) before handing the packet to
    // the mesh: the fault plane mutates the in-flight checksum, never
    // this copy.
    mesh::Packet *slot = _net.pool().acquire();
    *slot = pkt;
    ch.unacked.push_back(slot);
    ch.sentAt.push_back(sim.now());
    if (ch.stOutstanding)
        ch.stOutstanding->set(double(ch.unacked.size()));
    // Invariant: the timer is armed exactly while unacked is non-empty.
    if (ch.unacked.size() == 1) {
        if (ch.rtoNow == 0)
            ch.rtoNow = rtoFor(ch);
        armRto(ch, pkt.dst);
    }
    _net.send(std::move(pkt));
}

void
NicBase::linkReceive(const mesh::Packet &pkt)
{
    if (!_reliable) {
        receive(pkt);
        return;
    }

    if (pkt.checksum != mesh::packetChecksum(pkt)) {
        stCorruptRx.inc();
        if (pkt.kind == mesh::PacketKind::Data) {
            // Ask for the resend right away instead of waiting out the
            // sender's timeout. Control packets are covered by data
            // retransmission, so a corrupt ACK/NACK just evaporates.
            RelReceiver &rx = rxStreams[pkt.src];
            sendNackOnce(rx, pkt.src);
        }
        return;
    }

    if (pkt.kind == mesh::PacketKind::Ack) {
        handleAck(pkt);
        return;
    }
    if (pkt.kind == mesh::PacketKind::Nack) {
        handleNack(pkt);
        return;
    }

    RelReceiver &rx = rxStreams[pkt.src];
    if (pkt.seq < rx.expected) {
        // Go-back-N resend of something already delivered; re-ACK so
        // the sender's window moves even if the original ACK was lost.
        stDupRx.inc();
        sendCtrl(pkt.src, mesh::PacketKind::Ack, rx.expected);
        return;
    }
    if (pkt.seq > rx.expected) {
        // Gap: something ahead of us died in the mesh. One NACK per
        // missing sequence value; the sender resends everything from
        // there (go-back-N), so follow-up out-of-order arrivals need
        // no further prompting.
        sendNackOnce(rx, pkt.src);
        return;
    }

    rx.expected = pkt.seq + 1;
    rx.nackedAt = 0;
    sendCtrl(pkt.src, mesh::PacketKind::Ack, rx.expected);
    receive(pkt);
}

void
NicBase::sendNackOnce(RelReceiver &rx, NodeId src)
{
    if (rx.nackedAt == rx.expected)
        return;
    rx.nackedAt = rx.expected;
    sendCtrl(src, mesh::PacketKind::Nack, rx.expected);
}

void
NicBase::handleAck(const mesh::Packet &pkt)
{
    auto it = channels.find(pkt.src);
    if (it == channels.end())
        return;
    RelChannel &ch = it->second;
    Tick now = sim.now();

    bool progress = false;
    while (!ch.unacked.empty() && ch.unacked.front()->seq < pkt.seq) {
        // Karn's rule: a retransmitted packet's ACK is ambiguous
        // (original or copy?), so only first-transmission sequences
        // contribute round-trip samples.
        if (ch.unacked.front()->seq > ch.retxMaxSeq)
            sampleRtt(ch, now - ch.sentAt.front());
        _net.pool().release(ch.unacked.front());
        ch.unacked.pop_front();
        ch.sentAt.pop_front();
        progress = true;
    }
    if (progress) {
        ch.rtoNow = rtoFor(ch);
        ch.rtoStreak = 0;
        if (ch.stOutstanding)
            ch.stOutstanding->set(double(ch.unacked.size()));
    }
    ch.rto.cancel();
    if (!ch.unacked.empty())
        armRto(ch, pkt.src);
}

void
NicBase::handleNack(const mesh::Packet &pkt)
{
    auto it = channels.find(pkt.src);
    if (it == channels.end())
        return;
    RelChannel &ch = it->second;

    // A NACK for seq acknowledges everything before it...
    bool progress = false;
    while (!ch.unacked.empty() && ch.unacked.front()->seq < pkt.seq) {
        _net.pool().release(ch.unacked.front());
        ch.unacked.pop_front();
        ch.sentAt.pop_front();
        progress = true;
    }
    if (progress) {
        ch.rtoNow = rtoFor(ch);
        ch.rtoStreak = 0;
        if (ch.stOutstanding)
            ch.stOutstanding->set(double(ch.unacked.size()));
    }
    // ...and requests a go-back-N resend of everything from it on.
    if (!ch.unacked.empty())
        retransmit(ch, pkt.src);
    else
        ch.rto.cancel();
}

void
NicBase::retransmit(RelChannel &ch, NodeId dst)
{
    ch.retxMaxSeq = std::max(ch.retxMaxSeq, ch.unacked.back()->seq);
    for (std::size_t i = 0; i < ch.unacked.size(); ++i) {
        stRetransmits.inc();
        // The buffered copy still carries the original send's causal
        // context, so the resend — and the eventual delivery — stay
        // parented on the operation that first sent the packet.
        sim.recorder().leaf(ch.unacked[i]->life.cause, int(nodeId()),
                            "nic.retx", sim.now(), sim.now());
        mesh::Packet copy = *ch.unacked[i];
        _net.send(std::move(copy));
    }

    ch.rto.cancel();
    armRto(ch, dst);
}

void
NicBase::armRto(RelChannel &ch, NodeId dst)
{
    ch.rto = sim.scheduleCancellable(ch.rtoNow,
                                     [this, dst] { rtoFire(dst); });
}

void
NicBase::rtoFire(NodeId dst)
{
    RelChannel &ch = channelFor(dst);
    if (ch.unacked.empty())
        return;

    stRtoFires.inc();
    ch.lastRtoFire = sim.now();
    if (ch.stLastRtoUs)
        ch.stLastRtoUs->set(toMicroseconds(sim.now()));
    if (++ch.rtoStreak > _rel.rtoGiveUp) {
        ch.gaveUp = true;
        if (ch.stGaveUp)
            ch.stGaveUp->set(1.0);
        if (_rel.fatalOnGiveUp)
            fatal("%s: %d retransmission timeouts to node %u without "
                  "progress -- link permanently down?",
                  _node.name().c_str(), ch.rtoStreak, dst);
        // Non-fatal death: release the retransmit window (nothing will
        // ever ACK it), stop the timer, and let blocked upper layers
        // re-check peerHealth().
        while (!ch.unacked.empty()) {
            _net.pool().release(ch.unacked.front());
            ch.unacked.pop_front();
            ch.sentAt.pop_front();
        }
        if (ch.stOutstanding)
            ch.stOutstanding->set(0.0);
        ch.rto.cancel();
        if (peerDeadHook)
            peerDeadHook(dst);
        return;
    }
    ch.rtoNow = std::min(ch.rtoNow * 2, _rel.rtoMax);
    retransmit(ch, dst);
}

void
NicBase::sendCtrl(NodeId dst, mesh::PacketKind kind, std::uint64_t seq)
{
    (kind == mesh::PacketKind::Ack ? stAcks : stNacks).inc();

    mesh::Packet pkt;
    pkt.src = _node.id();
    pkt.dst = dst;
    pkt.wireBytes = _rel.ctrlWireBytes;
    pkt.hwPackets = 1;
    pkt.kind = kind;
    pkt.seq = seq;
    pkt.checksum = mesh::packetChecksum(pkt);
    _net.send(std::move(pkt));
}

} // namespace shrimp::nic

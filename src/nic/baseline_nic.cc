#include "nic/baseline_nic.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace shrimp::nic
{

BaselineNic::BaselineNic(node::Node &n, mesh::Network &net,
                         const BaselineNicParams &params,
                         const ReliabilityParams &rel)
    : BaselineNic(n, net, NicKind::Baseline, "bnic", "fw_engine", params,
                  rel)
{
}

BaselineNic::BaselineNic(node::Node &n, mesh::Network &net, NicKind kind,
                         const std::string &name, const char *engine,
                         const BaselineNicParams &params,
                         const ReliabilityParams &rel)
    : NicBase(n, net, kind, rel), _params(params),
      stPacketsIn(sim.stats(), n.name() + "." + name + ".packets_in"),
      stBytesIn(sim.stats(), n.name() + "." + name + ".bytes_in")
{
    std::string prefix = n.name() + "." + name;
    startEngine(prefix + "." + engine, prefix + ".sends",
                prefix + ".send_bytes");
}

void
BaselineNic::transmit(DuPacket &&pkt, NodeId dst)
{
    // Firmware validates the descriptor and DMAs the data from host
    // memory into adapter SRAM.
    std::uint64_t bytes = pkt.data.size();
    sim.delay(_params.sendCost + _params.dmaSetup +
              transferTime(bytes, _params.dmaBytesPerSec));
    _node.bus().reserve(
        transferTime(bytes, _node.params().memBusBytesPerSec));

    std::uint32_t wire = std::uint32_t(bytes) + kPacketHeaderBytes;
    sim.delay(transferTime(wire, _net.params().linkBytesPerSec));

    auto payload = std::make_shared<NicPayload>();
    payload->body = std::move(pkt);
    inject(std::move(payload), dst, wire);
}

void
BaselineNic::receive(const mesh::Packet &pkt)
{
    auto payload = std::static_pointer_cast<NicPayload>(pkt.payload);
    auto *du = std::get_if<DuPacket>(&payload->body);
    if (!du)
        panic("%s: automatic-update packet at an adapter without "
              "automatic update", _node.name().c_str());

    // Firmware processing, then the DMA into host memory.
    std::uint64_t bytes = du->data.size();
    Tick start = std::max(sim.now(), recvBusyUntil);
    Tick done = start + _params.recvCost + _params.dmaSetup +
                transferTime(bytes, _params.dmaBytesPerSec);
    recvBusyUntil = done;
    _node.bus().reserve(
        transferTime(bytes, _node.params().memBusBytesPerSec));

    stPacketsIn.inc();
    stBytesIn.inc(bytes);
    sim.recorder().packetDelivered(pkt.life, int(nodeId()), start, done);
    receives.push(done, std::move(payload));
}

void
BaselineNic::land(const NicPayload &payload)
{
    const auto &du = std::get<DuPacket>(payload.body);
    causal::EventCtxScope cctx(sim.recorder(), du.life.cause);
    announce(du, landDu(du));
}

void
BaselineNic::announce(const DuPacket &du, Delivery d)
{
    d.notify = du.notify && _ipt.interruptEnable(du.dstFrame);
    if (deliverHook)
        deliverHook(d);
}

} // namespace shrimp::nic

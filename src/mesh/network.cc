#include "mesh/network.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace shrimp::mesh
{

Network::Network(Simulation &sim, int width, int height,
                 const NetworkParams &params)
    : sim(sim), topo(width, height), _params(params),
      receivers(topo.nodeCount()),
      linkBusyUntil(topo.linkCount(), 0),
      loopbackBusyUntil(topo.nodeCount(), 0),
      routeRows(topo.nodeCount()),
      stPackets(sim.stats(), "mesh.packets"),
      stBytes(sim.stats(), "mesh.bytes"),
      stDrops(sim.stats(), "mesh.drops"),
      stOutageDrops(sim.stats(), "mesh.outage_drops"),
      stCorruptions(sim.stats(), "mesh.corruptions"),
      stLinkStalls(sim.stats(), "mesh.link_stalls"),
      stRouteRows(sim.stats(), "mesh.route_rows"),
      stRouteArenaBytes(sim.stats(), "mesh.route_arena_bytes"),
      accLinkStallPs(sim.stats(), "mesh.link_stall_ps")
{
    if (_params.fault.reliabilityEnabled()) {
        injector = std::make_unique<FaultInjector>(_params.fault,
                                                   topo.linkCount());
        // Touch the fault counters so reports carry them (at zero) for
        // any run with the fault plane active, and mark the mode so
        // RunReport can emit its faults block.
        auto &stats = sim.stats();
        stats.counter("mesh.faults_active").inc();
        for (const char *c :
             {"mesh.drops", "mesh.outage_drops", "mesh.corruptions",
              "mesh.corrupt_rx", "mesh.retransmits", "mesh.rto_fires",
              "mesh.dup_rx", "mesh.acks", "mesh.nacks"})
            stats.counter(c);
    }
}

void
Network::attach(NodeId node, Receiver receiver)
{
    if (node >= receivers.size())
        fatal("attach: node %u out of range", node);
    receivers[node] = std::move(receiver);
}

std::pair<const int *, const int *>
Network::route(NodeId src, NodeId dst)
{
    auto &row = routeRows[src];
    if (!row) {
        // First route out of this source: materialize its row. Idle
        // nodes never pay for one, so memo memory tracks the traffic
        // pattern (active sources x nodes) rather than nodes^2.
        row = std::make_unique<RouteRef[]>(topo.nodeCount());
        stRouteRows.inc();
        stRouteArenaBytes.inc(sizeof(RouteRef) *
                              std::size_t(topo.nodeCount()));
    }
    RouteRef &ref = row[dst];
    if (ref.offset < 0) {
        auto path = topo.route(src, dst);
        ref.offset = std::int32_t(routeArena.size());
        ref.length = std::int32_t(path.size());
        routeArena.insert(routeArena.end(), path.begin(), path.end());
        stRouteArenaBytes.inc(sizeof(int) * path.size());
    }
    const int *base = routeArena.data() + ref.offset;
    return {base, base + ref.length};
}

std::size_t
Network::routeMemoBytes() const
{
    std::size_t rows = 0;
    for (const auto &row : routeRows)
        if (row)
            ++rows;
    return rows * sizeof(RouteRef) * std::size_t(topo.nodeCount()) +
           routeArena.capacity() * sizeof(int) +
           routeRows.capacity() * sizeof(routeRows[0]);
}

void
Network::scheduleDelivery(Packet &&pkt, Tick deliver)
{
    pkt.life.delivered = deliver;
    auto [p, id] = _pool.acquire();
    *p = std::move(pkt);
    sim.scheduleAt(deliver, [this, p, id = id] {
        receivers[p->dst](*p);
        _pool.release(id);
    });
}

void
Network::send(Packet pkt)
{
    if (pkt.dst >= receivers.size())
        panic("send to node %u out of range", pkt.dst);
    if (!receivers[pkt.dst])
        panic("send to node %u with no receiver attached", pkt.dst);

    Tick when = sim.now();
    stPackets.inc(pkt.hwPackets);
    stBytes.inc(pkt.wireBytes);

    // Packet sizes are highly repetitive (NI chunk sizes, control
    // packets), so a one-entry memo elides the floating-point
    // conversion on nearly every send. Same input, same output:
    // timing is bit-identical to calling transferTime each time.
    Tick serialization;
    if (pkt.wireBytes == serMemoBytes) {
        serialization = serMemoTime;
    } else {
        serialization = transferTime(pkt.wireBytes,
                                     _params.linkBytesPerSec);
        serMemoBytes = pkt.wireBytes;
        serMemoTime = serialization;
    }

    if (pkt.src == pkt.dst) {
        // NI-internal loopback: the payload still streams through the
        // adapter buffers at link bandwidth, and back-to-back loopback
        // sends serialize on that path like on a real link.
        Tick start = std::max(when, loopbackBusyUntil[pkt.src]);
        loopbackBusyUntil[pkt.src] = start + serialization;
        scheduleDelivery(std::move(pkt), start + serialization +
                                             _params.loopbackLatency);
        return;
    }

    // Head enters the backplane through the injection transceiver.
    Tick head = when + _params.transceiverLatency;
    auto [route_begin, route_end] = route(pkt.src, pkt.dst);

    Tick tail_at_last_link_start = head;
    for (const int *lp = route_begin; lp != route_end; ++lp) {
        int link = *lp;
        if (injector) {
            Tick at = std::max(head, linkBusyUntil[link]);
            FaultVerdict v = injector->crossLink(link, at);
            if (v.drop) {
                // The head dies at this link; upstream links already
                // streamed the body (charged above), this one carries
                // nothing.
                stDrops.inc();
                if (v.outage)
                    stOutageDrops.inc();
                sim.recorder().leaf(pkt.life.cause, int(pkt.src),
                                    v.outage ? "mesh.outage_drop"
                                             : "mesh.drop",
                                    at, at);
                return;
            }
            if (v.corrupt) {
                pkt.checksum ^= v.corruptMask;
                stCorruptions.inc();
            }
            head += v.jitter;
        }
        // Cut-through: the head may be stalled by a busy link (a
        // previous packet's body still streaming through it).
        Tick start = std::max(head, linkBusyUntil[link]);
        linkBusyUntil[link] = start + serialization;
        if (start > head) {
            stLinkStalls.inc();
            accLinkStallPs.sample(double(start - head));
        }
        tail_at_last_link_start = start;
        head = start + _params.hopLatency;
    }

    // Tail arrival: the last link streams the body after its start.
    Tick deliver = tail_at_last_link_start + _params.hopLatency +
                   serialization + _params.transceiverLatency;
    scheduleDelivery(std::move(pkt), deliver);
}

Tick
Network::maxLinkBacklog(Tick now) const
{
    Tick deepest = 0;
    for (Tick t : linkBusyUntil)
        if (t > now && t - now > deepest)
            deepest = t - now;
    return deepest;
}

std::size_t
Network::busyLinkCount(Tick now) const
{
    std::size_t n = 0;
    for (Tick t : linkBusyUntil)
        if (t > now)
            ++n;
    return n;
}

} // namespace shrimp::mesh

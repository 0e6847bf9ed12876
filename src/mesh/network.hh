/**
 * @file
 * Packet-level model of the Paragon-style routing backplane.
 *
 * Wormhole/cut-through behaviour is approximated at packet granularity:
 * every unidirectional link serializes packets at the link bandwidth,
 * the packet head pays a per-hop routing latency, and the body streams
 * behind the head. Contention appears as queueing on the per-link
 * busy-until timeline. Paths are fixed (dimension-order), so delivery
 * between any source/destination pair is in order, as on the real
 * backplane.
 *
 * An optional fault plane (FaultParams inside NetworkParams) makes the
 * backplane lossy: packets may be dropped, corrupted or jittered per
 * link crossing, deterministically. With faults configured the NICs
 * run a link-level reliability protocol (see nic/nic_base.hh); with
 * the default (all-zero) FaultParams the send path is bit-identical
 * to the lossless model.
 */

#ifndef SHRIMP_MESH_NETWORK_HH
#define SHRIMP_MESH_NETWORK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "mesh/fault.hh"
#include "mesh/packet.hh"
#include "mesh/packet_pool.hh"
#include "mesh/topology.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace shrimp::mesh
{

/** Tunable parameters of the backplane. */
struct NetworkParams
{
    /** Link bandwidth; the Paragon backplane peaks at 200 MB/s. */
    double linkBytesPerSec = 200.0e6;

    /** Per-hop routing decision + switch traversal latency. */
    Tick hopLatency = nanoseconds(40);

    /** Extra latency for the transceiver boards at injection/ejection. */
    Tick transceiverLatency = nanoseconds(50);

    /** Latency for a node sending to itself (NI-internal loopback). */
    Tick loopbackLatency = nanoseconds(200);

    /** Fault plane; defaults to a perfect (lossless) backplane. */
    FaultParams fault;
};

/**
 * The backplane. Receivers (network interfaces) attach a delivery
 * callback per node; send() models the traversal and schedules the
 * callback at the packet's tail-arrival time.
 */
class Network
{
  public:
    using Receiver = std::function<void(const Packet &)>;

    /**
     * @param sim Owning simulation.
     * @param width Mesh width.
     * @param height Mesh height.
     * @param params Timing parameters.
     */
    Network(Simulation &sim, int width, int height,
            const NetworkParams &params = NetworkParams());

    /** Attach the receive callback for @p node. */
    void attach(NodeId node, Receiver receiver);

    /**
     * Inject @p pkt at the current time.
     *
     * The delivery callback of the destination runs at the time the
     * packet tail would arrive, accounting for link contention along
     * the fixed X-Y path. Under fault injection the packet may instead
     * be dropped (no delivery), corrupted (checksum perturbed) or
     * delayed.
     */
    void send(Packet pkt);

    /** Geometry access. */
    const Topology &topology() const { return topo; }

    /** Parameters access. */
    const NetworkParams &params() const { return _params; }

    /**
     * The memoized X-Y path from @p src to @p dst as a contiguous
     * [begin, end) range of link indices (see Topology::route).
     * Routes are computed once per (src, dst) pair and cached, so the
     * hot send path performs no per-packet allocation.
     *
     * Memoization is per-source: a source's row of route references
     * is allocated on its first send, so cache memory scales with
     * (active sources x nodes) instead of nodes^2 — on a 32x32 mesh
     * an idle or one-talker node costs nothing. The
     * "mesh.route_rows" / "mesh.route_arena_bytes" counters expose
     * the memo's actual footprint to scale benchmarks.
     */
    std::pair<const int *, const int *> route(NodeId src, NodeId dst);

    /** Host bytes held by the route memo (rows + arena). */
    std::size_t routeMemoBytes() const;

    /**
     * Deepest per-link backlog at @p now: the largest amount of
     * simulated time any link's busy-until timeline extends into the
     * future. Read by the recorder's mesh.link_backlog_us gauge.
     */
    Tick maxLinkBacklog(Tick now) const;

    /** Number of links whose timelines extend past @p now. */
    std::size_t busyLinkCount(Tick now) const;

    /** Is any fault source configured? */
    bool faultsEnabled() const { return injector != nullptr; }

    /** Must the attached NICs run the reliability protocol? */
    bool
    reliabilityEnabled() const
    {
        return _params.fault.reliabilityEnabled();
    }

    /**
     * The in-flight packet pool. Shared with the NICs, which draw
     * retransmit-buffer slots from it, so one pool's slabs cover all
     * packet records the simulation keeps alive at once.
     */
    PacketPool &pool() { return _pool; }

  private:
    /** One memoized route: a span into routeArena. */
    struct RouteRef
    {
        std::int32_t offset = -1; //!< -1 = not built yet
        std::int32_t length = 0;
    };

    /** Schedule delivery of @p pkt at absolute time @p deliver. */
    void scheduleDelivery(Packet &&pkt, Tick deliver);

    Simulation &sim;
    Topology topo;
    NetworkParams _params;
    std::vector<Receiver> receivers;
    std::vector<Tick> linkBusyUntil;
    std::vector<Tick> loopbackBusyUntil;

    /**
     * Per-source route rows, allocated lazily (nullptr until the
     * source first sends). Each row holds nodeCount() RouteRefs into
     * routeArena.
     */
    std::vector<std::unique_ptr<RouteRef[]>> routeRows;
    std::vector<int> routeArena;
    std::unique_ptr<FaultInjector> injector;
    PacketPool _pool;

    /** One-entry serialization-time memo (see send()). */
    std::uint32_t serMemoBytes = ~0u;
    Tick serMemoTime = 0;

    // Interned hot-path statistics (lazy: absent from reports until
    // first bumped, exactly like the name-keyed lookups they replace).
    CounterHandle stPackets;
    CounterHandle stBytes;
    CounterHandle stDrops;
    CounterHandle stOutageDrops;
    CounterHandle stCorruptions;
    CounterHandle stLinkStalls;
    CounterHandle stRouteRows;
    CounterHandle stRouteArenaBytes;
    AccumulatorHandle accLinkStallPs;
};

} // namespace shrimp::mesh

#endif // SHRIMP_MESH_NETWORK_HH

/**
 * @file
 * The generic unit of transfer on the routing backplane.
 *
 * The mesh is payload-agnostic: the network interface attaches its own
 * packet structure as an opaque payload, and the mesh models only the
 * on-wire size, source and destination — plus, for the link-level
 * reliability protocol, a per-pair sequence number and a header/payload
 * checksum that fault injection may perturb in flight.
 */

#ifndef SHRIMP_MESH_PACKET_HH
#define SHRIMP_MESH_PACKET_HH

#include <cstdint>
#include <memory>

#include "sim/causal.hh"
#include "sim/types.hh"

namespace shrimp::mesh
{

/** Link-level packet kind: NI payload data or reliability control. */
enum class PacketKind : std::uint8_t
{
    Data, //!< carries an opaque NI payload
    Ack,  //!< cumulative acknowledgement; seq = next expected
    Nack, //!< go-back-N resend request; seq = first missing
};

/**
 * Lifecycle stamps a packet carries when per-packet latency
 * attribution is on (sim/lifecycle.hh). id == 0 means tracing is off
 * for this packet and every consumer ignores the stamps. All times
 * are absolute simulation ticks; the stage durations derived from
 * them are defined in LifecycleTracer.
 */
struct PacketLife
{
    std::uint64_t id = 0; //!< trace id, stamped at send; 0 = untraced
    Tick born = 0;        //!< send API entered (CPU starts paying)
    Tick queued = 0;      //!< accepted by the NI (queue/train flush)
    Tick injected = 0;    //!< first byte onto the backplane
    Tick delivered = 0;   //!< tail arrived at the destination NI
};

/** A packet in flight on the backplane. */
struct Packet
{
    /** Sending node. */
    NodeId src = kInvalidNode;

    /** Destination node. */
    NodeId dst = kInvalidNode;

    /** Total on-wire size, including routing and NI headers. */
    std::uint32_t wireBytes = 0;

    /**
     * Hardware (wire) packets this mesh event stands for. The NI
     * aggregates automatic-update trains into one mesh packet; this
     * keeps the mesh's packet accounting in wire packets.
     */
    std::uint32_t hwPackets = 1;

    /** Data or reliability control. */
    PacketKind kind = PacketKind::Data;

    /**
     * Reliability protocol field. Data: per-(src,dst) sequence number
     * (0 = protocol disabled). Ack/Nack: cumulative sequence.
     */
    std::uint64_t seq = 0;

    /**
     * Header/payload checksum (packetChecksum). In-flight corruption
     * perturbs it; receivers verify and drop on mismatch.
     */
    std::uint64_t checksum = 0;

    /** Opaque NI-level payload, handed to the receiver untouched. */
    std::shared_ptr<void> payload;

    /**
     * Lifecycle stamps (flight recorder). Not covered by
     * packetChecksum: the stamps are observability metadata, not
     * protocol state, so corrupting them is meaningless.
     */
    PacketLife life;

    /**
     * Causal-trace context of the operation that sent this packet
     * (sim/causal.hh). Like `life`, observability metadata outside
     * packetChecksum; it rides every copy the pipeline makes — the
     * retransmit buffer included — so the receiver's spans parent
     * correctly.
     */
    causal::CauseCtx cause;
};

/**
 * The model's stand-in for a CRC over the packet header and payload:
 * a hash of the header fields the protocol relies on. Deterministic
 * across runs (no pointers); fault corruption XORs a nonzero mask
 * into Packet::checksum so verification must fail.
 */
inline std::uint64_t
packetChecksum(const Packet &p)
{
    std::uint64_t x = std::uint64_t(p.src) |
                      (std::uint64_t(p.dst) << 32);
    x ^= std::uint64_t(p.wireBytes) * 0x9e3779b97f4a7c15ULL;
    x ^= std::uint64_t(p.hwPackets) * 0xbf58476d1ce4e5b9ULL;
    x ^= std::uint64_t(std::uint8_t(p.kind)) * 0x94d049bb133111ebULL;
    x ^= p.seq * 0xd6e8feb86659fd93ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace shrimp::mesh

#endif // SHRIMP_MESH_PACKET_HH

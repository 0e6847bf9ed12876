/**
 * @file
 * NI-level packet formats carried over the mesh as opaque payloads.
 */

#ifndef SHRIMP_NIC_PACKET_HH
#define SHRIMP_NIC_PACKET_HH

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "mesh/packet.hh"
#include "node/memory.hh"
#include "sim/types.hh"

namespace shrimp::nic
{

/** On-wire header size for every packet (routing + address + flags). */
inline constexpr std::uint32_t kPacketHeaderBytes = 16;

/** One write carried by an AU packet train. */
struct AuWrite
{
    std::uint32_t offset;      //!< byte offset within the dest page
    std::uint32_t bytes;       //!< write size
    std::uint32_t dataIndex;   //!< index into the train's data blob
};

/**
 * A deliberate-update packet: one contiguous block targeting one
 * destination page.
 */
struct DuPacket
{
    NodeId srcNode = kInvalidNode;
    node::Frame dstFrame = node::kInvalidFrame;
    std::uint32_t dstOffset = 0;
    std::vector<char> data;
    std::uint32_t notifyId = 0;     //!< notifiable-write id, 0 = none
    bool notify = false;            //!< sender's per-transfer bit
    bool urgent = false;            //!< solicited event: skip coalescing
    bool endOfMessage = true;       //!< last packet of a library message

    /**
     * Recorder stamps and the posting operation's causal context:
     * born/queued/cause are filled on the send path and copied onto
     * the mesh packet at injection. Kept in the payload rather than
     * captured by the injection lambdas, which are already near the
     * inline-callback capture budget.
     */
    PacketLife life;
};

/**
 * An automatic-update packet train: the writes snooped off the memory
 * bus for one destination page between two NI-visible ordering points.
 *
 * On the real hardware each entry of @ref writes that is not merged by
 * combining is a separate packet; the model aggregates them into one
 * mesh event while charging wire bytes and receiver per-packet costs
 * for @ref packetCount packets.
 */
struct AuTrainPacket
{
    NodeId srcNode = kInvalidNode;
    node::Frame dstFrame = node::kInvalidFrame;
    std::vector<AuWrite> writes;
    std::vector<char> data;
    std::uint32_t packetCount = 0;   //!< hardware packets represented
    std::uint32_t dataBytes = 0;     //!< total payload bytes
    bool interruptRequest = false;   //!< from the OPT entry

    /**
     * Model-level delivery confirmation: invoked by the receiving NI
     * once the writes are applied, so the sender can implement an AU
     * fence without a protocol-level acknowledgement.
     */
    std::function<void()> applied;

    /** Stamps and the train-opening store's context; see DuPacket. */
    PacketLife life;
};

/**
 * The opaque payload NICs attach to mesh packets.
 */
struct NicPayload
{
    std::variant<DuPacket, AuTrainPacket> body;
};

} // namespace shrimp::nic

#endif // SHRIMP_NIC_PACKET_HH

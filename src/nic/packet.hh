/**
 * @file
 * NI-level packet formats carried over the mesh as opaque payloads.
 */

#ifndef SHRIMP_NIC_PACKET_HH
#define SHRIMP_NIC_PACKET_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <variant>
#include <vector>

#include "mesh/packet.hh"
#include "node/memory.hh"
#include "sim/types.hh"

namespace shrimp::nic
{

/** On-wire header size for every packet (routing + address + flags). */
inline constexpr std::uint32_t kPacketHeaderBytes = 16;

class ShrimpNic;

/**
 * The stores of one AU packet train as one record stream, in store
 * order. A record is a 4-byte header (page offset and length, 16 bits
 * each) followed by the stored bytes. The first kInlineBytes of the
 * stream live in the object itself, which holds a Radix-SVM train
 * (about two 4-byte stores); a longer stream moves to one heap buffer
 * that doubles as it grows. Moving a stream leaves the source empty.
 */
class AuRecords
{
  public:
    AuRecords() = default;
    AuRecords(AuRecords &&o) noexcept { take(o); }

    AuRecords &
    operator=(AuRecords &&o) noexcept
    {
        if (this != &o)
            take(o);
        return *this;
    }

    AuRecords(const AuRecords &) = delete;
    AuRecords &operator=(const AuRecords &) = delete;

    bool empty() const { return _size == 0; }

    /** Append a store of @p bytes from @p src at page offset @p offset. */
    void
    append(std::uint32_t offset, const void *src, std::uint32_t bytes)
    {
        std::size_t end = _size + kHeaderBytes + bytes;
        if (end > _cap)
            grow(end);
        char *p = data() + _size;
        const std::uint16_t header[2] = {std::uint16_t(offset),
                                         std::uint16_t(bytes)};
        std::memcpy(p, header, kHeaderBytes);
        std::memcpy(p + kHeaderBytes, src, bytes);
        _size = end;
    }

    /** Page offset of the first store; 0 for an empty stream. */
    std::uint32_t
    firstOffset() const
    {
        std::uint16_t offset = 0;
        if (_size)
            std::memcpy(&offset, data(), sizeof offset);
        return offset;
    }

    /** Write every store into @p page, in store order. */
    void
    replay(char *page) const
    {
        const char *p = data();
        const char *end = p + _size;
        while (p < end) {
            std::uint16_t header[2];
            std::memcpy(header, p, kHeaderBytes);
            p += kHeaderBytes;
            std::memcpy(page + header[0], p, header[1]);
            p += header[1];
        }
    }

  private:
    static constexpr std::size_t kInlineBytes = 48;
    static constexpr std::size_t kHeaderBytes = 4;
    static_assert(node::kPageBytes <= 0xffff,
                  "a page offset and a store length fit in 16 bits");

    char *data() { return _heap ? _heap.get() : _inline; }
    const char *data() const { return _heap ? _heap.get() : _inline; }

    void
    grow(std::size_t need)
    {
        std::size_t cap = std::max(need, 2 * _cap);
        auto heap = std::make_unique_for_overwrite<char[]>(cap);
        std::memcpy(heap.get(), data(), _size);
        _heap = std::move(heap);
        _cap = cap;
    }

    void
    take(AuRecords &o)
    {
        _heap = std::move(o._heap);
        if (!_heap)
            std::memcpy(_inline, o._inline, o._size);
        _size = o._size;
        _cap = o._cap;
        o._size = 0;
        o._cap = kInlineBytes;
    }

    std::unique_ptr<char[]> _heap;   //!< null while inline
    std::size_t _size = 0;           //!< stream bytes
    std::size_t _cap = kInlineBytes; //!< bytes before the next grow
    char _inline[kInlineBytes];
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
 * On the real hardware each store in @ref records that is not merged
 * by combining is a separate packet; the model aggregates them into
 * one mesh event while charging wire bytes and receiver per-packet
 * costs for @ref packetCount packets.
 */
struct AuTrainPacket
{
    node::Frame dstFrame = node::kInvalidFrame;
    AuRecords records;
    std::uint32_t packetCount = 0;   //!< hardware packets represented
    std::uint32_t dataBytes = 0;     //!< total payload bytes
    bool interruptRequest = false;   //!< from the OPT entry

    /**
     * The sending NI. Once the records are replayed, the receiving
     * NI decrements the sender's count of trains in flight, so the
     * sender can implement an AU fence without a protocol-level
     * acknowledgement.
     */
    ShrimpNic *sender = nullptr;

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

/**
 * @file
 * Slab pool of mesh packets, mirroring the event kernel's record pool
 * (sim/event_queue.hh): storage grows in 256-packet slabs that are
 * never returned until the pool dies, and the free list is threaded
 * through the slabs themselves, so the steady-state per-packet cost of
 * the datapath is a pop/push on that list instead of a heap
 * allocation plus shared_ptr control block.
 *
 * Ownership discipline: acquire() hands out a slot with its id; the
 * holder (a pending delivery event or a NIC retransmit buffer) keeps
 * both and calls release(id) exactly once when done. release() resets
 * the packet in place, which drops its payload shared_ptr reference
 * immediately rather than at some later recycling point. Slots still
 * outstanding when the pool is destroyed (e.g. deliveries pending at
 * simulation teardown) are cleaned up by the slab destructors, so the
 * pool is leak-free under ASan without requiring a drained queue.
 */

#ifndef SHRIMP_MESH_PACKET_POOL_HH
#define SHRIMP_MESH_PACKET_POOL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mesh/packet.hh"

namespace shrimp::mesh
{

/** Recycling allocator for in-flight Packet records. */
class PacketPool
{
  public:
    /** A pool slot together with its id, for O(1) release. */
    struct Ref
    {
        Packet *pkt;
        std::uint32_t id;
    };

    /** Pop a free slot, growing by one slab if the pool is dry. */
    Ref
    acquire()
    {
        if (_freeHead == kNone)
            grow();
        std::uint32_t id = _freeHead;
        Slab &slab = *_slabs[id >> kSlabShift];
        std::uint32_t i = id & (kSlabSize - 1);
        _freeHead = slab.nextFree[i];
        ++_inUse;
        return {&slab.packets[i], id};
    }

    /**
     * Return slot @p id to the free list. The payload reference is
     * dropped now, not at the next acquire(); the POD fields are left
     * stale, which is fine because every acquirer whole-assigns the
     * slot.
     */
    void
    release(std::uint32_t id)
    {
        Slab &slab = *_slabs[id >> kSlabShift];
        std::uint32_t i = id & (kSlabSize - 1);
        slab.packets[i].payload.reset();
        slab.nextFree[i] = _freeHead;
        _freeHead = id;
        --_inUse;
    }

    /** Outstanding (acquired, not yet released) slots. */
    std::size_t inUse() const { return _inUse; }

    /** Total slots across all slabs ever grown. */
    std::size_t capacity() const { return _slabs.size() * kSlabSize; }

  private:
    static constexpr std::uint32_t kSlabShift = 8;
    static constexpr std::uint32_t kSlabSize = 1u << kSlabShift;
    static constexpr std::uint32_t kNone = ~0u;

    struct Slab
    {
        std::array<Packet, kSlabSize> packets;
        std::array<std::uint32_t, kSlabSize> nextFree;
    };

    void
    grow()
    {
        std::uint32_t base = std::uint32_t(_slabs.size()) << kSlabShift;
        _slabs.push_back(std::make_unique<Slab>());
        Slab &slab = *_slabs.back();
        // Chain the new slots so low ids hand out first (determinism
        // of the id sequence, matching the event kernel).
        for (std::uint32_t i = 0; i < kSlabSize; ++i)
            slab.nextFree[i] = i + 1 < kSlabSize ? base + i + 1 : kNone;
        _freeHead = base;
    }

    std::vector<std::unique_ptr<Slab>> _slabs;
    std::uint32_t _freeHead = kNone;
    std::size_t _inUse = 0;
};

} // namespace shrimp::mesh

#endif // SHRIMP_MESH_PACKET_POOL_HH

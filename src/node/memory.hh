/**
 * @file
 * A node's physical memory arena.
 *
 * Memory that participates in communication (receive buffers, SVM
 * pages, AU-bound regions) must live in the node's arena so the model
 * can translate a host pointer to a physical page frame in O(1) — the
 * same translation the SHRIMP snooping hardware performs with its
 * one-to-one physical-page / outgoing-page-table correspondence.
 */

#ifndef SHRIMP_NODE_MEMORY_HH
#define SHRIMP_NODE_MEMORY_HH

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>

#include "node/machine_params.hh"
#include "sim/logging.hh"

namespace shrimp::node
{

/** Physical page frame number within one node. */
using Frame = std::uint32_t;

/** An invalid frame. */
inline constexpr Frame kInvalidFrame = ~Frame(0);

/**
 * Bump-allocated, page-granular physical memory for one node.
 *
 * The arena is a lazily populated anonymous mapping: untouched pages
 * cost nothing, so a 16-node cluster with roomy per-node arenas
 * constructs in microseconds instead of faulting in gigabytes of
 * zeroes. Pages read as zero on first touch, matching the old
 * zero-initialised std::vector arena byte for byte.
 */
class NodeMemory
{
  public:
    /**
     * @param bytes Arena capacity; rounded up to whole pages.
     */
    explicit NodeMemory(std::size_t bytes)
        : arenaBytes((bytes + kPageBytes - 1) / kPageBytes * kPageBytes)
    {
        void *p = ::mmap(nullptr, arenaBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                         -1, 0);
        if (p == MAP_FAILED)
            fatal("cannot map a %zu-byte node arena", arenaBytes);
        arena = static_cast<char *>(p);
    }

    ~NodeMemory() { ::munmap(arena, arenaBytes); }

    NodeMemory(const NodeMemory &) = delete;
    NodeMemory &operator=(const NodeMemory &) = delete;

    /**
     * Allocate @p bytes, page-aligned when @p page_aligned (default:
     * 8-byte aligned). Allocation is permanent for the run.
     *
     * The memory always reads as zero: a bump allocation never hands
     * out a byte twice, and the MAP_NORESERVE mapping zero-fills each
     * page on first touch. Callers never clear it; a memset would
     * only fault in pages nobody else writes.
     */
    void *
    alloc(std::size_t bytes, bool page_aligned = false)
    {
        std::size_t align = page_aligned ? kPageBytes : 8;
        std::size_t start = (used + align - 1) / align * align;
        if (start + bytes > arenaBytes)
            fatal("node memory arena exhausted (%zu + %zu > %zu)",
                  start, bytes, arenaBytes);
        used = start + bytes;
        return arena + start;
    }

    /** Allocate an array of @p n T's. */
    template <typename T>
    T *
    allocArray(std::size_t n, bool page_aligned = false)
    {
        return static_cast<T *>(alloc(n * sizeof(T), page_aligned));
    }

    /** @return true if @p p points into the arena. */
    bool
    contains(const void *p) const
    {
        auto c = static_cast<const char *>(p);
        return c >= arena && c < arena + arenaBytes;
    }

    /** Physical frame of an arena pointer. */
    Frame
    frameOf(const void *p) const
    {
        if (!contains(p))
            panic("frameOf: pointer not in this node's arena");
        return Frame((static_cast<const char *>(p) - arena) /
                     kPageBytes);
    }

    /** Byte offset of an arena pointer from the arena base. */
    std::uint64_t
    offsetOf(const void *p) const
    {
        if (!contains(p))
            panic("offsetOf: pointer not in this node's arena");
        return std::uint64_t(static_cast<const char *>(p) - arena);
    }

    /** Host pointer for a (frame, offset) physical address. */
    void *
    ptrOf(Frame frame, std::uint32_t offset = 0)
    {
        std::size_t addr = std::size_t(frame) * kPageBytes + offset;
        if (addr >= arenaBytes)
            panic("ptrOf: frame %u out of range", frame);
        return arena + addr;
    }

    /** Number of page frames in the arena. */
    Frame frameCount() const { return Frame(arenaBytes / kPageBytes); }

  private:
    char *arena = nullptr;
    std::size_t arenaBytes = 0;
    std::size_t used = 0;
};

} // namespace shrimp::node

#endif // SHRIMP_NODE_MEMORY_HH

/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are (tick, sequence) ordered; the sequence number makes
 * same-tick ordering deterministic (FIFO in scheduling order).
 *
 * The implementation is allocation-free in steady state:
 *
 *  - Callbacks live in an InlineCallback: a small-buffer closure
 *    holder that never heap-allocates. Captures must fit in
 *    InlineCallback::kMaxCaptureBytes (static_assert'ed at the call
 *    site); stash bulky state behind a pointer if a closure outgrows
 *    it.
 *  - Event records are slab-pooled and recycled through an intrusive
 *    free list, so a warm queue schedules without touching the
 *    allocator. Records never move; slabs are only ever added.
 *  - The ready structure is an index-based 4-ary min-heap of POD
 *    (tick, seq, slot) keys — shallower than a binary heap and
 *    comparison is two integer compares, no indirection.
 *  - Cancellation uses a generation counter per pool slot instead of
 *    a per-event shared_ptr<bool>: an EventHandle is (queue, slot,
 *    generation), and a stale handle (the slot was recycled) simply
 *    no-ops.
 */

#ifndef SHRIMP_SIM_EVENT_QUEUE_HH
#define SHRIMP_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace shrimp
{

class EventQueue;

/**
 * A move-only, non-allocating closure holder for event callbacks.
 *
 * Any callable whose captures fit in kMaxCaptureBytes (and whose
 * alignment is no stricter than max_align_t) can be stored; bigger
 * closures fail to compile with a pointed message rather than silently
 * spilling to the heap.
 */
class InlineCallback
{
  public:
    /** Capture budget; enough for a shared_ptr plus several words. */
    static constexpr std::size_t kMaxCaptureBytes = 48;

    InlineCallback() = default;

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    template <class F,
              class = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback>>>
    InlineCallback(F &&f)
    {
        emplace(std::forward<F>(f));
    }

    ~InlineCallback() { reset(); }

    /** Store @p f, destroying any previous callable. */
    template <class F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kMaxCaptureBytes,
                      "closure captures exceed "
                      "InlineCallback::kMaxCaptureBytes; capture a "
                      "pointer/shared_ptr to bulky state instead");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "closure is over-aligned for InlineCallback");
        static_assert(std::is_nothrow_destructible_v<Fn>,
                      "event callbacks must be nothrow destructible");
        reset();
        new (buf) Fn(std::forward<F>(f));
        invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
        destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
    }

    /** Destroy the held callable, if any. */
    void
    reset()
    {
        if (destroy_) {
            destroy_(buf);
            destroy_ = nullptr;
            invoke_ = nullptr;
        }
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    void operator()() { invoke_(buf); }

  private:
    alignas(std::max_align_t) unsigned char buf[kMaxCaptureBytes];
    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
};

/**
 * Handle for a scheduled event, allowing cancellation.
 *
 * Default-constructed handles are inert. Cancelling an already-fired
 * event is a no-op: the slot's generation counter was bumped when the
 * event fired (or was recycled), so the stale handle no longer
 * matches. Handles must not outlive the queue they came from.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Prevent the event from firing; idempotent. */
    inline void cancel();

    /** @return true if this handle refers to a real event. */
    bool valid() const { return queue != nullptr; }

  private:
    friend class EventQueue;
    EventHandle(EventQueue *q, std::uint32_t slot, std::uint32_t gen)
        : queue(q), slot(slot), gen(gen)
    {}

    EventQueue *queue = nullptr;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
};

/**
 * A time-ordered queue of callbacks.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return the current simulated time. */
    Tick now() const { return _now; }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <class F>
    void
    schedule(Tick delay, F &&fn)
    {
        scheduleAt(_now + delay, std::forward<F>(fn));
    }

    /** Schedule @p fn at absolute time @p when (>= now). */
    template <class F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        std::uint32_t slot = post(when);
        record(slot).fn.emplace(std::forward<F>(fn));
    }

    /** Like schedule, but returns a handle usable to cancel. */
    template <class F>
    EventHandle
    scheduleCancellable(Tick delay, F &&fn)
    {
        std::uint32_t slot = post(_now + delay);
        EventRecord &rec = record(slot);
        rec.fn.emplace(std::forward<F>(fn));
        return EventHandle(this, slot, rec.gen);
    }

    /** @return true if no events remain. */
    bool empty() const { return heap.empty(); }

    /** Number of pending events (cancelled-but-unfired included). */
    std::size_t size() const { return heap.size(); }

    /**
     * @return true if an event (cancelled-but-unfired included) is
     * due at the current tick. When it is false, an event scheduled
     * now would be the very next one to run.
     */
    bool
    dueNow() const
    {
        return !heap.empty() && heap.front().when == _now;
    }

    /**
     * Run the next event; advances time to its timestamp.
     * @return false if the queue was empty.
     */
    bool step();

    /** Run until the queue drains. */
    void run();

    /**
     * Run until simulated time would exceed @p limit. Events exactly at
     * @p limit still run. @return true if the queue drained.
     */
    bool runUntil(Tick limit);

    /** Total events executed (for reporting/debug). */
    std::uint64_t executed() const { return _executed; }

    /** Cancel the event named by (@p slot, @p gen); stale = no-op. */
    void
    cancel(std::uint32_t slot, std::uint32_t gen)
    {
        EventRecord &rec = record(slot);
        if (rec.live && rec.gen == gen)
            rec.cancelled = true;
    }

  private:
    /** Heap keys are POD; ordering is (when, seq) lexicographic. */
    struct HeapKey
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        operator<(const HeapKey &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** One pooled event; lives at a stable slab address. */
    struct EventRecord
    {
        InlineCallback fn;
        std::uint32_t gen = 0;      //!< bumped on every recycle
        std::uint32_t nextFree = 0; //!< free-list link (slot index)
        bool live = false;          //!< scheduled and not yet recycled
        bool cancelled = false;
    };

    static constexpr std::uint32_t kSlabShift = 8;
    static constexpr std::uint32_t kSlabSize = 1u << kSlabShift;
    static constexpr std::uint32_t kNoFreeSlot = ~std::uint32_t(0);

    EventRecord &
    record(std::uint32_t slot)
    {
        return slabs[slot >> kSlabShift][slot & (kSlabSize - 1)];
    }

    /** Take a slot from the pool and push its heap key at @p when. */
    std::uint32_t post(Tick when);

    /** Return @p slot to the free list, bumping its generation. */
    void recycle(std::uint32_t slot);

    /** Grow the pool by one slab, threading it onto the free list. */
    void addSlab();

    void heapPush(HeapKey key);
    HeapKey heapPop();

    std::vector<std::unique_ptr<EventRecord[]>> slabs;
    std::uint32_t freeHead = kNoFreeSlot;

    std::vector<HeapKey> heap;

    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t _executed = 0;
};

void
EventHandle::cancel()
{
    if (queue)
        queue->cancel(slot, gen);
}

} // namespace shrimp

#endif // SHRIMP_SIM_EVENT_QUEUE_HH

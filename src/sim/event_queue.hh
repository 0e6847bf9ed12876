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
 *  - A resource that hands out its work at nondecreasing ticks queues
 *    it in a Lane instead: a FIFO of its own whose head alone has a
 *    key in the heap (see Lane).
 */

#ifndef SHRIMP_SIM_EVENT_QUEUE_HH
#define SHRIMP_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
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
 * What the queue knows of a Lane: a registered id, and how to run the
 * lane's head when its key comes to the top of the heap.
 */
class LaneBase
{
  public:
    LaneBase(const LaneBase &) = delete;
    LaneBase &operator=(const LaneBase &) = delete;

  protected:
    /** Register with @p q, which runs this lane's head from its heap. */
    explicit LaneBase(EventQueue &q);
    ~LaneBase() = default;

    /**
     * The sequence number of an item queued now to run at @p when,
     * taken as scheduleAt takes an event's. Panics when @p when is in
     * the past or before @p tail, the tick of the lane's last item.
     */
    inline std::uint64_t stamp(Tick when, Tick tail);

    /**
     * An item was queued at (@p when, @p seq): key it into the heap
     * when it is the lane's head (@p head), else count it behind.
     */
    inline void queued(Tick when, std::uint64_t seq, bool head);

    /** The item behind the running head, at (@p when, @p seq), leads. */
    inline void promoted(Tick when, std::uint64_t seq);

  private:
    friend class EventQueue;

    /** Run the head item at its tick; the queue calls nothing else. */
    virtual void runHead() = 0;

    EventQueue &queue;
    const std::uint32_t id; //!< heap slot of the lane's key
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

    /**
     * Number of pending events (cancelled-but-unfired included), each
     * queued lane item counted as one.
     */
    std::size_t size() const { return heap.size() + laneBehind; }

    /**
     * @return true if an event (cancelled-but-unfired included) or a
     * lane item is due at the current tick. When it is false, an event
     * scheduled now would be the very next one to run.
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

    /** Total events executed, each lane item once (reporting/debug). */
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
    friend class LaneBase;

    /**
     * Heap keys are POD; ordering is (when, seq) lexicographic. A key
     * with kLaneBit set in its slot is a lane's head: the low bits
     * index the lane in @ref lanes.
     */
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
    static constexpr std::uint32_t kLaneBit = 1u << 31;

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

    /** Register @p lane; @return its heap slot (kLaneBit set). */
    std::uint32_t addLane(LaneBase *lane);

    std::vector<std::unique_ptr<EventRecord[]>> slabs;
    std::uint32_t freeHead = kNoFreeSlot;

    std::vector<HeapKey> heap;

    std::vector<LaneBase *> lanes;
    std::size_t laneBehind = 0; //!< lane items queued behind a head

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

std::uint64_t
LaneBase::stamp(Tick when, Tick tail)
{
    if (when < queue._now)
        panic("scheduling an event in the past");
    if (when < tail)
        panic("lane item due at %llu, before its lane's tail at %llu",
              (unsigned long long)when, (unsigned long long)tail);
    return queue.nextSeq++;
}

void
LaneBase::queued(Tick when, std::uint64_t seq, bool head)
{
    if (head)
        queue.heapPush(EventQueue::HeapKey{when, seq, id});
    else
        ++queue.laneBehind;
}

void
LaneBase::promoted(Tick when, std::uint64_t seq)
{
    --queue.laneBehind;
    queue.heapPush(EventQueue::HeapKey{when, seq, id});
}

/**
 * A FIFO of items that one resource hands out at nondecreasing ticks,
 * each run by the lane's handler at its tick.
 *
 * Only the head has a key in the queue's heap, so a resource with a
 * long backlog costs the heap one entry. Each item takes its sequence
 * number when it is pushed, so it runs at exactly the (tick, seq)
 * place an event scheduled there would: a lane changes what the heap
 * holds, never the order in which anything runs. Before the handler
 * runs an item, the lane keys the next head into the heap, so
 * dueNow() sees what it would see if every item were an event. A
 * push due before the lane's tail panics; there is no fallback.
 *
 * The lane owns its queued items and destroys them with itself.
 * Storage is a ring that starts empty and doubles when full.
 */
template <class Item>
class Lane final : public LaneBase
{
  public:
    using Handler = std::function<void(Item &)>;

    /** A lane of @p q whose items @p run runs. */
    Lane(EventQueue &q, Handler run) : LaneBase(q), run(std::move(run))
    {}

    /** Queue @p item to run at @p when, not before the tail's tick. */
    void
    push(Tick when, Item item)
    {
        Tick tail = count ? ring[(head + count - 1) & (cap - 1)].when : 0;
        std::uint64_t seq = stamp(when, tail);
        if (count == cap)
            grow();
        Entry &e = ring[(head + count) & (cap - 1)];
        e.when = when;
        e.seq = seq;
        e.item = std::move(item);
        queued(when, seq, count++ == 0);
    }

    /**
     * The item the lane runs next, or null when it is empty. While a
     * handler runs, that is the item queued behind the running one.
     */
    const Item *
    front() const
    {
        return count ? &ring[head].item : nullptr;
    }

  private:
    struct Entry
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Item item{};
    };

    void
    runHead() override
    {
        Item item = std::move(ring[head].item);
        head = (head + 1) & (cap - 1);
        if (--count)
            promoted(ring[head].when, ring[head].seq);
        run(item);
    }

    void
    grow()
    {
        std::size_t bigger = cap ? 2 * cap : 4;
        auto fresh = std::make_unique<Entry[]>(bigger);
        for (std::size_t i = 0; i < count; ++i)
            fresh[i] = std::move(ring[(head + i) & (cap - 1)]);
        ring = std::move(fresh);
        cap = bigger;
        head = 0;
    }

    Handler run;
    std::unique_ptr<Entry[]> ring; //!< cap entries, a power of two
    std::size_t cap = 0;
    std::size_t head = 0;  //!< ring index of the head
    std::size_t count = 0; //!< items queued
};

} // namespace shrimp

#endif // SHRIMP_SIM_EVENT_QUEUE_HH

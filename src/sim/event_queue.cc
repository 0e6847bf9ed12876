#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace shrimp
{

LaneBase::LaneBase(EventQueue &q) : queue(q), id(q.addLane(this)) {}

EventQueue::~EventQueue()
{
    // Destroy the callbacks of still-pending events; the pool slabs
    // themselves die with the slab vector. A lane's items belong to
    // the lane, which may already be gone.
    for (const HeapKey &key : heap) {
        if (!(key.slot & kLaneBit))
            record(key.slot).fn.reset();
    }
}

std::uint32_t
EventQueue::addLane(LaneBase *lane)
{
    if (lanes.size() >= kLaneBit)
        panic("too many event lanes");
    lanes.push_back(lane);
    return kLaneBit | std::uint32_t(lanes.size() - 1);
}

void
EventQueue::addSlab()
{
    // Slots stay below kLaneBit, which marks a lane's heap key.
    if (slabs.size() >= (std::size_t(kLaneBit) >> kSlabShift))
        panic("event pool exhausted");
    std::uint32_t base = std::uint32_t(slabs.size()) << kSlabShift;
    slabs.push_back(std::make_unique<EventRecord[]>(kSlabSize));
    // Thread the new slab onto the free list, preserving index order
    // so cold slots are reused lowest-first.
    EventRecord *slab = slabs.back().get();
    for (std::uint32_t i = 0; i < kSlabSize - 1; ++i)
        slab[i].nextFree = base + i + 1;
    slab[kSlabSize - 1].nextFree = freeHead;
    freeHead = base;
}

std::uint32_t
EventQueue::post(Tick when)
{
    if (when < _now)
        panic("scheduling an event in the past");
    if (freeHead == kNoFreeSlot)
        addSlab();
    std::uint32_t slot = freeHead;
    EventRecord &rec = record(slot);
    freeHead = rec.nextFree;
    rec.live = true;
    rec.cancelled = false;
    heapPush(HeapKey{when, nextSeq++, slot});
    return slot;
}

void
EventQueue::recycle(std::uint32_t slot)
{
    EventRecord &rec = record(slot);
    rec.fn.reset();
    rec.live = false;
    rec.cancelled = false;
    ++rec.gen; // invalidate outstanding handles
    rec.nextFree = freeHead;
    freeHead = slot;
}

void
EventQueue::heapPush(HeapKey key)
{
    // Sift up through the 4-ary heap: parent of i is (i - 1) / 4.
    std::size_t i = heap.size();
    heap.push_back(key);
    while (i > 0) {
        std::size_t parent = (i - 1) >> 2;
        if (!(key < heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = key;
}

EventQueue::HeapKey
EventQueue::heapPop()
{
    HeapKey top = heap.front();
    HeapKey last = heap.back();
    heap.pop_back();
    std::size_t n = heap.size();
    if (n == 0)
        return top;
    // Sift the old tail down: children of i are 4i+1 .. 4i+4.
    std::size_t i = 0;
    for (;;) {
        std::size_t first = (i << 2) + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        std::size_t end = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < end; ++c) {
            if (heap[c] < heap[best])
                best = c;
        }
        if (!(heap[best] < last))
            break;
        heap[i] = heap[best];
        i = best;
    }
    heap[i] = last;
    return top;
}

bool
EventQueue::step()
{
    while (!heap.empty()) {
        HeapKey key = heapPop();
        if (key.slot & kLaneBit) {
            _now = key.when;
            ++_executed;
            lanes[key.slot & ~kLaneBit]->runHead();
            return true;
        }
        EventRecord &rec = record(key.slot);
        if (rec.cancelled) {
            recycle(key.slot);
            continue;
        }
        _now = key.when;
        ++_executed;
        // Invoke in place: the record's slab address is stable even if
        // the callback schedules (slabs only grow), and the slot stays
        // live — hence un-reusable — until recycled below.
        rec.fn();
        recycle(key.slot);
        return true;
    }
    return false;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

bool
EventQueue::runUntil(Tick limit)
{
    while (!heap.empty()) {
        if (heap.front().when > limit) {
            _now = limit;
            return false;
        }
        step();
    }
    return true;
}

} // namespace shrimp

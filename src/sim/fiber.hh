/**
 * @file
 * A minimal cooperative fiber with a user-level context switch.
 *
 * Fibers let simulated processes run ordinary, blocking-style C++
 * code: a blocking simulator call swaps back to the scheduler context
 * and is later resumed from an event callback. Every simulated event
 * on the critical path pays two switches, so the switch itself is the
 * simulator's hottest host instruction sequence.
 *
 The switch is hand-written assembly (sim/fcontext.hh, DESIGN.md
 * §15) that saves only callee-saved registers + FP control state:
 * ~20 ns, no kernel involvement. A fiber resumes from whatever
 * scheduler frame calls resume(): it re-reads its return context at
 * every entry instead of caching the one it was first started from.
 */

#ifndef SHRIMP_SIM_FIBER_HH
#define SHRIMP_SIM_FIBER_HH

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/fcontext.hh"
#include "sim/logging.hh"

// ThreadSanitizer needs to be told about user-level context switches,
// or it misattributes every fiber's stack accesses to the thread that
// hosts it (each sweep worker thread hosts its own jobs' fibers).
#if defined(__SANITIZE_THREAD__)
#define SHRIMP_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SHRIMP_TSAN_FIBERS 1
#endif
#endif

#if defined(SHRIMP_TSAN_FIBERS)
#define SHRIMP_FIBER_NO_TSAN __attribute__((no_sanitize("thread"), noinline))
#else
#define SHRIMP_FIBER_NO_TSAN
#endif

// AddressSanitizer tracks the current stack's bounds and fake-stack
// state per thread; the hand-written switch must hand those over
// explicitly via __sanitizer_{start,finish}_switch_fiber.
#if defined(__SANITIZE_ADDRESS__)
#define SHRIMP_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SHRIMP_ASAN_FIBERS 1
#endif
#endif

// The sanitizer handshakes live in macros so the hot switch path
// (inlined below) compiles to nothing in plain builds.
#if defined(SHRIMP_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#define TSAN_FIBER_CREATE() __tsan_create_fiber(0)
#define TSAN_FIBER_DESTROY(f) __tsan_destroy_fiber(f)
#define TSAN_FIBER_CURRENT() __tsan_get_current_fiber()
#define TSAN_FIBER_SWITCH(f) __tsan_switch_to_fiber(f, 0)
#else
#define TSAN_FIBER_CREATE() nullptr
#define TSAN_FIBER_DESTROY(f) (void)(f)
#define TSAN_FIBER_CURRENT() nullptr
#define TSAN_FIBER_SWITCH(f) (void)(f)
#endif

#if defined(SHRIMP_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#define ASAN_START_SWITCH(fake, bottom, size) \
    __sanitizer_start_switch_fiber(fake, bottom, size)
#define ASAN_FINISH_SWITCH(fake, bottom, size) \
    __sanitizer_finish_switch_fiber(fake, bottom, size)
#else
#define ASAN_START_SWITCH(fake, bottom, size) \
    do {                                      \
    } while (0)
#define ASAN_FINISH_SWITCH(fake, bottom, size) \
    do {                                       \
    } while (0)
#endif

namespace shrimp
{

/**
 * A move-only, non-allocating holder for a fiber's body.
 *
 * Same trick as the event queue's InlineCallback, with a budget sized
 * for application lambdas instead of event closures: any callable
 * whose captures fit in kMaxCaptureBytes is stored inline, so a
 * thousand-node cluster spawns its fibers without a thousand
 * std::function heap allocations. Bigger closures fail to compile
 * with a pointed message. Unlike InlineCallback this is movable
 * (spawn passes bodies down through Process into Fiber) and accepts
 * move-only callables, which std::function never could.
 */
class FiberBody
{
  public:
    /** Capture budget; generous because fibers are few and coarse. */
    static constexpr std::size_t kMaxCaptureBytes = 256;

    FiberBody() = default;

    FiberBody(const FiberBody &) = delete;
    FiberBody &operator=(const FiberBody &) = delete;

    FiberBody(FiberBody &&other) noexcept { moveFrom(other); }

    FiberBody &
    operator=(FiberBody &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    template <class F,
              class = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, FiberBody>>>
    FiberBody(F &&f)
    {
        emplace(std::forward<F>(f));
    }

    ~FiberBody() { reset(); }

    /** Store @p f, destroying any previous callable. */
    template <class F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kMaxCaptureBytes,
                      "fiber body captures exceed "
                      "FiberBody::kMaxCaptureBytes; capture a "
                      "pointer/shared_ptr to bulky state instead");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "fiber body is over-aligned for FiberBody");
        static_assert(std::is_nothrow_destructible_v<Fn>,
                      "fiber bodies must be nothrow destructible");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "fiber bodies must be nothrow movable");
        reset();
        new (buf) Fn(std::forward<F>(f));
        invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
        destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
        relocate_ = [](void *dst, void *src) {
            Fn *s = static_cast<Fn *>(src);
            new (dst) Fn(std::move(*s));
            s->~Fn();
        };
    }

    /** Destroy the held callable, if any. */
    void
    reset()
    {
        if (destroy_) {
            destroy_(buf);
            destroy_ = nullptr;
            invoke_ = nullptr;
            relocate_ = nullptr;
        }
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    void operator()() { invoke_(buf); }

  private:
    void
    moveFrom(FiberBody &other) noexcept
    {
        if (!other.invoke_)
            return;
        other.relocate_(buf, other.buf);
        invoke_ = other.invoke_;
        destroy_ = other.destroy_;
        relocate_ = other.relocate_;
        other.invoke_ = nullptr;
        other.destroy_ = nullptr;
        other.relocate_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char buf[kMaxCaptureBytes];
    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
    void (*relocate_)(void *, void *) = nullptr;
};

/**
 * A fiber stack as a lazily-populated anonymous mapping with a
 * PROT_NONE guard page at its base.
 *
 * A std::vector stack zero-fills all 512 KB up front, which at a
 * thousand-node mesh (one app fiber plus service fibers per node)
 * turns into gigabytes of touched host memory. MAP_NORESERVE pages
 * cost nothing until the fiber actually recurses into them — the
 * same trick NodeMemory plays for node arenas.
 *
 * The guard page makes overflow fault loudly: stacks grow down, and
 * before it existed a deep recursion walked straight off the mapping
 * into whatever MAP_NORESERVE neighbour mmap placed below, silently
 * corrupting it. The destructor probes how far down the fiber ever
 * wrote (mincore residency scan — only pages that were touched are
 * resident) and folds it into a process-wide high-water mark,
 * exported to host-perf reports as fiber_stack_hwm_bytes.
 */
class FiberStack
{
  public:
    explicit FiberStack(std::size_t bytes);
    ~FiberStack();

    FiberStack(const FiberStack &) = delete;
    FiberStack &operator=(const FiberStack &) = delete;

    /** Usable base (just above the guard page). */
    void *data() const { return base + guardBytes; }
    /** Usable size; the guard page is extra, not carved out. */
    std::size_t size() const { return bytes; }

    /**
     * Bytes between the stack top and the lowest page the fiber ever
     * touched (0 for a never-run fiber). A residency scan, so it
     * reads whole-page granular and is host-side only — never feed
     * it into simulated time.
     */
    std::size_t highWaterBytes() const;

    /**
     * Max highWaterBytes() over every stack ever destroyed plus every
     * stack currently alive (live ones are scanned on the spot).
     */
    static std::uint64_t globalHighWaterBytes();

  private:
    char *base = nullptr;        //!< mapping base (the guard page)
    std::size_t bytes = 0;       //!< usable bytes above the guard
    std::size_t guardBytes = 0;  //!< one host page
    FiberStack *prev = nullptr;  //!< live-stack registry links
    FiberStack *next = nullptr;
};

/**
 * One cooperative execution context with its own stack.
 *
 * The fiber starts suspended; each resume() runs it until it either
 * calls yield() or its body returns. resume() must only be called from
 * the owning (scheduler) context, and yield() only from inside the
 * fiber body.
 */
class Fiber
{
  public:
    /** Default stack size: deep octree recursion needs real stacks. */
    static constexpr std::size_t kDefaultStackBytes = 512 * 1024;

    /**
     * Create a fiber that will run @p body when first resumed.
     *
     * @param body The code to run on the fiber.
     * @param stack_bytes Stack size for the fiber.
     */
    explicit Fiber(FiberBody body,
                   std::size_t stack_bytes = kDefaultStackBytes);

    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Switch from the scheduler context into the fiber. */
    void resume();

    /** Switch from inside the fiber back to the scheduler context. */
    void yield();

    /** @return true once the fiber body has returned. */
    bool finished() const { return _finished; }

    /** @return the fiber currently executing, or nullptr. */
    static Fiber *current() { return currentFiber(); }

    /**
     * One-way context transfers this fiber has performed (each
     * resume, yield, and final exit counts one). A pure function of
     * the simulated execution, so repeated runs of the same workload
     * report identical totals.
     */
    std::uint64_t switches() const { return _switches; }

    /** Stack high-water mark so far (see FiberStack). */
    std::size_t stackHighWaterBytes() const
    {
        return stack.highWaterBytes();
    }

  private:
    /*
     * current_fiber is a per-OS-thread scheduling pointer; like any
     * thread-local it cannot race — only the owning thread touches
     * its slot, and fiber-vs-host interleaving on one thread is
     * sequential. TSan models fibers as threads of their own, so it
     * sees those accesses as cross-thread; exempt them.
     */
    SHRIMP_FIBER_NO_TSAN static Fiber *
    currentFiber()
    {
        return current_fiber;
    }

    SHRIMP_FIBER_NO_TSAN static void
    setCurrentFiber(Fiber *f)
    {
        current_fiber = f;
    }

    void run();

    FiberBody body;
    FiberStack stack;

    /** First-activation entry; recovers `this` from Transfer.arg. */
    static void entry(void *from, void *arg);

    /**
     * Where this fiber is suspended (valid while not running), and
     * where it must jump to give control back (valid while running —
     * refreshed at every entry, because each resume can come from a
     * different scheduler frame).
     */
    fctx::Context fctx = nullptr;
    fctx::Context retCtx = nullptr;

    bool _finished = false;
    bool running = false;
    std::uint64_t _switches = 0;

    // TSan fiber contexts: this fiber's, and the hosting thread's at
    // the current resume (captured per resume). Unused (null) outside
    // TSan builds.
    void *tsanFiber = nullptr;
    void *tsanReturn = nullptr;

#if defined(SHRIMP_ASAN_FIBERS)
    // ASan switch handshake: the fake-stack cursor this fiber parked
    // when it last left, and the bounds of the stack it must return
    // to (reported by __sanitizer_finish_switch_fiber at each entry).
    void *asanFiberFake = nullptr;
    const void *retStackBottom = nullptr;
    std::size_t retStackSize = 0;
#endif

    // constinit: keeps cross-TU reads free of the TLS lazy-init
    // wrapper guard, whose -fsanitize=null check gcc 12 miscompiles
    // (a spurious "load of null pointer" under ASan+UBSan).
    static constinit thread_local Fiber *current_fiber;
};

// The switch wrappers are inlined: every simulated event on the
// critical path runs through them, and the call/ret pairs they'd
// otherwise cost mispredict after a stack switch (the return stack
// buffer does not survive one).

inline void
Fiber::resume()
{
    if (_finished)
        panic("resuming a finished fiber");
    if (currentFiber())
        panic("resume must be called from the scheduler context");
    setCurrentFiber(this);
    running = true;
    ++_switches;
    tsanReturn = TSAN_FIBER_CURRENT();
    // Sanitizer handshakes bracket the raw jump: TSan is told which
    // logical thread the upcoming stack belongs to, ASan which stack
    // bounds and fake-stack state to adopt. `schedFake` lives in this
    // frame, which stays alive (suspended) until the fiber jumps
    // back, completing the pair in the ASAN_FINISH below.
    void *schedFake = nullptr;
    (void)schedFake;
    ASAN_START_SWITCH(&schedFake, stack.data(), stack.size());
    TSAN_FIBER_SWITCH(tsanFiber);
    fctx::Transfer t = shrimp_fctx_jump(fctx, this);
    // The fiber yielded (or finished): remember where it parked so
    // the next resume enters there.
    fctx = t.ctx;
    ASAN_FINISH_SWITCH(schedFake, nullptr, nullptr);
}

inline void
Fiber::yield()
{
    if (currentFiber() != this)
        panic("yield called from outside the fiber");
    setCurrentFiber(nullptr);
    running = false;
    ++_switches;
    TSAN_FIBER_SWITCH(tsanReturn);
#if defined(SHRIMP_ASAN_FIBERS)
    ASAN_START_SWITCH(&asanFiberFake, retStackBottom, retStackSize);
#endif
    fctx::Transfer t = shrimp_fctx_jump(retCtx, this);
    // Resumed — possibly from a different scheduler frame than last
    // time, so refresh the return path before anything else.
    retCtx = t.ctx;
#if defined(SHRIMP_ASAN_FIBERS)
    ASAN_FINISH_SWITCH(asanFiberFake, &retStackBottom, &retStackSize);
#endif
    setCurrentFiber(this);
    running = true;
}

} // namespace shrimp

#endif // SHRIMP_SIM_FIBER_HH

/**
 * @file
 * The simulation kernel: event queue + fiber-based processes.
 *
 * A Simulation owns the clock, the event queue, the process table, the
 * statistics registry and the RNG. Simulated code runs on fibers and
 * blocks by suspending; hardware models run as plain event callbacks.
 */

#ifndef SHRIMP_SIM_SIMULATION_HH
#define SHRIMP_SIM_SIMULATION_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace shrimp
{

class Simulation;

/**
 * A simulated thread of control running on a fiber.
 *
 * Created via Simulation::spawn(). Application/model code inside the
 * process blocks through Simulation::delay()/suspend() and is resumed
 * by events or Simulation::wake().
 */
class Process
{
  public:
    const std::string &name() const { return _name; }
    bool finished() const { return fiber.finished(); }
    bool suspended() const { return state == State::Suspended; }

    /**
     * Causal-trace context of the operation this process is currently
     * executing (sim/causal.hh): it lives on the process so it travels
     * with the fiber across suspends. Managed by causal::OpSpan; both
     * zero outside a traced operation.
     */
    std::uint64_t causeTrace = 0;
    std::uint64_t causeSpan = 0;

  private:
    friend class Simulation;

    enum class State { Created, Running, Suspended, Finished };

    Process(Simulation &sim, std::string name, FiberBody body,
            std::size_t stack_bytes);

    Simulation &sim;
    std::string _name;
    Fiber fiber;
    State state = State::Created;
    bool wakePending = false;
    bool resumeScheduled = false;

    // Tracing: spawn time, start of the current blocked interval, and
    // the process's lazily created trace track.
    Tick traceSpawnAt = 0;
    Tick traceSuspendAt = kTickNever;
    int traceTrack = -1;
};

/**
 * FIFO queue of blocked processes; the building block for all
 * higher-level synchronization (bus arbitration, message waits, locks).
 */
class WaitQueue
{
  public:
    /** Block the calling process until woken. */
    void wait(Simulation &sim);

    /** Wake the longest-waiting process, if any. @return woken? */
    bool wakeOne(Simulation &sim);

    /** Wake every waiting process. @return how many. */
    std::size_t wakeAll(Simulation &sim);

    bool empty() const { return waiters.empty(); }
    std::size_t size() const { return waiters.size(); }

  private:
    std::deque<Process *> waiters;
};

/**
 * The simulation kernel.
 */
class Simulation
{
  public:
    Simulation();
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** @return current simulated time. */
    Tick now() const { return queue.now(); }

    /**
     * Schedule a plain callback @p delay from now. The callable is
     * stored inline (no heap); captures must fit in
     * InlineCallback::kMaxCaptureBytes.
     */
    template <class F>
    void
    schedule(Tick delay, F &&fn)
    {
        scheduleAt(now() + delay, std::forward<F>(fn));
    }

    /** Schedule a plain callback at absolute time @p when. */
    template <class F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        queue.scheduleAt(when, std::forward<F>(fn));
    }

    /** Schedule a cancellable callback @p delay from now. */
    template <class F>
    EventHandle
    scheduleCancellable(Tick delay, F &&fn)
    {
        return queue.scheduleCancellable(delay, std::forward<F>(fn));
    }

    /**
     * Create a process that starts running at the current time.
     *
     * The body is stored inline in the process's FiberBody (no heap
     * allocation); captures must fit FiberBody::kMaxCaptureBytes —
     * box bulky state behind a pointer if a closure outgrows it.
     *
     * @param name Debug/stat name for the process.
     * @param body Code to run; returning ends the process.
     * @param stack_bytes Fiber stack size.
     * @return a handle valid for the simulation's lifetime.
     */
    template <class F>
    Process *
    spawn(std::string name, F &&body,
          std::size_t stack_bytes = Fiber::kDefaultStackBytes)
    {
        return spawnImpl(std::move(name),
                         FiberBody(std::forward<F>(body)), stack_bytes);
    }

    /** @return the process currently executing, or nullptr. */
    Process *current() const { return _current; }

    /** Block the calling process for @p d ticks. */
    void delay(Tick d);

    /** Block the calling process until woken via wake(). */
    void suspend();

    /** Make @p p runnable again (idempotent while pending). */
    void wake(Process *p);

    /** Run events until the queue drains. */
    void run() { queue.run(); }

    /** Run until @p limit; @return true if the queue drained. */
    bool runUntil(Tick limit) { return queue.runUntil(limit); }

    /** Execute a single event. */
    bool step() { return queue.step(); }

    /** Deterministic RNG shared by models. */
    Random &rng() { return _rng; }

    /** Statistics registry. */
    StatsRegistry &stats() { return _stats; }

    /** Raw queue access (tests and models needing cancellation). */
    EventQueue &events() { return queue; }

    /** Innermost live Simulation, or nullptr (used by tracing). */
    static Simulation *currentOrNull();

    /**
     * Names of processes that have not finished — after run() drains
     * the queue, these are deadlocked (blocked with no pending event).
     */
    std::vector<std::string> unfinishedProcesses() const;

    /** Events still queued (cancelled-but-unfired included). */
    std::size_t pendingEvents() const { return queue.size(); }

    /** Events executed so far. */
    std::uint64_t executedEvents() const { return queue.executed(); }

    /**
     * One-way fiber context transfers performed by this run's
     * processes so far. A pure function of simulated execution, but
     * host metadata, so it rides in reports only under
     * SHRIMP_REPORT_HOST.
     */
    std::uint64_t fiberSwitchTotal() const;

    /** True if any event is still pending. */
    bool anyPending() const { return !queue.empty(); }

  private:
    Process *spawnImpl(std::string name, FiberBody body,
                       std::size_t stack_bytes);

    void resumeProcess(Process *p);

    EventQueue queue;
    Random _rng;
    StatsRegistry _stats;
    std::vector<std::unique_ptr<Process>> processes;
    Process *_current = nullptr;
};

} // namespace shrimp

#endif // SHRIMP_SIM_SIMULATION_HH

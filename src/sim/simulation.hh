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
#include "sim/recorder.hh"
#include "sim/stats.hh"
#include "sim/time_account.hh"
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
     * One-way fiber context transfers this process has made (see
     * Fiber::switches); Simulation::fiberSwitchTotal sums them.
     */
    std::uint64_t switches() const { return fiber.switches(); }

    /**
     * Causal-trace context of the operation this process is currently
     * executing (sim/recorder.hh): it lives on the process so it
     * travels with the fiber across suspends. Managed by
     * causal::OpSpan; both zero outside a traced operation.
     */
    std::uint64_t causeTrace = 0;
    std::uint64_t causeSpan = 0;

    /**
     * Figure-4 time breakdown of this process. Libraries switch its
     * category through ScopedCategory; the application that measures
     * the process starts and stops it.
     */
    TimeAccount account;

    /**
     * Set where a service process (a NIC send engine, a notification
     * dispatcher) is spawned: it waits for work for the whole run by
     * design, so a drained run that leaves it blocked has not
     * deadlocked it.
     */
    bool service = false;

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
 * Setup rendezvous of a fixed number of processes (model-level,
 * uncharged): each arrives once, then polls every 10 µs of simulated
 * time until all have arrived. The last arrival passes straight
 * through.
 */
class Rendezvous
{
  public:
    /** A rendezvous of @p n processes. */
    explicit Rendezvous(int n) : n(n) {}

    /** Count the calling process in; block until all n are in. */
    void arriveAndWait(Simulation &sim);

  private:
    int n;
    int arrived = 0;
};

/**
 * The simulation kernel.
 */
class Simulation
{
  public:
    Simulation();

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

    /**
     * Block the calling process for @p d ticks. The timer resumes the
     * process in its own event when no other event is due at that
     * tick, and otherwise schedules the resume as wake() does; either
     * way the process runs where wake()'s resume event would have.
     */
    void delay(Tick d);

    /** Block the calling process until woken via wake(). */
    void suspend();

    /** Make @p p runnable again (idempotent while pending). */
    void wake(Process *p);

    /**
     * Resume @p p inside the current event, where wake() would have
     * scheduled a separate one. Event context only; panics unless
     * @p p is suspended with no resume scheduled.
     */
    void resumeNow(Process *p);

    /**
     * Run @p fn where an event scheduled now would run: in place when
     * no other event is due at this tick (it would be the very next
     * event), else as a new event behind the ones that are.
     */
    template <class F>
    void
    runNext(F &&fn)
    {
        if (queue.dueNow())
            queue.schedule(0, std::forward<F>(fn));
        else
            fn();
    }

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

    /** This run's span recorder (causal log, histograms). */
    Recorder &recorder() { return _recorder; }

    /** Raw queue access (tests and models needing cancellation). */
    EventQueue &events() { return queue; }

    /**
     * Names of the unfinished processes other than service processes:
     * after run() drains the queue, these are deadlocked (blocked with
     * no pending event).
     */
    std::vector<std::string> deadlockedProcesses() const;

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

    /** Suspended with no resume scheduled: only wake() moves it. */
    static bool
    parked(const Process *p)
    {
        return p->state == Process::State::Suspended &&
               !p->resumeScheduled;
    }

    void resumeProcess(Process *p);

    // First, so it outlives everything that records into it.
    Recorder _recorder;
    EventQueue queue;
    Random _rng;
    StatsRegistry _stats;
    std::vector<std::unique_ptr<Process>> processes;
    Process *_current = nullptr;
};

/**
 * RAII category switch on the running process's time account: enters
 * @p c on construction, restores the previous category on destruction.
 * Outside a process (an event callback) it does nothing.
 */
class ScopedCategory
{
  public:
    ScopedCategory(Simulation &sim, TimeCategory c)
        : sim(sim), proc(sim.current())
    {
        if (proc) {
            saved = proc->account.category();
            proc->account.switchTo(c, sim.now());
        }
    }

    ~ScopedCategory()
    {
        if (proc)
            proc->account.switchTo(saved, sim.now());
    }

    ScopedCategory(const ScopedCategory &) = delete;
    ScopedCategory &operator=(const ScopedCategory &) = delete;

  private:
    Simulation &sim;
    Process *proc;
    TimeCategory saved = TimeCategory::Compute;
};

} // namespace shrimp

#endif // SHRIMP_SIM_SIMULATION_HH

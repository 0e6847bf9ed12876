#include "sim/simulation.hh"

#include "sim/logging.hh"
#include "sim/trace_json.hh"

namespace shrimp
{

namespace
{

/// Stack of live simulations; tests may nest construction. Per host
/// thread, so the sweep runner can run one Simulation per worker
/// without the stacks interleaving.
thread_local std::vector<Simulation *> live_simulations;

} // anonymous namespace

Process::Process(Simulation &sim, std::string name, FiberBody body,
                 std::size_t stack_bytes)
    : sim(sim), _name(std::move(name)),
      fiber(std::move(body), stack_bytes)
{
}

void
WaitQueue::wait(Simulation &sim)
{
    Process *p = sim.current();
    if (!p)
        panic("WaitQueue::wait outside a process");
    waiters.push_back(p);
    sim.suspend();
}

bool
WaitQueue::wakeOne(Simulation &sim)
{
    if (waiters.empty())
        return false;
    Process *p = waiters.front();
    waiters.pop_front();
    sim.wake(p);
    return true;
}

std::size_t
WaitQueue::wakeAll(Simulation &sim)
{
    std::size_t n = waiters.size();
    while (wakeOne(sim)) {
    }
    return n;
}

Simulation::Simulation()
{
    live_simulations.push_back(this);
}

Simulation::~Simulation()
{
    if (live_simulations.empty() || live_simulations.back() != this)
        warn("simulations destroyed out of construction order");
    else
        live_simulations.pop_back();
}

Simulation *
Simulation::currentOrNull()
{
    return live_simulations.empty() ? nullptr : live_simulations.back();
}

std::vector<std::string>
Simulation::unfinishedProcesses() const
{
    std::vector<std::string> names;
    for (const auto &p : processes) {
        if (!p->finished())
            names.push_back(p->name());
    }
    return names;
}

std::uint64_t
Simulation::fiberSwitchTotal() const
{
    std::uint64_t n = 0;
    for (const auto &p : processes)
        n += p->fiber.switches();
    return n;
}

Process *
Simulation::spawnImpl(std::string name, FiberBody body,
                      std::size_t stack_bytes)
{
    auto proc = std::unique_ptr<Process>(
        new Process(*this, std::move(name), std::move(body), stack_bytes));
    Process *p = proc.get();
    processes.push_back(std::move(proc));
    p->traceSpawnAt = now();
    p->state = Process::State::Suspended;
    p->resumeScheduled = true;
    queue.schedule(0, [this, p] {
        p->resumeScheduled = false;
        if (p->state == Process::State::Suspended)
            resumeProcess(p);
    });
    return p;
}

void
Simulation::delay(Tick d)
{
    Process *p = current();
    if (!p)
        panic("delay called outside a process");
    queue.schedule(d, [this, p] { wake(p); });
    suspend();
}

void
Simulation::suspend()
{
    Process *p = current();
    if (!p)
        panic("suspend called outside a process");
    if (p->wakePending) {
        p->wakePending = false;
        return;
    }
    if (trace_json::enabled())
        p->traceSuspendAt = now();
    p->state = Process::State::Suspended;
    _current = nullptr;
    p->fiber.yield();
    _current = p;
    p->state = Process::State::Running;
    if (trace_json::enabled() && p->traceSuspendAt != kTickNever &&
        now() > p->traceSuspendAt) {
        if (p->traceTrack < 0)
            p->traceTrack = trace_json::track(p->_name);
        trace_json::completeEvent(p->traceTrack, "blocked",
                                  p->traceSuspendAt, now());
    }
    p->traceSuspendAt = kTickNever;
}

void
Simulation::wake(Process *p)
{
    if (!p || p->finished())
        return;
    if (p->state == Process::State::Running) {
        p->wakePending = true;
        return;
    }
    if (p->resumeScheduled)
        return;
    p->resumeScheduled = true;
    queue.schedule(0, [this, p] {
        p->resumeScheduled = false;
        if (p->state == Process::State::Suspended)
            resumeProcess(p);
    });
}

void
Simulation::resumeProcess(Process *p)
{
    if (_current)
        panic("resumeProcess while another process is running");
    _current = p;
    p->state = Process::State::Running;
    p->fiber.resume();
    // The fiber either yielded (suspend updated the state already) or
    // finished.
    if (p->fiber.finished()) {
        p->state = Process::State::Finished;
        if (trace_json::enabled()) {
            if (p->traceTrack < 0)
                p->traceTrack = trace_json::track(p->_name);
            trace_json::completeEvent(p->traceTrack, "proc",
                                      p->traceSpawnAt, now());
        }
    }
    _current = nullptr;
}

} // namespace shrimp

#include "sim/simulation.hh"

#include "sim/logging.hh"

namespace shrimp
{

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

void
Rendezvous::arriveAndWait(Simulation &sim)
{
    ++arrived;
    while (arrived < n)
        sim.delay(microseconds(10));
}

Simulation::Simulation() : _recorder(*this) {}

std::vector<std::string>
Simulation::deadlockedProcesses() const
{
    std::vector<std::string> names;
    for (const auto &p : processes) {
        if (!p->finished() && !p->service)
            names.push_back(p->name());
    }
    return names;
}

std::uint64_t
Simulation::fiberSwitchTotal() const
{
    std::uint64_t n = 0;
    for (const auto &p : processes)
        n += p->switches();
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
    queue.schedule(d, [this, p] {
        // wake() would schedule p's resume at this tick, behind the
        // events already due at it. When none is due, that resume
        // would be the very next event, so run it in this one.
        if (!queue.dueNow() && parked(p))
            resumeProcess(p);
        else
            wake(p);
    });
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
    p->state = Process::State::Suspended;
    _current = nullptr;
    p->fiber.yield();
    _current = p;
    p->state = Process::State::Running;
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
Simulation::resumeNow(Process *p)
{
    if (!parked(p))
        panic("resumeNow: process '%s' is not parked", p->_name.c_str());
    resumeProcess(p);
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
    if (p->fiber.finished())
        p->state = Process::State::Finished;
    _current = nullptr;
}

} // namespace shrimp

#include "node/os.hh"

#include "sim/logging.hh"

namespace shrimp::node
{

Os::Os(Simulation &sim, Cpu &cpu, const MachineParams &params,
       std::string stat_prefix)
    : sim(sim), cpu(cpu), params(params),
      statPrefix(std::move(stat_prefix)),
      stSyscalls(sim.stats(), statPrefix + ".syscalls"),
      stInterrupts(sim.stats(), statPrefix + ".interrupts"),
      stNotifications(sim.stats(), statPrefix + ".notifications")
{
    sim.spawn(statPrefix + ".notifier", [this] { dispatcherBody(); })
        ->service = true;
}

void
Os::syscall(Tick extra)
{
    cpu.compute(params.syscallCost + extra);
    cpu.sync();
    stSyscalls.inc();
}

Tick
Os::interrupt(Tick cost)
{
    stInterrupts.inc();
    return cpu.reserveKernel(cost);
}

void
Os::postNotification(std::function<void()> handler)
{
    stNotifications.inc();
    queue.push_back(std::move(handler));
    dispatcherWait.wakeAll(sim);
}

void
Os::unblockNotifications()
{
    notificationsBlocked = false;
    dispatcherWait.wakeAll(sim);
}

void
Os::dispatcherBody()
{
    // The dispatcher never exits; the simulation simply stops running
    // it once no more notifications arrive.
    for (;;) {
        while (queue.empty() || notificationsBlocked)
            dispatcherWait.wait(sim);
        auto handler = std::move(queue.front());
        queue.pop_front();
        // Interrupt + system handler + user-level upcall cost.
        cpu.runKernel(params.notificationCost);
        handler();
    }
}

} // namespace shrimp::node

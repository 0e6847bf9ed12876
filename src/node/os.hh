/**
 * @file
 * The slice of the operating system the experiments exercise:
 * system-call costs, hardware-interrupt costs, and signal-style
 * delivery of user-level notifications (Secs 2.2, 4.3, 4.4).
 */

#ifndef SHRIMP_NODE_OS_HH
#define SHRIMP_NODE_OS_HH

#include <deque>
#include <functional>
#include <string>

#include "node/cpu.hh"
#include "node/machine_params.hh"
#include "sim/simulation.hh"

namespace shrimp::node
{

/**
 * Per-node OS model.
 *
 * Notifications are queued by the NIC interrupt path and run on a
 * dedicated dispatcher process, emulating the system-level handler
 * that "decides where to deliver the user-level notification"
 * (Sec 2.3). Handlers are user code and may block.
 */
class Os
{
  public:
    /**
     * @param sim Owning simulation.
     * @param cpu The node's CPU (handlers consume CPU time).
     * @param params Node timing parameters.
     * @param stat_prefix Prefix for statistics.
     */
    Os(Simulation &sim, Cpu &cpu, const MachineParams &params,
       std::string stat_prefix);

    /**
     * Charge one system call (plus @p extra kernel work) to the
     * calling process. Process context only.
     */
    void syscall(Tick extra = 0);

    /**
     * A device interrupt occupying the CPU for @p cost.
     * Event context; @return the handler-completion tick.
     */
    Tick interrupt(Tick cost);

    /**
     * Queue a user-level notification; the dispatcher process charges
     * the delivery cost and runs @p handler. Event or process context.
     */
    void postNotification(std::function<void()> handler);

    /** Suspend notification delivery (VMMC block operation). */
    void blockNotifications() { notificationsBlocked = true; }

    /** Resume notification delivery. */
    void unblockNotifications();

    /** Notifications not yet delivered. */
    std::size_t pendingNotifications() const { return queue.size(); }

  private:
    void dispatcherBody();

    Simulation &sim;
    Cpu &cpu;
    const MachineParams &params;
    std::string statPrefix;
    CounterHandle stSyscalls;      //!< interned ".syscalls"
    CounterHandle stInterrupts;    //!< interned ".interrupts"
    CounterHandle stNotifications; //!< interned ".notifications"
    std::deque<std::function<void()>> queue;
    WaitQueue dispatcherWait;
    bool notificationsBlocked = false;
};

} // namespace shrimp::node

#endif // SHRIMP_NODE_OS_HH

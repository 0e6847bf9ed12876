/**
 * @file
 * Timing model of the node CPU.
 *
 * Application computation is charged lazily: compute() accumulates
 * pending work, and sync() — called by every blocking/interaction
 * point — books the pending work on the CPU's exclusive timeline and
 * advances simulated time. Kernel work (interrupt handlers,
 * notification dispatch) reserves the same timeline, so a busy CPU
 * delays handlers and handlers delay the application, without any
 * double counting.
 */

#ifndef SHRIMP_NODE_CPU_HH
#define SHRIMP_NODE_CPU_HH

#include <string>

#include "node/machine_params.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace shrimp::node
{

/**
 * One node's processor.
 */
class Cpu
{
  public:
    /**
     * @param sim Owning simulation.
     * @param params Node timing parameters.
     * @param stat_prefix Prefix for CPU statistics.
     */
    Cpu(Simulation &sim, const MachineParams &params,
        std::string stat_prefix)
        : sim(sim), params(params), statPrefix(std::move(stat_prefix)),
          stBusyPs(sim.stats(), statPrefix + ".cpu_busy_ps"),
          stKernelPs(sim.stats(), statPrefix + ".cpu_kernel_ps")
    {
    }

    /** Accumulate @p t of application computation. */
    void compute(Tick t) { pending += t; }

    /** Accumulate @p n CPU cycles of computation. */
    void computeCycles(std::uint64_t n) { pending += n * params.cpuCycle; }

    /** Accumulate the cost of @p n cached memory accesses. */
    void
    chargeAccess(std::uint64_t n = 1)
    {
        pending += n * params.cachedAccess;
    }

    /** Accumulate the cost of a CPU-driven copy of @p bytes. */
    void
    chargeCopy(std::uint64_t bytes)
    {
        pending += transferTime(bytes, params.cpuCopyBytesPerSec);
    }

    /**
     * The bookkeeping half of sync(): books accumulated computation on
     * the CPU timeline without blocking, so event-context code can
     * time the wait itself. @return the tick sync() would block until;
     * now() when nothing is pending and the CPU is free.
     */
    Tick
    book()
    {
        if (pending == 0 && busyUntil <= sim.now())
            return sim.now();
        Tick start = busyUntil > sim.now() ? busyUntil : sim.now();
        busyUntil = start + pending;
        stBusyPs.inc(pending);
        pending = 0;
        return busyUntil;
    }

    /**
     * Flush accumulated computation: books it on the CPU timeline and
     * blocks the calling process until it completes. Must be called
     * from a process (fiber) context whenever pending work is nonzero.
     */
    void
    sync()
    {
        Tick until = book();
        if (until > sim.now())
            sim.delay(until - sim.now());
    }

    /**
     * Reserve the CPU for kernel work from event context (interrupt
     * handlers). @return the completion tick.
     */
    Tick
    reserveKernel(Tick cost)
    {
        Tick start = busyUntil > sim.now() ? busyUntil : sim.now();
        busyUntil = start + cost;
        stKernelPs.inc(cost);
        return busyUntil;
    }

    /**
     * Run kernel work from a process context (dispatcher fibers):
     * reserves the timeline and waits for completion.
     */
    void
    runKernel(Tick cost)
    {
        Tick done = reserveKernel(cost);
        sim.delay(done - sim.now());
    }

    /** Pending, not-yet-booked computation. */
    Tick pendingWork() const { return pending; }

    /** Parameters of the node this CPU belongs to. */
    const MachineParams &machine() const { return params; }

  private:
    Simulation &sim;
    const MachineParams &params;
    std::string statPrefix;
    CounterHandle stBusyPs;   //!< interned ".cpu_busy_ps"
    CounterHandle stKernelPs; //!< interned ".cpu_kernel_ps"
    Tick pending = 0;
    Tick busyUntil = 0;
};

} // namespace shrimp::node

#endif // SHRIMP_NODE_CPU_HH

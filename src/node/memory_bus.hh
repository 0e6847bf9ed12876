/**
 * @file
 * The Xpress memory bus arbiter.
 *
 * The key property the paper leans on (Secs 2.1, 4.5.2, 4.5.3): the
 * bus grants one master at a time and does not cycle-share between the
 * CPU and other masters. We model the bus as a reservation timeline:
 * each use books an exclusive interval at the earliest free slot at or
 * after the request time, so overlapping requests serialize in request
 * order.
 */

#ifndef SHRIMP_NODE_MEMORY_BUS_HH
#define SHRIMP_NODE_MEMORY_BUS_HH

#include <string>

#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace shrimp::node
{

/**
 * Exclusive-use memory bus for one node.
 */
class MemoryBus
{
  public:
    /**
     * @param sim Owning simulation.
     * @param stat_prefix Prefix for utilization statistics.
     */
    MemoryBus(Simulation &sim, std::string stat_prefix)
        : sim(sim), statPrefix(std::move(stat_prefix)),
          stGrants(sim.stats(), statPrefix + ".bus_grants"),
          stBusyPs(sim.stats(), statPrefix + ".bus_busy_ps")
    {
    }

    /**
     * Reserve the bus for @p duration ticks (event-driven masters,
     * e.g. DMA engines).
     *
     * @return the tick at which the reservation completes.
     */
    Tick
    reserve(Tick duration)
    {
        Tick start = busyUntil > sim.now() ? busyUntil : sim.now();
        busyUntil = start + duration;
        stGrants.inc();
        stBusyPs.inc(duration);
        return busyUntil;
    }

    /**
     * Use the bus from a process (fiber) context: blocks the caller
     * until its exclusive interval has elapsed.
     */
    void
    use(Tick duration)
    {
        Tick done = reserve(duration);
        sim.delay(done - sim.now());
    }

  private:
    Simulation &sim;
    std::string statPrefix;
    CounterHandle stGrants; //!< interned ".bus_grants"
    CounterHandle stBusyPs; //!< interned ".bus_busy_ps"
    Tick busyUntil = 0;
};

} // namespace shrimp::node

#endif // SHRIMP_NODE_MEMORY_BUS_HH

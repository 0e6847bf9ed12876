/**
 * @file
 * Per-process execution-time breakdown, the instrumentation behind the
 * paper's Figure 4 stacked bars (computation / communication / lock /
 * barrier / overhead).
 *
 * Every Process owns one TimeAccount, next to its causal context
 * (sim/simulation.hh), so the account travels with the fiber. Libraries
 * categorize a blocking wait with ScopedCategory, which switches the
 * running process's account without knowing whose it is; applications
 * start and stop the accounts of the processes they measure and copy
 * them into their results. An account counts only between start and
 * stop, so a scope entered after stop adds nothing. The account reads
 * no clock: every call takes the current time from its caller.
 */

#ifndef SHRIMP_SIM_TIME_ACCOUNT_HH
#define SHRIMP_SIM_TIME_ACCOUNT_HH

#include <array>
#include <cstddef>

#include "sim/types.hh"

namespace shrimp
{

/** Where a process's time is going. */
enum class TimeCategory : std::size_t
{
    Compute = 0,    //!< application computation
    Communication,  //!< waiting for / moving data
    Lock,           //!< lock acquisition waits
    Barrier,        //!< barrier waits
    Overhead,       //!< protocol work (diff creation, twins, handlers)
    kCount,
};

/** Printable name of a category. */
inline const char *
timeCategoryName(TimeCategory c)
{
    static const char *names[] = {
        "Computation", "Communication", "Lock", "Barrier", "Overhead",
    };
    return names[std::size_t(c)];
}

/**
 * Attributes the elapsed simulated time of one process between start
 * and stop to the currently selected category.
 */
class TimeAccount
{
  public:
    /** Begin accounting at @p now, from zero, in the Compute category. */
    void
    start(Tick now)
    {
        buckets = {};
        last = now;
        current = TimeCategory::Compute;
        running = true;
    }

    /** Switch category at @p now, attributing the slice to the old one. */
    void
    switchTo(TimeCategory c, Tick now)
    {
        if (running)
            buckets[std::size_t(current)] += now - last;
        last = now;
        current = c;
    }

    /** Close out the final slice at @p now; count nothing until start. */
    void
    stop(Tick now)
    {
        switchTo(current, now);
        running = false;
    }

    /** Accumulated time in @p c. */
    Tick
    total(TimeCategory c) const
    {
        return buckets[std::size_t(c)];
    }

    /** Sum over all categories. */
    Tick
    grandTotal() const
    {
        Tick t = 0;
        for (auto b : buckets)
            t += b;
        return t;
    }

    /** Currently active category. */
    TimeCategory category() const { return current; }

    /** Merge another account into this one (for cluster-wide means). */
    void
    merge(const TimeAccount &o)
    {
        for (std::size_t i = 0; i < buckets.size(); ++i)
            buckets[i] += o.buckets[i];
    }

  private:
    std::array<Tick, std::size_t(TimeCategory::kCount)> buckets{};
    TimeCategory current = TimeCategory::Compute;
    Tick last = 0;
    bool running = false;
};

} // namespace shrimp

#endif // SHRIMP_SIM_TIME_ACCOUNT_HH

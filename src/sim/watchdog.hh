/**
 * @file
 * Soak watchdog: an opt-in wall-clock thread that watches a running
 * simulation from the outside and dumps progress state to stderr when
 * simulated time (and the executed-event count) stops advancing for a
 * configured number of real seconds — the classic symptom of a
 * deadlocked protocol or a starved fiber in a long soak run. The same
 * dump can be requested at any moment by sending the process SIGUSR1.
 *
 * The watchdog only ever *reads* simulation state, racily and without
 * synchronization (the readers are SHRIMP_NO_TSAN-exempt): it can
 * print a slightly stale number, but it can never perturb simulated
 * time, event order, or any golden output.
 *
 * Enable with ClusterConfig::watchdogSecs, shrimp_run
 * --watchdog-secs N, or the SHRIMP_WATCHDOG_SECS environment
 * variable.
 */

#ifndef SHRIMP_SIM_WATCHDOG_HH
#define SHRIMP_SIM_WATCHDOG_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

/*
 * Exempts a watchdog reader from TSan instrumentation (and keeps it
 * out of line so the exemption survives inlining): the reads race by
 * design, and a stale value is fine where a TSan report is not. In
 * normal builds this expands to nothing.
 */
#if defined(__SANITIZE_THREAD__)
#define SHRIMP_NO_TSAN __attribute__((no_sanitize("thread"), noinline))
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SHRIMP_NO_TSAN __attribute__((no_sanitize("thread"), noinline))
#endif
#endif
#ifndef SHRIMP_NO_TSAN
#define SHRIMP_NO_TSAN
#endif

namespace shrimp
{

class Watchdog
{
  public:
    /** One racy glance at the run's progress counters. */
    struct Snapshot
    {
        std::uint64_t nowPs = 0;    //!< simulated time (picoseconds)
        std::uint64_t executed = 0; //!< events executed so far
        std::uint64_t pending = 0;  //!< events still queued
    };

    /** Reader of the progress counters (called from the watchdog
     *  thread; must be async-safe w.r.t. the simulation — reads only). */
    using SnapshotFn = std::function<Snapshot()>;

    /** Optional extra dump detail (per-node stall state); may be
     *  empty. Called only when a dump actually happens. */
    using DetailFn = std::function<std::string()>;

    Watchdog() = default;
    ~Watchdog() { stop(); }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /**
     * Start watching: if @p snap reports no progress (simulated time
     * and executed-event count both unchanged) for @p stall_secs real
     * seconds, dump to stderr. Also installs a SIGUSR1 handler that
     * requests an immediate dump. No-op when @p stall_secs <= 0.
     */
    void start(int stall_secs, SnapshotFn snap, DetailFn detail = {});

    /** Stop the thread (idempotent; called by the destructor). */
    void stop();

  private:
    void loop();
    void dump(const Snapshot &s, bool stalled, double idle_secs);

    std::thread th;
    std::mutex m;
    std::condition_variable cv;
    bool exiting = false;
    int stallSecs = 0;
    SnapshotFn snap;
    DetailFn detail;
};

} // namespace shrimp

#endif // SHRIMP_SIM_WATCHDOG_HH

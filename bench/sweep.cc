#include "bench/sweep.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "core/cluster.hh"
#include "sim/logging.hh"
#include "sim/recorder.hh"
#include "sim/run_report.hh"

namespace shrimp::bench
{

namespace
{

/** The environment variable naming the RunReport stream's file. */
constexpr const char *kReportEnv = "SHRIMP_REPORT_JSONL";

/**
 * The append-only sink of the RunReport stream, the file kReportEnv
 * names: one shared FILE handle for the whole process, lazily
 * opened, append-guarded by a mutex. A bad path is complained about
 * exactly once. Lines are written verbatim (callers terminate them).
 */
class ReportSink
{
  public:
    void
    append(const std::string &chunk)
    {
        std::lock_guard<std::mutex> lock(mutex);
        const char *p = std::getenv(kReportEnv);
        if (!p || !*p)
            return;
        // Open once per path; if the environment repoints the sink
        // (tests do), switch files. A bad path warns exactly once.
        if (path != p) {
            if (out)
                std::fclose(out);
            path = p;
            out = std::fopen(p, "a");
            if (!out)
                warn("cannot append to %s (%s)", p, kReportEnv);
        }
        if (!out)
            return;
        std::fputs(chunk.c_str(), out);
        std::fflush(out);
    }

    bool
    enabled() const
    {
        const char *p = std::getenv(kReportEnv);
        return p && *p;
    }

  private:
    std::string path;
    std::mutex mutex;
    std::FILE *out = nullptr;
};

ReportSink &
reportSink()
{
    static ReportSink sink;
    return sink;
}

/**
 * While a sweep job runs, its thread redirects report lines into a
 * per-job buffer; the sweep flushes the buffers in submission order.
 */
thread_local std::vector<std::string> *tl_report_buffer = nullptr;

/**
 * Sweeps in flight. While nonzero, only sweep worker threads (which
 * carry per-job buffers) may emit: a direct append from any other
 * thread would interleave with the submission-ordered flush and break
 * the SHRIMP_JOBS=1 vs =N byte-identity guarantee, so it panics
 * instead of corrupting the file quietly.
 */
std::atomic<int> g_sweepsActive{0};

void
assertSinkOwnership(const char *what)
{
    if (g_sweepsActive.load(std::memory_order_relaxed) > 0)
        panic("%s from a thread that is not a sweep worker while a "
              "sweep is running; emit from the job itself (the sink's "
              "flush ordering assumes one writer per path)",
              what);
}

} // anonymous namespace

int
sweepJobs()
{
    const char *v = std::getenv("SHRIMP_JOBS");
    if (!v || !*v)
        return 1;
    long n = 0;
    if (!core::parseWhole(v, 1, 64, n))
        fatal("SHRIMP_JOBS='%s': want a whole number from 1 to 64", v);
    return int(n);
}

void
emitReport(const RunReport &report)
{
    ReportSink &sink = reportSink();
    if (!sink.enabled())
        return;
    std::string line = report.toJson(/*pretty=*/false);
    line += '\n';
    if (tl_report_buffer) {
        tl_report_buffer->push_back(std::move(line));
    } else {
        assertSinkOwnership("emitReport");
        sink.append(line);
    }
}

namespace detail
{

void
runJobs(std::size_t count, const std::function<void(std::size_t)> &run_one)
{
    if (count == 0)
        return;

    std::vector<std::vector<std::string>> buffers(count);

    // Job i's Simulations take run order slot first + i, whichever
    // worker builds them, so traces and span ids do not depend on
    // the job count.
    std::uint64_t first = reserveRunSlots(count);
    auto run_buffered = [&](std::size_t i) {
        RunSlotScope order(first + i);
        tl_report_buffer = &buffers[i];
        run_one(i);
        tl_report_buffer = nullptr;
    };

    std::size_t workers = std::size_t(sweepJobs());
    if (workers > count)
        workers = count;

    g_sweepsActive.fetch_add(1, std::memory_order_relaxed);

    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            run_buffered(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            pool.emplace_back([&] {
                for (;;) {
                    std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= count)
                        return;
                    run_buffered(i);
                }
            });
        }
        for (auto &t : pool)
            t.join();
    }

    g_sweepsActive.fetch_sub(1, std::memory_order_relaxed);

    // Submission-ordered flush: byte-identical serial vs parallel.
    for (auto &buf : buffers)
        for (auto &line : buf)
            reportSink().append(line);
}

} // namespace detail

} // namespace shrimp::bench

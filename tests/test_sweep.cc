/**
 * @file
 * The parallel sweep runner: submission-ordered results, serial vs
 * parallel determinism, and byte-identical RunReport JSONL output
 * and causal logs (the golden invariant every design-conclusion
 * sweep rests on), with traced sweeps running in parallel too.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "bench/sweep.hh"
#include "sim/causal.hh"
#include "sim/causal_read.hh"

using namespace shrimp;
using namespace shrimp::bench;

namespace
{

/** A small, fast Radix-VMMC run; fully deterministic per (cfg, p). */
apps::AppResult
smallRadix(int procs, int keys,
           const core::ClusterConfig &cc = core::ClusterConfig())
{
    apps::RadixConfig cfg;
    cfg.keys = keys;
    cfg.iterations = 1;
    return apps::runRadixVmmc(cc, /*au=*/true, procs, cfg);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Run the standard 4-job sweep, reporting into @p jsonl. */
std::vector<apps::AppResult>
sweepInto(const std::string &jsonl, const char *jobs_env)
{
    ::setenv("SHRIMP_REPORT_JSONL", jsonl.c_str(), 1);
    ::setenv("SHRIMP_JOBS", jobs_env, 1);
    std::vector<std::function<apps::AppResult()>> jobs;
    for (int p : {1, 2, 4, 8}) {
        jobs.push_back([p] {
            auto r = smallRadix(p, 8 * 1024);
            maybeEmitReport(r);
            return r;
        });
    }
    auto results = runSweep(std::move(jobs));
    ::unsetenv("SHRIMP_REPORT_JSONL");
    ::unsetenv("SHRIMP_JOBS");
    return results;
}

} // anonymous namespace

TEST(Sweep, JobsEnvControlsWorkerCount)
{
    ::unsetenv("SHRIMP_JOBS");
    EXPECT_EQ(sweepJobs(), 1);
    ::setenv("SHRIMP_JOBS", "4", 1);
    EXPECT_EQ(sweepJobs(), 4);
    ::setenv("SHRIMP_JOBS", "0", 1);
    EXPECT_EQ(sweepJobs(), 1);
    ::setenv("SHRIMP_JOBS", "9999", 1);
    EXPECT_EQ(sweepJobs(), 64);
    ::unsetenv("SHRIMP_JOBS");
}

TEST(Sweep, ResultsComeBackInSubmissionOrder)
{
    ::setenv("SHRIMP_JOBS", "4", 1);
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 32; ++i)
        jobs.push_back([i] { return i * i; });
    auto results = runSweep(std::move(jobs));
    ::unsetenv("SHRIMP_JOBS");
    ASSERT_EQ(results.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(Sweep, SerialAndParallelRunsAreByteIdentical)
{
    std::string serial_path = "sweep_serial.jsonl";
    std::string parallel_path = "sweep_parallel.jsonl";
    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());

    auto serial = sweepInto(serial_path, "1");
    auto parallel = sweepInto(parallel_path, "4");

    // Simulated results agree exactly, run by run.
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].elapsed, parallel[i].elapsed) << i;
        EXPECT_EQ(serial[i].checksum, parallel[i].checksum) << i;
        EXPECT_EQ(serial[i].messages, parallel[i].messages) << i;
    }

    // Golden invariant: the JSONL report files are byte-identical.
    std::string a = slurp(serial_path);
    std::string b = slurp(parallel_path);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);

    // One report line per job, each a JSON object.
    int lines = 0;
    for (char c : a)
        lines += c == '\n';
    EXPECT_EQ(lines, 4);
    EXPECT_EQ(a.front(), '{');

    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());
}

/**
 * Traced sweeps run in parallel. With every recorder output on — the
 * causal log, lifecycle histograms and the report JSONL —
 * SHRIMP_JOBS=4 must have two jobs in flight at once and still write
 * what SHRIMP_JOBS=1 writes, byte for byte.
 */
TEST(Sweep, CausalLogIsIdenticalAcrossJobCounts)
{
    struct Outputs
    {
        std::string causal, jsonl;
        bool overlapped = false;
    };
    auto traced = [](const char *jobs_env) {
        std::string stem = testing::TempDir() + "sweep_traced_" + jobs_env;
        std::string causal_path = stem + ".causal.jsonl";
        std::string jsonl_path = stem + ".reports.jsonl";
        std::remove(jsonl_path.c_str()); // the report sink appends
        ::setenv("SHRIMP_CAUSAL", causal_path.c_str(), 1);
        ::setenv("SHRIMP_REPORT_JSONL", jsonl_path.c_str(), 1);
        ::setenv("SHRIMP_JOBS", jobs_env, 1);

        // Each job waits, bounded, until a second job is in flight.
        // One timeout means the sweep runs jobs one at a time, so the
        // rest stop waiting.
        std::mutex mu;
        std::condition_variable cv;
        int in_flight = 0;
        bool overlapped = false, gave_up = false;
        bool await_peer = std::string(jobs_env) != "1";
        std::vector<std::function<std::uint64_t()>> jobs;
        for (int p : {1, 2, 4, 8}) {
            jobs.push_back([&, p] {
                {
                    std::unique_lock<std::mutex> lock(mu);
                    ++in_flight;
                    cv.notify_all();
                    if (await_peer && !gave_up) {
                        if (cv.wait_for(lock, std::chrono::seconds(10),
                                        [&] { return in_flight >= 2; }))
                            overlapped = true;
                        else
                            gave_up = true;
                    }
                }
                core::ClusterConfig cc;
                cc.lifecycleTracing = true;
                cc.metricsInterval = microseconds(20);
                auto r = smallRadix(p, 8 * 1024, cc);
                maybeEmitReport(r);
                std::lock_guard<std::mutex> lock(mu);
                --in_flight;
                return r.checksum;
            });
        }
        runSweep(std::move(jobs));
        causal::close();
        for (const char *v : {"SHRIMP_CAUSAL", "SHRIMP_REPORT_JSONL",
                              "SHRIMP_JOBS"})
            ::unsetenv(v);

        causal_read::Log log;
        std::string err;
        EXPECT_TRUE(causal_read::load(causal_path, log, &err)) << err;
        EXPECT_TRUE(causal_read::validate(log, &err)) << err;
        // Each job's run writes the 51 gauges of its 4x4 SHRIMP NI
        // cluster after the spans, in job order.
        EXPECT_EQ(log.counters.size(), 4u * 51);

        Outputs o;
        o.causal = slurp(causal_path);
        o.jsonl = slurp(jsonl_path);
        o.overlapped = overlapped;
        for (const std::string &path : {causal_path, jsonl_path})
            std::remove(path.c_str());
        return o;
    };
    Outputs serial = traced("1");
    Outputs parallel = traced("4");

    EXPECT_TRUE(parallel.overlapped)
        << "no two traced jobs ran at once at SHRIMP_JOBS=4";
    ASSERT_FALSE(serial.causal.empty());
    EXPECT_EQ(serial.causal, parallel.causal);
    ASSERT_NE(serial.jsonl.find("latency_breakdown"), std::string::npos);
    EXPECT_EQ(serial.jsonl, parallel.jsonl);
}

TEST(Sweep, RepeatedRunsAreDeterministic)
{
    auto a = smallRadix(4, 4 * 1024);
    auto b = smallRadix(4, 4 * 1024);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(apps::makeReport(a).toJson(false),
              apps::makeReport(b).toJson(false));
}

/**
 * The sink's flush ordering assumes one writer per path: while a
 * sweep is in flight, only its worker threads (which carry per-job
 * buffers) may emit. A foreign thread appending directly would
 * interleave nondeterministically with the submission-ordered flush,
 * so it dies loudly instead.
 */
TEST(SweepSinkOwnership, ForeignThreadEmitDiesDuringSweep)
{
    EXPECT_DEATH(
        {
            std::string path =
                testing::TempDir() + "sink_ownership.jsonl";
            ::setenv("SHRIMP_REPORT_JSONL", path.c_str(), 1);
            ::setenv("SHRIMP_JOBS", "1", 1);
            std::vector<std::function<int()>> jobs;
            jobs.push_back([] {
                // A thread the sweep does not know about (no per-job
                // buffer) emitting mid-sweep.
                std::thread rogue([] {
                    RunReport rep;
                    emitReport(rep);
                });
                rogue.join();
                return 0;
            });
            runSweep(std::move(jobs));
        },
        "not a sweep worker");
}


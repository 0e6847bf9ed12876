/**
 * @file
 * The flight recorder: log-scale histograms, the gauges the run's
 * recorder samples into the causal log, the packet-lifecycle latency
 * attribution, and the golden invariant that turning observability on
 * changes nothing about the simulated run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/app_common.hh"
#include "apps/radix.hh"
#include "sim/causal.hh"
#include "sim/causal_read.hh"
#include "sim/recorder.hh"
#include "sim/run_report.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

using namespace shrimp;

namespace
{

/** A small, fast Radix-VMMC run under the given cluster config. */
apps::AppResult
smallRadix(core::ClusterConfig cc, int procs = 4, int keys = 4 * 1024)
{
    apps::RadixConfig cfg;
    cfg.keys = std::size_t(keys);
    cfg.iterations = 1;
    return apps::runRadixVmmc(cc, /*au=*/true, procs, cfg);
}

/** smallRadix with the causal log open at @p path. */
apps::AppResult
loggedRadix(core::ClusterConfig cc, const std::string &path)
{
    causal::open(path);
    apps::AppResult r = smallRadix(cc);
    causal::close();
    return r;
}

/** Load + validate a causal log, failing the test on any error. */
causal_read::Log
loadValid(const std::string &path)
{
    causal_read::Log log;
    std::string err;
    EXPECT_TRUE(causal_read::load(path, log, &err)) << err;
    EXPECT_TRUE(causal_read::validate(log, &err)) << err;
    std::remove(path.c_str());
    return log;
}

} // anonymous namespace

// ----------------------------------------------------------------------
// Log-scale histograms
// ----------------------------------------------------------------------

TEST(LogHistogram, BucketsCoverDecadesAndPercentilesInterpolate)
{
    StatsRegistry stats;
    // 64 buckets/decade over [0.01, 1e4]: bucket ratio ~1.037, so any
    // percentile lands within ~2% of the sampled value.
    Histogram &h = stats.logHistogram("h", 0.01, 1e4, 384);
    EXPECT_TRUE(h.logScale());

    for (double v : {0.02, 0.5, 3.0, 42.0, 900.0, 5000.0})
        h.sample(v);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);

    // Same sample repeated: every percentile reconstructs it closely.
    Histogram &one = stats.logHistogram("one", 0.01, 1e4, 384);
    for (int i = 0; i < 100; ++i)
        one.sample(7.5);
    for (double p : {10.0, 50.0, 95.0, 99.0})
        EXPECT_NEAR(one.percentile(p), 7.5, 7.5 * 0.04) << p;

    // Out-of-range samples land in the under/overflow tallies.
    Histogram &edge = stats.logHistogram("edge", 1.0, 100.0, 16);
    edge.sample(0.5);
    edge.sample(200.0);
    EXPECT_EQ(edge.underflow(), 1u);
    EXPECT_EQ(edge.overflow(), 1u);
}

TEST(LogHistogram, LowEdgesAreMonotoneGeometric)
{
    StatsRegistry stats;
    Histogram &h = stats.logHistogram("h", 0.1, 1000.0, 40);
    double prev = 0;
    for (std::size_t i = 0; i < h.bucketCount(); ++i) {
        double lo = h.bucketLowEdge(i);
        EXPECT_GT(lo, prev);
        prev = lo;
    }
    EXPECT_NEAR(h.bucketLowEdge(0), 0.1, 1e-12);
    // The edge one past the last bucket is the histogram's hi bound.
    EXPECT_NEAR(h.bucketLowEdge(h.bucketCount()), 1000.0, 1e-9);
}

TEST(Scalars, SetAndSnapshot)
{
    StatsRegistry stats;
    stats.scalar("x").set(2.5);
    stats.scalar("x").set(7.0); // last write wins
    EXPECT_EQ(stats.scalarValue("x"), 7.0);
    EXPECT_EQ(stats.scalarValue("absent"), 0.0);
}

// ----------------------------------------------------------------------
// Gauges
// ----------------------------------------------------------------------

TEST(Recorder, SamplesGaugesOnCadenceAndStopsWithTheRun)
{
    std::string path = testing::TempDir() + "recorder_gauges.jsonl";
    causal::open(path);
    {
        Simulation sim;
        int ticks = 0;
        // A busy-work chain that keeps the queue alive for exactly 100 us.
        std::function<void()> chain = [&] {
            if (++ticks < 100)
                sim.schedule(microseconds(1), chain);
        };
        sim.schedule(microseconds(1), chain);

        Recorder &rec = sim.recorder();
        rec.addGauge(2, "test.ticks", [&] { return double(ticks); });
        rec.addGauge(-1, "test.half", [&] { return ticks / 2.0; });
        rec.sampleEvery(microseconds(10));
        sim.run(); // must terminate: sampling never self-perpetuates
    }
    causal::close();
    causal_read::Log log = loadValid(path);

    ASSERT_EQ(log.counters.size(), 2u);
    const causal_read::Counter &ticks = log.counters[0];
    EXPECT_EQ(ticks.name, "test.ticks");
    EXPECT_EQ(ticks.node, 2);
    EXPECT_EQ(ticks.everyPs, microseconds(10));
    // The sample at 10k us runs before the chain's event at that tick,
    // which was scheduled later; the one at 100 us still sees the
    // chain's last event pending, so one more sample follows it.
    std::vector<double> expect;
    for (int k = 1; k <= 10; ++k)
        expect.push_back(10.0 * k - 1);
    expect.push_back(100.0);
    EXPECT_EQ(ticks.values, expect);

    const causal_read::Counter &half = log.counters[1];
    EXPECT_EQ(half.name, "test.half");
    EXPECT_EQ(half.node, -1);
    ASSERT_EQ(half.values.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(half.values[i], expect[i] / 2) << i;
}

TEST(Recorder, ClusterRunWritesItsGaugesToTheLog)
{
    core::ClusterConfig cc;
    cc.metricsInterval = microseconds(20);
    std::string path = testing::TempDir() + "recorder_cluster.jsonl";
    auto r = loggedRadix(cc, path);
    causal_read::Log log = loadValid(path);

    // Three gauges on each of the 16 nodes of the SHRIMP NI cluster,
    // in node order, then the three cluster-wide ones.
    ASSERT_EQ(log.counters.size(), 16u * 3 + 3);
    const char *perNode[] = {"bus_util", "nic.fifo_fill", "nic.eisa_util"};
    const char *wide[] = {"mesh.link_backlog_us", "mesh.links_busy",
                          "sim.event_queue"};
    const std::size_t samples = log.counters[0].values.size();
    ASSERT_GT(samples, 0u);
    for (std::size_t i = 0; i < log.counters.size(); ++i) {
        const causal_read::Counter &c = log.counters[i];
        if (i < 48) {
            EXPECT_EQ(c.node, int(i / 3)) << i;
            EXPECT_EQ(c.name, perNode[i % 3]) << i;
        } else {
            EXPECT_EQ(c.node, -1) << i;
            EXPECT_EQ(c.name, wide[i - 48]) << i;
        }
        EXPECT_EQ(c.everyPs, microseconds(20)) << i;
        EXPECT_EQ(c.values.size(), samples) << i;
    }
    // Sampling lasts as long as the run, so it covers the measured
    // region.
    EXPECT_GE(Tick(samples) * microseconds(20), r.elapsed);
}

// ----------------------------------------------------------------------
// Golden invariant: observability changes nothing simulated
// ----------------------------------------------------------------------

TEST(FlightRecorder, SamplingAndLifecycleLeaveTheRunBitIdentical)
{
    core::ClusterConfig off;
    auto a = smallRadix(off);

    // The gauges sample only into an open log.
    core::ClusterConfig on;
    on.metricsInterval = microseconds(5);
    on.lifecycleTracing = true;
    std::string path = testing::TempDir() + "recorder_bit_identical.jsonl";
    auto b = loggedRadix(on, path);
    ASSERT_FALSE(loadValid(path).counters.empty());

    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.messages, b.messages);

    // Every counter the plain run had must be unchanged — the traced
    // run may only *add* entries (and in fact adds none).
    const auto &ca = a.stats.allCounters();
    const auto &cb = b.stats.allCounters();
    for (const auto &kv : ca) {
        auto it = cb.find(kv.first);
        ASSERT_NE(it, cb.end()) << kv.first;
        EXPECT_EQ(kv.second.value(), it->second.value()) << kv.first;
    }
}

/**
 * The samples have nowhere to go without the causal log, so a run
 * with a cadence and no log schedules no sampling event at all.
 */
TEST(FlightRecorder, CadenceWithoutALogSchedulesNothing)
{
    core::ClusterConfig cadence;
    cadence.metricsInterval = microseconds(5);
    auto plain = smallRadix(core::ClusterConfig{});
    auto unlogged = smallRadix(cadence);
    EXPECT_EQ(unlogged.hostEvents, plain.hostEvents);

    // With the log open the same cadence does add its events.
    std::string path = testing::TempDir() + "recorder_cadence.jsonl";
    auto logged = loggedRadix(cadence, path);
    std::remove(path.c_str());
    EXPECT_GT(logged.hostEvents, plain.hostEvents);
    EXPECT_EQ(logged.elapsed, plain.elapsed);
}

TEST(FlightRecorder, LifecycleFillsLatencyBreakdown)
{
    core::ClusterConfig cc;
    cc.lifecycleTracing = true;
    auto r = smallRadix(cc);

    RunReport rep = apps::makeReport(r);
    ASSERT_TRUE(rep.latency.enabled);
    ASSERT_EQ(rep.latency.stages.size(),
              std::size_t(LifeStage::kCount));
    const auto &total = rep.latency.stages.back();
    EXPECT_EQ(total.stage, "total");
    EXPECT_GT(total.count, 0u);
    EXPECT_GT(total.p50Us, 0.0);
    EXPECT_GE(total.p99Us, total.p50Us);

    // The per-stage means must add up to the end-to-end mean: the
    // stages partition [born, rx_done] exactly.
    double sum = 0;
    for (const auto &s : rep.latency.stages)
        if (s.stage != "total")
            sum += s.meanUs;
    EXPECT_NEAR(sum, total.meanUs, 0.05 * total.meanUs);

    EXPECT_NE(rep.toJson(false).find("\"latency_breakdown\""),
              std::string::npos);
}

// ----------------------------------------------------------------------
// Reliability observability satellites
// ----------------------------------------------------------------------

TEST(FlightRecorder, AckRttSamplesAppearUnderFaultMode)
{
    core::ClusterConfig cc;
    cc.network.fault.forceReliability = true;
    auto r = smallRadix(cc, 2);

    // The sender node recorded round-trip samples...
    const Histogram *rtt =
        r.stats.findHistogram("node0.rel.ack_rtt_us");
    ASSERT_NE(rtt, nullptr);
    EXPECT_GT(rtt->count(), 0u);
    EXPECT_TRUE(rtt->logScale());
    EXPECT_GT(rtt->percentile(50), 0.0);

    // ...and the per-channel scalars exist with sane values.
    EXPECT_GT(r.stats.scalarValue("node0.rel.dst1.srtt_us"), 0.0);
    EXPECT_EQ(r.stats.scalarValue("node0.rel.dst1.gave_up"), 0.0);
    EXPECT_EQ(r.stats.scalarValue("node0.rel.dst1.outstanding"), 0.0);
}

/**
 * @file
 * Causal-tracing tests (sim/causal.hh + sim/causal_read.hh):
 *
 *   - tracing is an observer: enabling it changes neither the
 *     workload checksum nor one byte of the RunReport;
 *   - the emitted span DAG holds its invariants (unique ids, parents
 *     present, consistent trace ids, children never start before
 *     their parents), including under packet retransmission, where
 *     retransmits must reuse the original send's context;
 *   - the critical-path reconstruction is an exact partition of the
 *     chosen operation's interval;
 *   - per-stage packet span means equal the lifecycle histogram
 *     means (the PR-4 cross-check);
 *   - two runs of the same workload emit byte-identical causal logs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/app_common.hh"
#include "apps/radix.hh"
#include "sim/causal.hh"
#include "sim/causal_read.hh"
#include "sim/lifecycle.hh"
#include "sim/run_report.hh"

using namespace shrimp;

namespace
{

std::string
tmpPath(const char *name)
{
    return testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The pinned workload every test runs (matches test_golden's). */
apps::AppResult
pinnedRadix(const core::ClusterConfig &cc)
{
    apps::RadixConfig cfg;
    cfg.keys = 8 * 1024;
    return apps::runRadixVmmc(cc, /*au=*/true, /*procs=*/4, cfg);
}

/** Run pinnedRadix with the causal recorder writing to @p path. */
apps::AppResult
tracedRadix(const core::ClusterConfig &cc, const std::string &path)
{
    causal::open(path);
    apps::AppResult r = pinnedRadix(cc);
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
    return log;
}

} // anonymous namespace

/**
 * Tracing must be a pure observer: same checksum, same simulated
 * time, byte-identical report with the recorder on vs off.
 */
TEST(Causal, TracingDoesNotPerturbTheRun)
{
    core::ClusterConfig cc;
    auto base = pinnedRadix(cc);
    auto traced = tracedRadix(cc, tmpPath("causal_perturb.jsonl"));

    EXPECT_EQ(base.checksum, traced.checksum);
    EXPECT_EQ(base.elapsed, traced.elapsed);
    EXPECT_EQ(apps::makeReport(base).toJson(true),
              apps::makeReport(traced).toJson(true));
}

/** The span DAG of a clean run holds its invariants. */
TEST(Causal, SpanDagInvariantsHold)
{
    std::string path = tmpPath("causal_dag.jsonl");
    tracedRadix(core::ClusterConfig{}, path);
    causal_read::Log log = loadValid(path);
    ASSERT_FALSE(log.spans.empty());

    // Every layer the radix-vmmc datapath crosses shows up.
    bool saw_coll = false, saw_vmmc = false, saw_pkt = false;
    for (const auto &s : log.spans) {
        saw_coll |= s.name.rfind("coll.", 0) == 0;
        saw_vmmc |= s.name.rfind("vmmc.", 0) == 0;
        saw_pkt |= s.name.rfind("pkt.", 0) == 0;
    }
    EXPECT_TRUE(saw_coll);
    EXPECT_TRUE(saw_vmmc);
    EXPECT_TRUE(saw_pkt);
}

/**
 * Under a lossy fault plane, retransmissions must reuse the original
 * send's context: a nic.retx span is parented inside the trace of
 * the operation that first sent the packet. Packets born outside any
 * traced operation (radix's raw AU stores in the permutation loop)
 * legitimately retransmit as context-free roots, so the assertion is
 * that parented retransmits exist and link consistently — a resend
 * never invents a fresh trace for a packet that had one.
 */
TEST(Causal, RetransmitsReuseTheOriginalContext)
{
    core::ClusterConfig cc;
    cc.network.fault.dropRate = 0.005;
    cc.network.fault.seed = 7;
    std::string path = tmpPath("causal_retx.jsonl");
    auto r = tracedRadix(cc, path);
    ASSERT_GT(r.stats.counterValue("mesh.retransmits"), 0u);

    causal_read::Log log = loadValid(path);
    std::size_t retx = 0, parented = 0;
    for (const auto &s : log.spans) {
        if (s.name != "nic.retx")
            continue;
        ++retx;
        if (s.parent == 0)
            continue; // a causeless (raw-AU) packet's resend
        ++parented;
        const causal_read::Span *p = log.byId(s.parent);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(s.trace, p->trace);
        EXPECT_GE(s.startPs, p->startPs);
    }
    EXPECT_GT(retx, 0u);
    EXPECT_GT(parented, 0u)
        << "no retransmit kept its original send's context";
}

/**
 * The critical-path attribution is an exact partition: the per-name
 * picoseconds sum to the root interval, for every trace root.
 */
TEST(Causal, CriticalPathPartitionsTheRootExactly)
{
    std::string path = tmpPath("causal_cp.jsonl");
    tracedRadix(core::ClusterConfig{}, path);
    causal_read::Log log = loadValid(path);

    const causal_read::Span *longest =
        causal_read::findRoot(log, "coll.reduce");
    ASSERT_NE(longest, nullptr);

    std::size_t roots = 0;
    for (const auto &s : log.spans) {
        if (s.parent != 0)
            continue;
        ++roots;
        causal_read::CriticalPath cp;
        std::string err;
        ASSERT_TRUE(causal_read::criticalPath(log, s.id, cp, &err))
            << err;
        std::uint64_t sum = 0;
        for (const auto &a : cp.stages)
            sum += a.ps;
        EXPECT_EQ(sum, cp.totalPs)
            << "stage sum diverges for root " << s.name;
    }
    EXPECT_GT(roots, 0u);
}

/**
 * The pkt.* span means must equal the lifecycle histogram means: the
 * causal log and the PR-4 latency_breakdown measure the same packets
 * through independent plumbing.
 */
TEST(Causal, PacketStageMeansMatchLifecycleHistograms)
{
    core::ClusterConfig cc;
    cc.lifecycleTracing = true;
    std::string path = tmpPath("causal_xcheck.jsonl");
    auto r = tracedRadix(cc, path);
    causal_read::Log log = loadValid(path);

    auto stats = causal_read::packetStageStats(log);
    ASSERT_FALSE(stats.empty());
    for (const auto &ns : stats) {
        // "pkt.send_overhead" -> "lifecycle.send_overhead_us".
        std::string hist =
            "lifecycle." + ns.name.substr(4) + "_us";
        const Histogram *h = r.stats.findHistogram(hist);
        ASSERT_NE(h, nullptr) << hist;
        EXPECT_EQ(h->count(), ns.count) << hist;
        EXPECT_NEAR(h->mean(), ns.meanPs * 1e-6, 1e-6) << hist;
    }
}

/**
 * The causal log is reproducible: span ids are minted per node and
 * the writer sorts by id, so two runs of the same workload must emit
 * byte-identical logs.
 */
TEST(Causal, ParallelRunEmitsIdenticalLog)
{
    std::string first = tmpPath("causal_first.jsonl");
    std::string second = tmpPath("causal_second.jsonl");

    core::ClusterConfig cc;
    auto r1 = tracedRadix(cc, first);
    auto r2 = tracedRadix(cc, second);

    EXPECT_EQ(r1.checksum, r2.checksum);
    EXPECT_EQ(r1.elapsed, r2.elapsed);
    std::string a = slurp(first), b = slurp(second);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

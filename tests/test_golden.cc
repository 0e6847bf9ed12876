/**
 * @file
 * Golden-file regression tests: pinned runs must reproduce their
 * checked-in observability artifacts byte for byte — the RunReport
 * JSON of a fault-plane run (plain and with lifecycle histograms),
 * that run's causal log with its spans and its gauges sampled every
 * 20 us, the RunReports of NX runs (Barnes-NX under DU and AU,
 * Ocean-NX on a lossy backplane, Barnes-NX on 96 ranks), the receive
 * order and elapsed time of raw NX ring traffic, and the RunReports
 * of Radix-SVM on the baseline and modern adapters. Any
 * datapath "optimization" that perturbs one of
 * these files changed simulated behaviour, not just host speed; a
 * recorder change that perturbs one changed an output format.
 *
 * The files live in tests/golden/ (path baked in via the
 * SHRIMP_TEST_GOLDEN_DIR compile definition). To regenerate after an
 * intentional behaviour or schema change:
 *
 *     SHRIMP_REGEN_GOLDEN=1 ./tests/test_golden
 *
 * and commit the rewritten files together with the change that
 * motivated them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/app_common.hh"
#include "apps/barnes.hh"
#include "apps/ocean.hh"
#include "apps/radix.hh"
#include "msg/nx.hh"
#include "sim/causal.hh"
#include "sim/run_report.hh"

using namespace shrimp;

namespace
{

std::string
goldenPath(const char *file)
{
    return std::string(SHRIMP_TEST_GOLDEN_DIR) + "/" + file;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
regenerating()
{
    const char *v = std::getenv("SHRIMP_REGEN_GOLDEN");
    return v && *v && std::string(v) != "0";
}

/**
 * Compare @p actual against the checked-in golden, or rewrite the
 * golden when SHRIMP_REGEN_GOLDEN is set.
 */
void
checkGolden(const char *file, const std::string &actual)
{
    std::string path = goldenPath(file);
    if (regenerating()) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(os.good()) << "cannot write " << path;
        os << actual;
        return;
    }
    std::string expect = slurp(path);
    ASSERT_FALSE(expect.empty())
        << path << " missing or empty; regenerate with "
        << "SHRIMP_REGEN_GOLDEN=1";
    // EXPECT_EQ on multi-KB strings produces an unreadable dump, so
    // locate the first divergence instead.
    if (actual != expect) {
        std::size_t i = 0;
        while (i < actual.size() && i < expect.size() &&
               actual[i] == expect[i])
            ++i;
        FAIL() << file << " diverges from golden at byte " << i
               << " (golden " << expect.size() << " bytes, actual "
               << actual.size() << "); context: \""
               << actual.substr(i > 40 ? i - 40 : 0, 80) << "\"";
    }
}

/** The pinned Radix-VMMC workload both goldens run. */
apps::AppResult
pinnedRadix(const core::ClusterConfig &cc)
{
    apps::RadixConfig cfg;
    cfg.keys = 8 * 1024;
    // Default pass count (3): enough traffic that the 0.5% fault
    // plane actually drops packets in the fault-run golden.
    return apps::runRadixVmmc(cc, /*au=*/true, /*procs=*/4, cfg);
}

/** The fault-plane config: 0.5% drops, seed 7. */
core::ClusterConfig
faultConfig()
{
    core::ClusterConfig cc;
    cc.network.fault.dropRate = 0.005;
    cc.network.fault.seed = 7;
    return cc;
}

} // anonymous namespace

/**
 * The fault-plane run: 0.5% drops, seed 7. Chosen so NACK-driven
 * go-back-N recovery happens (drops > 0, retransmits > 0) but no
 * retransmission timer ever fires — timer tuning (e.g. the adaptive
 * RTO) must leave this report untouched.
 */
TEST(Golden, FaultRunReportIsByteStable)
{
    auto r = pinnedRadix(faultConfig());

    // The run exercises the recovery path but not the timer path;
    // guard that before comparing bytes so a config drift fails
    // with a readable message.
    ASSERT_GT(r.stats.counterValue("mesh.drops"), 0u);
    ASSERT_GT(r.stats.counterValue("mesh.retransmits"), 0u);
    ASSERT_EQ(r.stats.counterValue("mesh.rto_fires"), 0u);

    RunReport rep = apps::makeReport(r);
    checkGolden("fault_radix_report.json", rep.toJson(true));
}

/**
 * The fault run's causal log: span ids, parent links, packet stage
 * spans, the nic.retx spans of its go-back-N resends, and the counter
 * lines of its gauges, the fault-only rel.retx_backlog among them.
 */
TEST(Golden, FaultRunCausalLogIsByteStable)
{
    std::string path = testing::TempDir() + "golden_fault_causal.jsonl";
    core::ClusterConfig cc = faultConfig();
    cc.metricsInterval = microseconds(20);
    causal::open(path);
    auto r = pinnedRadix(cc);
    causal::close();
    ASSERT_GT(r.stats.counterValue("mesh.retransmits"), 0u);

    checkGolden("fault_radix_causal.jsonl", slurp(path));
    std::remove(path.c_str());
}

/**
 * The fault run's report with lifecycle histograms on: pins the
 * latency_breakdown block, whose floating-point sums depend on the
 * order packets are sampled in.
 */
TEST(Golden, FaultRunLifecycleReportIsByteStable)
{
    core::ClusterConfig cc = faultConfig();
    cc.lifecycleTracing = true;
    auto r = pinnedRadix(cc);

    RunReport rep = apps::makeReport(r);
    checkGolden("fault_radix_lifecycle_report.json", rep.toJson(true));
}

// ----------------------------------------------------------------------
// NX: app runs and raw ring traffic
// ----------------------------------------------------------------------

namespace
{

/** The pinned Barnes-NX shape: 256 bodies, 2 steps, 16 ranks on 4x4. */
apps::AppResult
pinnedBarnesNx(bool use_au)
{
    apps::BarnesConfig cfg;
    cfg.bodies = 256;
    cfg.timesteps = 2;
    return apps::runBarnesNx(core::ClusterConfig{}, use_au, 16, cfg);
}

/**
 * NX ring traffic among 4 ranks over an 8-page ring, rendered as text:
 * each rank's receives in order (sender, length and a byte sum), the
 * time it finished, its CPU busy time, and the final simulated time.
 * Two phases:
 *  - all pairs, about 100 KB per pair, so every ring wraps several
 *    times; messages of up to three pages make DU headers land before
 *    their trailers;
 *  - rank 3 streams to a slow rank 0 until it blocks on credits, so
 *    each credit return follows polls of the empty rings 1 and 2.
 * A change to what a receive probe charges, or when, moves a time.
 */
std::string
ringTraffic(bool use_au)
{
    constexpr int kRanks = 4;
    constexpr int kRounds = 24;
    constexpr int kBurst = 24;
    constexpr std::size_t kSizes[] = {64, 4100, 7000, 200, 11000, 1500};

    core::Cluster c;
    msg::NxConfig cfg;
    cfg.nprocs = kRanks;
    cfg.ringBytes = 8 * node::kPageBytes;
    cfg.useAutomaticUpdate = use_au;
    msg::NxDomain dom(c, cfg);
    std::vector<std::string> log(kRanks);

    for (int r = 0; r < kRanks; ++r) {
        c.spawnOn(r, "rank" + std::to_string(r), [&, r] {
            dom.init(r);
            msg::NxProcess &nx = dom.process(r);
            std::vector<unsigned char> buf(12 * 1024);
            auto send = [&](std::size_t len, int to, int tag) {
                for (std::size_t i = 0; i < len; ++i)
                    buf[i] = static_cast<unsigned char>(tag * 7 + r * 3 + i);
                nx.csend(tag % 3, buf.data(), len, to);
            };
            auto recv = [&](int from) {
                int src = -1;
                std::size_t len = nx.crecvProbe(-1, from, buf.data(),
                                                buf.size(), &src);
                unsigned sum = 0;
                for (std::size_t i = 0; i < len; ++i)
                    sum += buf[i];
                log[r] += " " + std::to_string(src) + ":" +
                          std::to_string(len) + ":" + std::to_string(sum);
            };

            for (int round = 0; round < kRounds; ++round) {
                for (int to = 0; to < kRanks; ++to)
                    if (to != r)
                        send(kSizes[(round + r + 2 * to) % 6], to, round);
                // Odd rounds name each sender in turn; even rounds take
                // whatever has arrived.
                for (int k = 0; k < kRanks - 1; ++k)
                    recv(round % 2 ? (r + 1 + k) % kRanks : -1);
            }
            for (int i = 0; i < kBurst; ++i) {
                if (r == kRanks - 1)
                    send(4000, 0, i);
                if (r == 0) {
                    recv(-1);
                    c.node(0).cpu().compute(microseconds(400));
                }
            }
            log[r] += " iprobe:" + std::to_string(nx.iprobe(-1));
            c.node(r).cpu().sync();
            log[r] += " end_ps:" + std::to_string(c.sim().now());
        });
    }
    c.run();

    std::string out = std::string(use_au ? "au" : "du") +
                      " elapsed_ps " + std::to_string(c.sim().now()) +
                      "\n";
    for (int r = 0; r < kRanks; ++r)
        out += "rank " + std::to_string(r) + log[r] + " cpu_busy_ps:" +
               std::to_string(c.sim().stats().counterValue(
                   "node" + std::to_string(r) + ".cpu_busy_ps")) +
               "\n";
    return out;
}

} // anonymous namespace

TEST(Golden, BarnesNxDuReportIsByteStable)
{
    checkGolden("barnes_nx_du_report.json",
                apps::makeReport(pinnedBarnesNx(false)).toJson(true));
}

TEST(Golden, BarnesNxAuReportIsByteStable)
{
    checkGolden("barnes_nx_au_report.json",
                apps::makeReport(pinnedBarnesNx(true)).toJson(true));
}

/** Ocean-NX over AU on a lossy backplane: 1% drops, seed 7. */
TEST(Golden, OceanNxAuFaultReportIsByteStable)
{
    core::ClusterConfig cc;
    cc.network.fault.dropRate = 0.01;
    cc.network.fault.seed = 7;
    apps::OceanConfig cfg;
    cfg.n = 66;
    cfg.iterations = 4;
    auto r = apps::runOceanNx(cc, /*au=*/true, 16, cfg);

    ASSERT_GT(r.stats.counterValue("mesh.drops"), 0u);
    ASSERT_GT(r.stats.counterValue("mesh.retransmits"), 0u);
    checkGolden("ocean_nx_au_fault_report.json",
                apps::makeReport(r).toJson(true));
}

/**
 * Barnes-NX on a 12x8 mesh: 96 ranks, so each receiver's senders sit
 * on both sides of a 64-bit word boundary.
 */
TEST(Golden, BarnesNx96RankReportIsByteStable)
{
    core::ClusterConfig cc;
    cc.meshWidth = 12;
    cc.meshHeight = 8;
    apps::BarnesConfig cfg;
    cfg.bodies = 384;
    cfg.timesteps = 1;
    auto r = apps::runBarnesNx(cc, false, 96, cfg);
    checkGolden("barnes_nx_96_report.json",
                apps::makeReport(r).toJson(true));
}

TEST(Golden, NxRingTrafficDuIsByteStable)
{
    checkGolden("nx_ring_du.txt", ringTraffic(false));
}

TEST(Golden, NxRingTrafficAuIsByteStable)
{
    checkGolden("nx_ring_au.txt", ringTraffic(true));
}

// ----------------------------------------------------------------------
// The baseline and modern adapters
// ----------------------------------------------------------------------

namespace
{

/** Radix-SVM HLRC on 4 ranks, 16,384 keys, on adapter @p kind. */
apps::AppResult
pinnedRadixSvm(nic::NicKind kind)
{
    core::ClusterConfig cc;
    cc.nicKind = kind;
    apps::RadixConfig cfg;
    cfg.keys = 16 * 1024;
    return apps::runRadixSvm(cc, svm::Protocol::HLRC, 4, cfg);
}

/** Sum of the per-node counter "node<i>.<suffix>" over a 4x4 mesh. */
std::uint64_t
nodeSum(const apps::AppResult &r, const std::string &suffix)
{
    std::uint64_t total = 0;
    for (int i = 0; i < 16; ++i)
        total += r.stats.counterValue("node" + std::to_string(i) + "." +
                                      suffix);
    return total;
}

} // anonymous namespace

/**
 * BaselineNic's timing: firmware send and receive costs, its send
 * queue and its notification bit. The counts guard the shape of the
 * run before the bytes are compared.
 */
TEST(Golden, BaselineNicRadixSvmReportIsByteStable)
{
    auto r = pinnedRadixSvm(nic::NicKind::Baseline);
    ASSERT_EQ(nodeSum(r, "bnic.sends"), 870u);
    ASSERT_EQ(nodeSum(r, "vmmc.notifications"), 366u);
    checkGolden("baseline_radix_svm_report.json",
                apps::makeReport(r).toJson(true));
}

/**
 * ModernNic's timing: doorbell posting, its send queue, notifiable
 * writes and the coalescing completion queue.
 */
TEST(Golden, ModernNicRadixSvmReportIsByteStable)
{
    auto r = pinnedRadixSvm(nic::NicKind::Modern);
    ASSERT_EQ(nodeSum(r, "mnic.sends"), 870u);
    ASSERT_EQ(nodeSum(r, "vmmc.notifications"), 366u);
    ASSERT_EQ(nodeSum(r, "mnic.cq_interrupts"), 366u);
    ASSERT_EQ(nodeSum(r, "mnic.notify_writes"), 324u);
    checkGolden("modern_radix_svm_report.json",
                apps::makeReport(r).toJson(true));
}

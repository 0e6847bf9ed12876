/**
 * @file
 * Golden-file regression tests: pinned runs must reproduce their
 * checked-in observability artifacts byte for byte — the RunReport
 * JSON of a fault-plane run (plain and with lifecycle histograms),
 * that run's causal log, and the flight-recorder metrics JSONL of a
 * fault-free run. Any datapath "optimization" that perturbs one of
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
#include "apps/radix.hh"
#include "sim/causal.hh"
#include "sim/metrics.hh"
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

/** The fault-free run's flight-recorder series, as JSONL. */
TEST(Golden, MetricsJsonlIsByteStable)
{
    core::ClusterConfig cc;
    cc.metricsInterval = microseconds(20);
    auto r = pinnedRadix(cc);

    ASSERT_GT(r.metrics.sampleCount(), 0u);
    std::ostringstream ss;
    r.metrics.writeJsonl(ss, r.name, r.metricsInterval);
    checkGolden("radix_metrics.jsonl", ss.str());
}

/**
 * The fault run's causal log: span ids, parent links, packet stage
 * spans and the nic.retx spans of its go-back-N resends.
 */
TEST(Golden, FaultRunCausalLogIsByteStable)
{
    std::string path = testing::TempDir() + "golden_fault_causal.jsonl";
    causal::open(path);
    auto r = pinnedRadix(faultConfig());
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

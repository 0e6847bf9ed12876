/**
 * @file
 * Sec 4.5.2: outgoing FIFO capacity.
 *
 * Paper result: running the applications with the FIFO artificially
 * limited to 1 Kbyte (vs the 32 Kbyte hardware) makes no detectable
 * difference, because the applications' communication volume never
 * backs the FIFO up — only a many-to-one AU stress can.
 */

#include <cstdio>
#include <cstring>

#include "bench/bench_common.hh"
#include "core/vmmc.hh"

using namespace shrimp;
using namespace shrimp::bench;
using namespace shrimp::apps;
using shrimp::svm::Protocol;

namespace
{

/**
 * An AU blast over a deliberately slow backplane: with injection
 * orders of magnitude slower than the write-through store rate, the
 * outgoing FIFO genuinely backs up and the threshold flow control has
 * to de-schedule the writers — where capacity *would* matter. (The
 * packet-level mesh does not model wormhole backpressure, so the
 * stress throttles the injection link instead; see DESIGN.md.)
 */
struct StressResult
{
    Tick elapsed;
    std::uint64_t thresholdIrqs;
};

StressResult
manyToOneStress(std::uint32_t fifo_bytes)
{
    core::ClusterConfig cc = shrimpCluster();
    cc.shrimpNic.outFifoBytes = fifo_bytes;
    cc.network.linkBytesPerSec = 2.0e6; // starved injection link
    core::Cluster c(cc);

    const int kSenders = 8;
    const std::size_t kBytes = 64 * 1024;
    core::ExportId exp = core::kInvalidExport;
    char *rbuf = nullptr;
    int done = 0;
    Tick finish = 0;

    c.spawnOn(0, "sink", [&] {
        auto &ep = c.vmmc(0);
        rbuf = static_cast<char *>(c.node(0).mem().alloc(
            kBytes * kSenders, true));
        std::memset(rbuf, 0, kBytes * kSenders);
        exp = ep.exportBuffer(rbuf, kBytes * kSenders);
        ep.waitUntil([&] { return done == kSenders; });
        finish = c.sim().now();
    });
    for (int s = 1; s <= kSenders; ++s) {
        c.spawnOn(s, "blaster", [&, s] {
            auto &ep = c.vmmc(s);
            while (exp == core::kInvalidExport)
                c.sim().delay(microseconds(10));
            core::ProxyId p = ep.import(0, exp);
            char *stage = static_cast<char *>(
                c.node(s).mem().alloc(kBytes, true));
            ep.bindAu(stage, p, (s - 1) * kBytes, kBytes,
                      /*combining=*/true);
            // Stream the data as many small flushed writes so the
            // flow control has to repeatedly stall and resume.
            std::vector<char> data(2048, char(s));
            for (std::size_t off = 0; off < kBytes; off += 2048) {
                ep.auWriteBlock(stage + (off % 4096), data.data(),
                                2048);
                ep.auFlush();
            }
            ep.auFence();
            ++done;
        });
    }
    c.run();
    std::uint64_t irqs = 0;
    for (int s = 1; s <= kSenders; ++s)
        irqs += c.sim().stats().counterValue(
            c.node(s).name() + ".nic.fifo_threshold_irqs");
    return StressResult{finish, irqs};
}

} // anonymous namespace

int
main()
{
    banner("outgoing FIFO capacity", "Sec 4.5.2");

    std::printf("application suite, 32 KB vs 1 KB FIFO:\n");
    std::printf("%-14s %12s %12s %9s %11s\n", "app", "32KB (ms)",
                "1KB (ms)", "delta", "thresh irqs");

    const char *names[] = {"Radix-VMMC", "Ocean-SVM", "Radix-SVM"};
    auto specs = standardApps();

    // Big/small FIFO runs for each app as independent sweep jobs.
    std::vector<std::function<apps::AppResult()>> jobs;
    for (const char *name : names) {
        const AppSpec *spec = &findApp(specs, name);
        for (std::uint32_t fifo : {32u * 1024, 1024u}) {
            jobs.push_back([spec, fifo] {
                core::ClusterConfig cc = shrimpCluster();
                cc.shrimpNic.outFifoBytes = fifo;
                return spec->run(cc);
            });
        }
    }
    auto results = runSweep(std::move(jobs));

    bool ok = true;
    for (std::size_t i = 0; i < std::size(names); ++i) {
        const auto &rb = results[2 * i];
        const auto &rs = results[2 * i + 1];
        double delta = pctIncrease(rb.elapsed, rs.elapsed);
        std::printf("%-14s %12.2f %12.2f %8.2f%%\n", names[i],
                    toSeconds(rb.elapsed) * 1e3,
                    toSeconds(rs.elapsed) * 1e3, delta);
        // Paper: no detectable difference. Quick scale inflates the
        // communication share, so allow modest flow-control jitter.
        ok = ok && std::abs(delta) < 6.5;
    }

    // The stress case shows where capacity *would* matter: the small
    // FIFO needs far more threshold interrupts to survive the same
    // backlog (completion stays link-bound either way).
    auto stress = runSweep<StressResult>(
        {[] { return manyToOneStress(32 * 1024); },
         [] { return manyToOneStress(1024); }});
    StressResult stress_big = stress[0];
    StressResult stress_small = stress[1];
    std::printf("\nAU stress on a starved link: 32KB %.2f ms "
                "(%llu thresh irqs), 1KB %.2f ms (%llu thresh irqs)\n",
                toSeconds(stress_big.elapsed) * 1e3,
                (unsigned long long)stress_big.thresholdIrqs,
                toSeconds(stress_small.elapsed) * 1e3,
                (unsigned long long)stress_small.thresholdIrqs);
    ok = ok && stress_small.thresholdIrqs > stress_big.thresholdIrqs;

    std::printf("\nshape (apps insensitive to FIFO size): %s\n",
                ok ? "HOLDS" : "VIOLATED");
    return ok ? 0 : 1;
}

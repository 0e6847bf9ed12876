/**
 * @file
 * Shared virtual memory on SHRIMP: the same grid relaxation run under
 * HLRC, HLRC-AU and AURC, printing the Fig.-4-style execution-time
 * breakdown (computation / communication / lock / barrier / overhead)
 * so the protocol differences are visible at a glance. The protocols
 * differ in cost, never in the answer: the run exits 1 when their
 * checksums differ.
 *
 * Run: ./svm_matrix
 */

#include <cstdio>
#include <vector>

#include "apps/app_common.hh"
#include "svm/svm.hh"

using namespace shrimp;
using namespace shrimp::svm;

namespace
{

struct Outcome
{
    Tick elapsed;
    TimeAccount combined;
    std::uint64_t checksum;
};

Outcome
runOnce(Protocol protocol)
{
    // HLRC-AU and AURC use automatic update: keep the SHRIMP NIs.
    core::ClusterConfig config = core::envClusterConfig();
    config.nicKind = core::NicKind::Shrimp;
    core::Cluster cluster(config);
    const int kProcs = 8;
    const int kN = 128;
    const int kIters = 10;

    SvmConfig cfg;
    cfg.protocol = protocol;
    cfg.nprocs = kProcs;
    cfg.heapBytes = 4 * 1024 * 1024;
    SvmRuntime rt(cluster, cfg);

    // Pages stay on their default round-robin homes: most writes are
    // remote, which is exactly the workload that separates the three
    // protocols (diffs vs write-through).
    auto *a = rt.sharedAllocArray<double>(kN * kN);
    auto *b = rt.sharedAllocArray<double>(kN * kN);
    const int rows_per = kN / kProcs;

    // The measured region is the relaxation loop: it opens after the
    // first-row writes and their barrier.
    apps::Region region(cluster, kProcs);
    std::vector<Process *> procs(kProcs);

    for (int q = 0; q < kProcs; ++q) {
        procs[q] = cluster.spawnOn(q, "relax", [&, q] {
            rt.init(q);
            SvmView v(rt, q);
            const int first = q * rows_per;
            const int last = first + rows_per;

            std::vector<double> row(kN);
            for (int r = first; r < last; ++r) {
                for (int c = 0; c < kN; ++c)
                    row[c] = double((r * kN + c) % 97);
                v.writeRange(&a[r * kN], row.data(), kN * 8);
            }
            v.barrier();
            region.enter(q);
            procs[q]->account.start(cluster.sim().now());

            double *from = a;
            double *to = b;
            for (int iter = 0; iter < kIters; ++iter) {
                for (int r = std::max(first, 1);
                     r < std::min(last, kN - 1); ++r) {
                    const auto *up = reinterpret_cast<const double *>(
                        v.readRange(&from[(r - 1) * kN], kN * 8));
                    const auto *mid = reinterpret_cast<const double *>(
                        v.readRange(&from[r * kN], kN * 8));
                    const auto *dn = reinterpret_cast<const double *>(
                        v.readRange(&from[(r + 1) * kN], kN * 8));
                    for (int c = 1; c < kN - 1; ++c)
                        row[c] = 0.25 * (up[c] + dn[c] + mid[c - 1] +
                                         mid[c + 1]);
                    row[0] = mid[0];
                    row[kN - 1] = mid[kN - 1];
                    cluster.node(q).cpu().compute(
                        Tick(kN) * microseconds(2));
                    v.writeRange(&to[r * kN], row.data(), kN * 8);
                }
                v.barrier();
                std::swap(from, to);
            }
            procs[q]->account.stop(region.leave(q));
        });
    }

    cluster.run();
    apps::AppResult result;
    result.name = "svm_matrix";
    region.finish(result, procs);
    // The answer is read at the homes, outside the simulation.
    double s = 0;
    apps::forEachAtHome(rt, kIters % 2 ? b : a, std::size_t(kN) * kN,
                        [&](double g) { s += g; });
    return {result.elapsed, result.combined, std::uint64_t(s)};
}

} // anonymous namespace

int
main()
{
    std::printf("%-8s %10s  %8s %8s %6s %8s %9s   %s\n", "protocol",
                "time(ms)", "comp%", "comm%", "lock%", "barrier%",
                "overhead%", "checksum");

    std::uint64_t hlrc_checksum = 0;
    bool agree = true;
    for (Protocol p :
         {Protocol::HLRC, Protocol::HLRC_AU, Protocol::AURC}) {
        Outcome o = runOnce(p);
        if (p == Protocol::HLRC)
            hlrc_checksum = o.checksum;
        agree = agree && o.checksum == hlrc_checksum;
        double total = double(o.combined.grandTotal());
        auto pct = [&](TimeCategory c) {
            return 100.0 * double(o.combined.total(c)) / total;
        };
        std::printf("%-8s %10.2f  %8.1f %8.1f %6.1f %8.1f %9.1f   %llu\n",
                    protocolName(p), toSeconds(o.elapsed) * 1e3,
                    pct(TimeCategory::Compute),
                    pct(TimeCategory::Communication),
                    pct(TimeCategory::Lock),
                    pct(TimeCategory::Barrier),
                    pct(TimeCategory::Overhead),
                    (unsigned long long)o.checksum);
    }
    if (!agree)
        std::fprintf(stderr, "svm_matrix: the protocols' checksums differ\n");
    return agree ? 0 : 1;
}

/**
 * @file
 * Supporting bandwidth curves for Sec 4.2/4.5.1: effective one-way
 * bandwidth versus transfer size for deliberate update, automatic
 * update with combining, and automatic update without combining.
 *
 * The paper's qualitative result: DU's DMA wins for bulk transfers;
 * uncombined AU is far slower because every store becomes a packet
 * with its own header and receiver DMA transaction.
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_common.hh"
#include "core/vmmc.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

double
measureBandwidth(bool use_au, bool combining, std::size_t bytes)
{
    ClusterConfig cfg = bench::shrimpCluster();
    cfg.shrimpNic.combiningEnabled = combining;
    Cluster c(cfg);

    const std::size_t buf_bytes =
        (bytes + node::kPageBytes - 1) / node::kPageBytes *
        node::kPageBytes;
    ExportId exp = kInvalidExport;
    char *rbuf = nullptr;
    double mbps = 0;
    const int kReps = 12;

    c.spawnOn(1, "recv", [&] {
        auto &ep = c.vmmc(1);
        rbuf = static_cast<char *>(
            c.node(1).mem().alloc(buf_bytes + node::kPageBytes, true));
        std::memset(rbuf, 0, buf_bytes + node::kPageBytes);
        exp = ep.exportBuffer(rbuf, buf_bytes + node::kPageBytes);
        // Completion flag after each rep.
        volatile char *flag = rbuf + buf_bytes;
        for (int i = 1; i <= kReps; ++i)
            ep.waitUntil([flag, i] { return *flag == char(i); });
    });
    c.spawnOn(0, "send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        ProxyId p = ep.import(1, exp);
        std::vector<char> data(bytes, 'd');
        char *stage = nullptr;
        if (use_au) {
            stage = static_cast<char *>(c.node(0).mem().alloc(
                buf_bytes + node::kPageBytes, true));
            ep.bindAu(stage, p, 0, buf_bytes + node::kPageBytes,
                      combining);
        }
        Tick t0 = c.sim().now();
        for (int i = 1; i <= kReps; ++i) {
            if (use_au) {
                ep.auWriteBlock(stage, data.data(), bytes);
                ep.auWrite<char>(&stage[buf_bytes], char(i));
                ep.auFlush();
            } else {
                ep.send(p, data.data(), bytes, 0);
                char f = char(i);
                ep.send(p, &f, 1, buf_bytes);
            }
        }
        ep.drainSends();
        if (use_au)
            ep.auFence();
        double secs = toSeconds(c.sim().now() - t0);
        mbps = double(bytes) * kReps / secs / 1e6;
    });
    c.run();
    return mbps;
}

} // anonymous namespace

int
main()
{
    shrimp::bench::banner("transfer bandwidth vs size",
                          "Sec 4.2 / 4.5.1 supporting data");

    std::printf("%10s %14s %18s %20s\n", "bytes", "DU (MB/s)",
                "AU+comb (MB/s)", "AU no-comb (MB/s)");
    const std::size_t sizes[] = {256,   1024,   4096,   16384,
                                 65536, 262144};
    bool order_ok = true;
    for (std::size_t s : sizes) {
        double du = measureBandwidth(false, true, s);
        double auc = measureBandwidth(true, true, s);
        double aun = measureBandwidth(true, false, s);
        std::printf("%10zu %14.2f %18.2f %20.2f\n", s, du, auc, aun);
        if (s >= 16384)
            order_ok = order_ok && du > auc && auc > aun;
    }
    std::printf("\nbulk ordering DU > AU+comb > AU-no-comb: %s\n",
                order_ok ? "HOLDS" : "VIOLATED");
    return order_ok ? 0 : 1;
}

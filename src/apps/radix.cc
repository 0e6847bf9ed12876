#include "apps/radix.hh"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "apps/mailbox.hh"
#include "core/collective.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace shrimp::apps
{

namespace
{

/** Generate the (deterministic) unsorted key array. Keys are bounded
 * to radixBits * iterations bits so the configured passes fully sort
 * them (the SPLASH-2 convention). */
std::vector<std::uint32_t>
makeKeys(const RadixConfig &cfg)
{
    Random rng(cfg.seed);
    int bits = std::min(32, cfg.radixBits * cfg.iterations);
    std::uint32_t mask = bits >= 32 ? ~0u : ((1u << bits) - 1u);
    std::vector<std::uint32_t> keys(cfg.keys);
    for (auto &k : keys)
        k = std::uint32_t(rng.next()) & mask;
    return keys;
}

/**
 * Checksum: key sum (order independent) in the high bits, sortedness
 * flag in bit 0 — checksum % 2 == 1 iff the output is sorted.
 */
std::uint64_t
checksumSorted(const std::uint32_t *keys, std::size_t n)
{
    std::uint64_t sum = 0;
    bool sorted = true;
    for (std::size_t i = 0; i < n; ++i) {
        sum += keys[i];
        if (i && keys[i - 1] > keys[i])
            sorted = false;
    }
    return (sum << 1) + (sorted ? 1 : 0);
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Radix-SVM
// ---------------------------------------------------------------------

AppResult
runRadixSvm(const core::ClusterConfig &cluster_config,
            svm::Protocol protocol, int nprocs,
            const RadixConfig &config)
{
    core::Cluster cluster(cluster_config);
    const std::size_t n = config.keys;
    const int R = 1 << config.radixBits;
    const std::size_t per = n / std::size_t(nprocs);

    svm::SvmConfig scfg;
    scfg.protocol = protocol;
    scfg.nprocs = nprocs;
    scfg.heapBytes =
        (2 * n * 4 + std::size_t(nprocs) * R * 4 + (1u << 22)) /
            node::kPageBytes * node::kPageBytes +
        node::kPageBytes;
    svm::SvmRuntime rt(cluster, scfg);

    auto *src = rt.sharedAllocArray<std::uint32_t>(n);
    auto *dst = rt.sharedAllocArray<std::uint32_t>(n);
    // Per-proc histograms, one page-aligned row each.
    std::vector<std::uint32_t *> hist(nprocs);
    for (int q = 0; q < nprocs; ++q)
        hist[q] = rt.sharedAllocArray<std::uint32_t>(R);

    // Source keys are distributed: each rank owns a contiguous block,
    // homed at that rank (as SPLASH-2 allocates them locally).
    for (int q = 0; q < nprocs; ++q) {
        rt.setHomeBlock(src + std::size_t(q) * per, per * 4, q);
        rt.setHomeBlock(dst + std::size_t(q) * per, per * 4, q);
        rt.setHomeBlock(hist[q], R * 4, q);
    }

    auto init_keys = makeKeys(config);

    AppResult result;
    result.name = "Radix-SVM";
    result.nprocs = nprocs;
    RegionClock clock(nprocs);
    MessageSnapshot before;

    for (int q = 0; q < nprocs; ++q) {
        cluster.spawnOn(q, "radix", [&, q] {
            rt.init(q);
            svm::SvmView v(rt, q);
            auto &cpu = cluster.node(q).cpu();

            // Initialize the owned block of the source array.
            v.writeRange(src + std::size_t(q) * per,
                         init_keys.data() + std::size_t(q) * per,
                         per * 4);
            v.barrier();
            if (q == 0)
                before = MessageSnapshot::take(cluster);
            clock.start[q] = cluster.sim().now();

            std::uint32_t *from = src;
            std::uint32_t *to = dst;
            for (int pass = 0; pass < config.iterations; ++pass) {
                int shift = pass * config.radixBits;

                // Local histogram over my contiguous block.
                std::vector<std::uint32_t> local(R, 0);
                const auto *mine =
                    reinterpret_cast<const std::uint32_t *>(
                        v.readRange(from + std::size_t(q) * per,
                                    per * 4));
                for (std::size_t i = 0; i < per; ++i)
                    ++local[(mine[i] >> shift) & (R - 1)];
                cpu.compute(Tick(per) * config.perKeyCost / 2);
                v.writeRange(hist[q], local.data(), R * 4);
                v.barrier();

                // Global offsets: read everyone's histogram.
                std::vector<std::uint32_t> offset(R, 0);
                std::vector<std::uint32_t> totals(R, 0);
                for (int p2 = 0; p2 < nprocs; ++p2) {
                    const auto *h =
                        reinterpret_cast<const std::uint32_t *>(
                            v.readRange(hist[p2], R * 4));
                    for (int d = 0; d < R; ++d) {
                        if (p2 < q)
                            offset[d] += h[d];
                        totals[d] += h[d];
                    }
                }
                std::uint32_t running = 0;
                for (int d = 0; d < R; ++d) {
                    offset[d] += running;
                    running += totals[d];
                }
                cpu.compute(Tick(R) * Tick(nprocs) * 30);

                // Permutation: the scattered, false-sharing-heavy
                // write pattern the paper calls out.
                for (std::size_t i = 0; i < per; ++i) {
                    std::uint32_t k = mine[i];
                    std::uint32_t d = (k >> shift) & (R - 1);
                    v.write(&to[offset[d]++], k);
                }
                cpu.compute(Tick(per) * config.perKeyCost / 2);
                v.barrier();
                std::swap(from, to);
            }

            clock.end[q] = cluster.sim().now();
            rt.account(q).stop();

            if (q == 0) {
                const std::uint32_t *final_keys =
                    reinterpret_cast<const std::uint32_t *>(
                        v.readRange(from, n * 4));
                result.checksum = checksumSorted(final_keys, n);
            }
        });
    }

    cluster.run();
    warnIfDeadlocked(cluster, result.name.c_str());
    result.elapsed = clock.elapsed();
    for (int q = 0; q < nprocs; ++q) {
        result.combined.merge(rt.account(q));
        result.perProcess.push_back(rt.account(q));
    }
    recordMessages(result, before, MessageSnapshot::take(cluster));
    result.param("keys", config.keys);
    result.param("iterations", config.iterations);
    result.param("radix_bits", config.radixBits);
    result.param("seed", config.seed);
    result.param("protocol", svm::protocolName(protocol));
    captureStats(result, cluster);
    return result;
}

// ---------------------------------------------------------------------
// Radix-VMMC
// ---------------------------------------------------------------------

AppResult
runRadixVmmc(const core::ClusterConfig &cluster_config, bool use_au,
             int nprocs, const RadixConfig &config)
{
    core::Cluster cluster(cluster_config);
    const std::size_t n = config.keys;
    const int R = 1 << config.radixBits;
    const std::size_t per = n / std::size_t(nprocs);
    if (per * 4 % node::kPageBytes != 0)
        fatal("radix: partition size must be page aligned");

    core::Collective coll(cluster, nprocs);
    // Mailbox sized for histograms (R words) and, in the DU variant,
    // gathered key runs (worst case: my whole block + run headers).
    Mailbox mbox(cluster, nprocs,
                 std::max<std::size_t>(std::size_t(R) * 4 + 64,
                                       per * 4 + per * 8 / 64 + 4096));

    auto init_keys = makeKeys(config);

    AppResult result;
    result.name = use_au ? "Radix-VMMC (AU)" : "Radix-VMMC (DU)";
    result.nprocs = nprocs;
    RegionClock clock(nprocs);
    MessageSnapshot before;

    // Per-rank partitions of the two arrays live in node arenas and
    // are exported; the AU variant additionally gives every rank a
    // window over the whole destination array, AU-bound per owner.
    struct RankBufs
    {
        std::uint32_t *partA = nullptr;
        std::uint32_t *partB = nullptr;
        core::ExportId expA = core::kInvalidExport;
        core::ExportId expB = core::kInvalidExport;
        std::uint32_t *windowA = nullptr;
        std::uint32_t *windowB = nullptr;
        std::vector<core::ProxyId> proxyA, proxyB;
        bool exported = false;
    };
    std::vector<RankBufs> bufs(nprocs);

    for (int q = 0; q < nprocs; ++q) {
        cluster.spawnOn(q, "radix", [&, q] {
            core::Endpoint &ep = cluster.vmmc(q);
            auto &mem = ep.node().mem();
            auto &cpu = cluster.node(q).cpu();
            Simulation &sim = cluster.sim();
            RankBufs &b = bufs[q];

            b.partA = mem.allocArray<std::uint32_t>(per, true);
            b.partB = mem.allocArray<std::uint32_t>(per, true);
            std::memcpy(b.partA, init_keys.data() + per * q, per * 4);
            std::memset(b.partB, 0, per * 4);
            b.expA = ep.exportBuffer(b.partA, per * 4);
            b.expB = ep.exportBuffer(b.partB, per * 4);
            b.exported = true;

            auto all = [&] {
                for (auto &x : bufs)
                    if (!x.exported)
                        return false;
                return true;
            };
            while (!all())
                sim.delay(microseconds(10));

            b.proxyA.assign(nprocs, core::kInvalidProxy);
            b.proxyB.assign(nprocs, core::kInvalidProxy);
            for (int p2 = 0; p2 < nprocs; ++p2) {
                if (p2 == q)
                    continue;
                b.proxyA[p2] = ep.import(NodeId(p2), bufs[p2].expA);
                b.proxyB[p2] = ep.import(NodeId(p2), bufs[p2].expB);
            }

            if (use_au) {
                // Whole-array windows, page-bound to each owner.
                b.windowA = mem.allocArray<std::uint32_t>(n, true);
                b.windowB = mem.allocArray<std::uint32_t>(n, true);
                for (int p2 = 0; p2 < nprocs; ++p2) {
                    if (p2 == q)
                        continue;
                    ep.bindAu(b.windowA + per * p2, b.proxyA[p2], 0,
                              per * 4);
                    ep.bindAu(b.windowB + per * p2, b.proxyB[p2], 0,
                              per * 4);
                }
            }

            mbox.init(q);
            coll.init(q);
            coll.barrier(q);
            if (q == 0)
                before = MessageSnapshot::take(cluster);
            clock.start[q] = sim.now();

            bool a_to_b = true;
            for (int pass = 0; pass < config.iterations; ++pass) {
                int shift = pass * config.radixBits;
                std::uint32_t *from = a_to_b ? b.partA : b.partB;

                // Local histogram.
                std::vector<std::uint32_t> local(R, 0);
                for (std::size_t i = 0; i < per; ++i)
                    ++local[(from[i] >> shift) & (R - 1)];
                cpu.compute(Tick(per) * config.perKeyCost / 2);

                // Rank 0 collects histograms, computes per-rank write
                // offsets, and returns them.
                std::vector<std::uint32_t> offset(R, 0);
                if (q == 0) {
                    std::vector<std::vector<std::uint32_t>> all_hist(
                        nprocs);
                    all_hist[0] = local;
                    for (int p2 = 1; p2 < nprocs; ++p2) {
                        std::size_t got = 0;
                        const void *data = mbox.recv(0, p2, &got);
                        all_hist[p2].resize(R);
                        std::memcpy(all_hist[p2].data(), data, R * 4);
                    }
                    std::vector<std::uint32_t> totals(R, 0);
                    for (int p2 = 0; p2 < nprocs; ++p2)
                        for (int d = 0; d < R; ++d)
                            totals[d] += all_hist[p2][d];
                    std::uint32_t running = 0;
                    std::vector<std::uint32_t> base(R);
                    for (int d = 0; d < R; ++d) {
                        base[d] = running;
                        running += totals[d];
                    }
                    cpu.compute(Tick(R) * Tick(nprocs) * 30);
                    std::vector<std::uint32_t> acc = base;
                    for (int p2 = 0; p2 < nprocs; ++p2) {
                        if (p2 == 0) {
                            offset = acc;
                        } else {
                            mbox.send(0, p2, acc.data(), R * 4);
                        }
                        for (int d = 0; d < R; ++d)
                            acc[d] += all_hist[p2][d];
                    }
                } else {
                    mbox.send(q, 0, local.data(), R * 4);
                    std::size_t got = 0;
                    const void *data = mbox.recv(q, 0, &got);
                    std::memcpy(offset.data(), data, R * 4);
                }

                if (use_au) {
                    // Place keys directly through the AU windows.
                    std::uint32_t *win = a_to_b ? b.windowB : b.windowA;
                    std::uint32_t *own = a_to_b ? b.partB : b.partA;
                    for (std::size_t i = 0; i < per; ++i) {
                        std::uint32_t k = from[i];
                        std::uint32_t d = (k >> shift) & (R - 1);
                        std::uint32_t pos = offset[d]++;
                        int owner = int(pos / per);
                        if (owner == q) {
                            own[pos - per * q] = k;
                            cpu.chargeAccess(1);
                        } else {
                            ep.auWrite<std::uint32_t>(&win[pos], k);
                        }
                    }
                    cpu.compute(Tick(per) * config.perKeyCost / 2);
                    ep.auFence();
                } else {
                    // Gather runs per destination, send as one large
                    // message each, and scatter what we receive.
                    struct Run
                    {
                        std::uint32_t dst_off;
                        std::uint32_t count;
                    };
                    std::vector<std::vector<char>> out(nprocs);
                    std::uint32_t *own = a_to_b ? b.partB : b.partA;
                    std::size_t i = 0;
                    while (i < per) {
                        std::uint32_t k = from[i];
                        std::uint32_t d = (k >> shift) & (R - 1);
                        std::uint32_t pos = offset[d];
                        int owner = int(pos / per);
                        // Extend the run while consecutive keys land
                        // consecutively at the same owner.
                        std::size_t j = i;
                        std::uint32_t start = pos;
                        while (j < per) {
                            std::uint32_t kj = from[j];
                            std::uint32_t dj =
                                (kj >> shift) & (R - 1);
                            std::uint32_t pj = offset[dj];
                            if (dj != d || int(pj / per) != owner)
                                break;
                            ++offset[dj];
                            ++j;
                        }
                        std::uint32_t count = std::uint32_t(j - i);
                        if (owner == q) {
                            std::memcpy(own + (start - per * q),
                                        from + i, count * 4);
                            cpu.chargeAccess(count / 8 + 1);
                        } else {
                            Run run{std::uint32_t(start -
                                                  per * owner),
                                    count};
                            auto &v = out[owner];
                            auto *rp = reinterpret_cast<const char *>(
                                &run);
                            v.insert(v.end(), rp, rp + sizeof(run));
                            auto *kp = reinterpret_cast<const char *>(
                                from + i);
                            v.insert(v.end(), kp, kp + count * 4);
                        }
                        i = j;
                    }
                    cpu.compute(Tick(per) * config.perKeyCost / 2);

                    // Gather cost: per-key append into the
                    // destination buffers (cache-miss bound).
                    for (int p2 = 0; p2 < nprocs; ++p2) {
                        if (p2 == q)
                            continue;
                        cpu.compute(Tick(out[p2].size() / 4) *
                                    config.gatherPerKey);
                        mbox.send(q, p2, out[p2].data(),
                                  out[p2].size());
                    }
                    for (int p2 = 0; p2 < nprocs; ++p2) {
                        if (p2 == q)
                            continue;
                        std::size_t got = 0;
                        const char *data = static_cast<const char *>(
                            mbox.recv(q, p2, &got));
                        std::size_t pos2 = 0;
                        while (pos2 + sizeof(Run) <= got) {
                            Run run;
                            std::memcpy(&run, data + pos2,
                                        sizeof(run));
                            pos2 += sizeof(run);
                            std::memcpy(own + run.dst_off,
                                        data + pos2, run.count * 4);
                            pos2 += run.count * 4;
                        }
                        // Receiver-side scatter: random-access
                        // writes, one per key.
                        cpu.compute(Tick(got / 4) *
                                    config.scatterPerKey);
                    }
                }

                coll.barrier(q);
                a_to_b = !a_to_b;
            }

            clock.end[q] = sim.now();

            // Verification: rank 0 pulls all partitions (after the
            // measured region) and checks global sortedness.
            if (q == 0) {
                std::uint32_t *final_part =
                    a_to_b ? b.partA : b.partB;
                std::vector<std::uint32_t> all(n);
                std::memcpy(all.data(), final_part, per * 4);
                for (int p2 = 1; p2 < nprocs; ++p2) {
                    std::uint32_t *peer_part =
                        a_to_b ? bufs[p2].partA : bufs[p2].partB;
                    std::memcpy(all.data() + per * p2, peer_part,
                                per * 4);
                }
                result.checksum = checksumSorted(all.data(), n);
            }
        });
    }

    cluster.run();
    warnIfDeadlocked(cluster, result.name.c_str());
    result.elapsed = clock.elapsed();
    recordMessages(result, before, MessageSnapshot::take(cluster));
    result.param("keys", config.keys);
    result.param("iterations", config.iterations);
    result.param("radix_bits", config.radixBits);
    result.param("seed", config.seed);
    result.param("transfer", use_au ? "au" : "du");
    captureStats(result, cluster);
    return result;
}

} // namespace shrimp::apps

/**
 * @file
 * Quickstart: the VMMC communication model in ~100 lines.
 *
 * Builds a 16-node SHRIMP cluster, exports a receive buffer on node 1,
 * imports it on node 0, and moves data three ways:
 *   1. deliberate update (explicit user-level DMA transfer),
 *   2. automatic update (stores to bound memory propagate on their own),
 *   3. a notified send that triggers a user-level handler.
 * Mappings are owned by RAII handles: when the sender's ImportHandle
 * goes out of scope the proxy is torn down, and the receiver's
 * ExportHandle unpins the buffer when it is done.
 *
 * Run: ./quickstart
 */

#include <cstdio>
#include <cstring>

#include "core/cluster.hh"
#include "core/vmmc.hh"

using namespace shrimp;
using namespace shrimp::core;

int
main()
{
    // A 4x4 mesh of 60 MHz Pentium nodes unless the SHRIMP_* run
    // settings say otherwise; the walkthrough binds automatic update,
    // so it keeps the SHRIMP NIs.
    ClusterConfig config = envClusterConfig();
    config.nicKind = NicKind::Shrimp;
    Cluster cluster(config);

    // Plumbing the two sides share.
    ExportHandle exported;
    char *recv_buf = nullptr;
    int notified = 0;
    bool sender_done = false;

    // --- node 1: export a receive buffer and poll for arrivals ---
    cluster.spawnOn(1, "receiver", [&] {
        Endpoint &ep = cluster.vmmc(1);

        // Receive buffers are page-aligned pinned memory; the handle
        // owns the export and unpins the pages when reset.
        recv_buf = static_cast<char *>(
            cluster.node(1).mem().alloc(8192, /*page_aligned=*/true));
        std::memset(recv_buf, 0, 8192);
        exported = ExportHandle(ep, recv_buf, 8192);

        // Optional: notifications upcall a handler, like a signal.
        ep.enableNotifications(
            exported.id(),
            [&](NodeId src, std::uint32_t offset, std::uint32_t bytes) {
                std::printf("[node1] notification: %u bytes at offset "
                            "%u from node %u\n",
                            bytes, offset, src);
                ++notified;
            });

        // VMMC receivers poll — there is no receive call.
        ep.waitUntil([&] { return notified >= 1 && recv_buf[0] != 0; });
        std::printf("[node1] saw \"%s\" and \"%s\"\n", recv_buf,
                    recv_buf + 4096);

        // Withdraw the buffer once the conversation is over; any
        // straggling send through a stale proxy would now fault
        // instead of landing in unpinned memory.
        while (!sender_done)
            cluster.sim().delay(microseconds(10));
        exported.reset();
    });

    // --- node 0: import and send ---
    cluster.spawnOn(0, "sender", [&] {
        Endpoint &ep = cluster.vmmc(0);
        while (!exported)
            cluster.sim().delay(microseconds(10));

        // The handle tears the proxy mapping down when it dies.
        ImportHandle proxy(ep, /*owner=*/1, exported.id());

        // 1. Deliberate update: an explicit transfer. The two-
        //    instruction UDMA initiation costs < 2 us of CPU time.
        Tick t0 = cluster.sim().now();
        ep.send(proxy.id(), "hello", 6, /*dst_offset=*/0);
        std::printf("[node0] deliberate update initiated in %.2f us\n",
                    toMicroseconds(cluster.sim().now() - t0));

        // 2. Automatic update: bind local memory to the second page
        //    of the remote buffer; plain stores then travel by
        //    themselves as a side effect of the memory-bus snoop.
        char *bound = static_cast<char *>(
            cluster.node(0).mem().alloc(4096, true));
        ep.bindAu(bound, proxy.id(), /*dst_offset=*/4096, 4096);
        ep.auWriteBlock(bound, "world", 6);
        ep.auFlush();

        // 3. A notified send (interrupt-request bit set).
        char ping = '!';
        ep.send(proxy.id(), &ping, 1, 100, /*notify=*/true);
        ep.drainSends();
        ep.unbindAu(bound, 4096);
        sender_done = true;
    });

    cluster.run();

    std::printf("done at %.1f us simulated, %llu packets on the mesh\n",
                toMicroseconds(cluster.sim().now()),
                (unsigned long long)cluster.sim().stats().counterValue(
                    "mesh.packets"));
    return 0;
}

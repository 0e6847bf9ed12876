/**
 * @file
 * DFS-sockets (Sec 3): a distributed cluster file system on stream
 * sockets. Server processes on half the nodes serve 8 KB file blocks
 * out of warmed-up memory caches; client threads on the other half
 * read large files whose per-client working set exceeds one node's
 * cache but fits in the cluster total — so the experiment is all
 * node-to-node block transfers and no disk I/O. Uses the sockets
 * library's block-transfer extension.
 */

#ifndef SHRIMP_APPS_DFS_HH
#define SHRIMP_APPS_DFS_HH

#include "apps/app_common.hh"
#include "sockets/socket.hh"

namespace shrimp::apps
{

/** DFS workload configuration. */
struct DfsConfig
{
    /** Server nodes (0..servers-1). */
    int servers = 8;

    /** Client nodes (servers..servers+clients-1); the paper runs 4. */
    int clients = 4;

    /** File block size. */
    std::size_t blockBytes = 8192;

    /** Blocks per file. */
    int blocksPerFile = 64;

    /** Files each client reads, twice (cold + re-read). */
    int filesPerClient = 4;

    /** Client block-cache capacity, in blocks (< working set). */
    int clientCacheBlocks = 96;

    /** Client-side per-block bookkeeping (hash, LRU). */
    Tick clientBlockCost = microseconds(30);

    /** Server-side per-block lookup. */
    Tick serverBlockCost = microseconds(40);

    /**
     * Force the AU transport (Sec 4.5.1's what-if; the NIC's
     * combiningEnabled decides whether its stores combine).
     */
    bool useAutomaticUpdate = false;
};

/** Run the DFS workload; nprocs = servers + clients must fit. */
AppResult runDfs(const core::ClusterConfig &cluster_config,
                 const DfsConfig &config);

} // namespace shrimp::apps

#endif // SHRIMP_APPS_DFS_HH

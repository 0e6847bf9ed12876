#include "apps/dfs.hh"

#include <cstring>
#include <list>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"

namespace shrimp::apps
{

namespace
{

/** On-wire request record. */
struct BlockRequest
{
    std::uint32_t file;
    std::uint32_t block;
    std::uint32_t done; //!< nonzero terminates the connection
    std::uint32_t pad;
};

/** Deterministic block contents (server "disk"). */
void
fillBlock(std::uint32_t file, std::uint32_t block, char *out,
          std::size_t bytes)
{
    auto seed = std::uint32_t(file * 2654435761u + block * 40503u);
    for (std::size_t i = 0; i < bytes; ++i)
        out[i] = char((seed >> (i % 24)) + i * 13);
}

/** Simple LRU set of block ids. */
class LruCache
{
  public:
    explicit LruCache(std::size_t capacity) : capacity(capacity) {}

    bool
    touch(std::uint64_t key)
    {
        auto it = map.find(key);
        if (it != map.end()) {
            order.splice(order.begin(), order, it->second);
            return true;
        }
        order.push_front(key);
        map[key] = order.begin();
        if (order.size() > capacity) {
            map.erase(order.back());
            order.pop_back();
        }
        return false;
    }

  private:
    std::size_t capacity;
    std::list<std::uint64_t> order;
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator> map;
};

} // anonymous namespace

AppResult
runDfs(const core::ClusterConfig &cluster_config, const DfsConfig &config)
{
    core::Cluster cluster(cluster_config);
    const int nprocs = config.servers + config.clients;
    if (nprocs > cluster.nodeCount())
        fatal("dfs: %d servers + %d clients exceed the cluster",
              config.servers, config.clients);

    sock::SocketConfig scfg;
    scfg.useAutomaticUpdate = config.useAutomaticUpdate;
    sock::SocketDomain dom(cluster, scfg);

    AppResult result;
    result.name = "DFS-sockets";
    result.nprocs = nprocs;
    Region region(cluster, config.clients);
    std::vector<Process *> clients(config.clients);
    std::uint64_t grand_checksum = 0;

    // --- servers: one process per expected client connection ---
    for (int s = 0; s < config.servers; ++s) {
        for (int c = 0; c < config.clients; ++c) {
            cluster.spawnOn(s, "dfs_srv", [&, s, c] {
                (void)c;
                sock::Socket *sk = dom.accept(s, 7000 + s);
                auto &cpu = cluster.node(s).cpu();
                std::vector<char> block(config.blockBytes);
                for (;;) {
                    BlockRequest req;
                    sk->recvExact(&req, sizeof(req));
                    if (req.done)
                        break;
                    // Warm cache: the block is resident; look it up
                    // and ship it with the block-transfer extension.
                    cpu.compute(config.serverBlockCost);
                    fillBlock(req.file, req.block, block.data(),
                              config.blockBytes);
                    sk->sendBlock(block.data(), config.blockBytes);
                }
            });
        }
    }

    // --- clients ---
    for (int c = 0; c < config.clients; ++c) {
        int node = config.servers + c;
        clients[c] = cluster.spawnOn(node, "dfs_client", [&, c, node] {
            auto &cpu = cluster.node(node).cpu();
            TimeAccount &acct = clients[c]->account;
            acct.start(cluster.sim().now());

            // Connect to every server.
            std::vector<sock::Socket *> conns(config.servers);
            for (int s = 0; s < config.servers; ++s)
                conns[s] = dom.connect(node, s, 7000 + s);

            region.enter(c);
            LruCache cache(std::size_t(config.clientCacheBlocks));
            std::vector<char> block(config.blockBytes);
            std::uint64_t sum = 0;

            // Each client reads its own files twice: the second pass
            // re-misses because the working set exceeds the cache.
            for (int pass = 0; pass < 2; ++pass) {
                for (int f = 0; f < config.filesPerClient; ++f) {
                    std::uint32_t file =
                        std::uint32_t(c * config.filesPerClient + f);
                    for (int blk = 0; blk < config.blocksPerFile;
                         ++blk) {
                        cpu.compute(config.clientBlockCost);
                        std::uint64_t key =
                            (std::uint64_t(file) << 32) |
                            std::uint64_t(blk);
                        if (cache.touch(key)) {
                            cpu.chargeCopy(config.blockBytes);
                            continue; // local cache hit
                        }
                        int server =
                            int((file * 31 + std::uint32_t(blk)) %
                                std::uint32_t(config.servers));
                        BlockRequest req{file, std::uint32_t(blk), 0,
                                         0};
                        conns[server]->send(&req, sizeof(req));
                        conns[server]->recvBlock(block.data(),
                                                 config.blockBytes);
                        sum += std::uint8_t(block[1]) +
                               std::uint8_t(block[100]);
                    }
                }
            }
            acct.stop(region.leave(c));
            grand_checksum += sum;

            // Tear down the connections.
            BlockRequest bye{0, 0, 1, 0};
            for (int s = 0; s < config.servers; ++s)
                conns[s]->send(&bye, sizeof(bye));
        });
    }

    cluster.run();
    region.finish(result, clients);
    result.checksum = grand_checksum;
    result.param("servers", config.servers);
    result.param("clients", config.clients);
    result.param("block_bytes", config.blockBytes);
    result.param("files_per_client", config.filesPerClient);
    return result;
}

} // namespace shrimp::apps

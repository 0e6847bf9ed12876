#include "apps/render.hh"

#include <cstring>
#include <deque>
#include <vector>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace shrimp::apps
{

namespace
{

/** Controller -> worker task assignment. */
struct Task
{
    std::int32_t tile; //!< tile index, or -1 for "no more work"
    std::int32_t pad;
};

/** Deterministic per-tile cost factor in [0.5, 2.0): rays through
 * denser volume regions take longer, which is what the centralized
 * queue balances. */
double
tileCostFactor(int tile, std::uint64_t seed)
{
    Random rng(seed + std::uint64_t(tile) * 7919);
    return 0.5 + 1.5 * rng.uniform();
}

} // anonymous namespace

AppResult
runRender(const core::ClusterConfig &cluster_config,
          const RenderConfig &config)
{
    core::Cluster cluster(cluster_config);
    const int nprocs = config.workers + 1;
    if (nprocs > cluster.nodeCount())
        fatal("render: %d workers exceed the cluster", config.workers);

    const int tiles_per_edge = config.imageSize / config.tileSize;
    const int num_tiles = tiles_per_edge * tiles_per_edge;
    const std::size_t tile_bytes =
        std::size_t(config.tileSize) * config.tileSize * 4;

    sock::SocketConfig scfg;
    scfg.useAutomaticUpdate = config.useAutomaticUpdate;
    scfg.bufBytes = 256 * 1024;
    sock::SocketDomain dom(cluster, scfg);

    AppResult result;
    result.name = "Render-sockets";
    result.nprocs = nprocs;
    // One member, the image: worker 1 starts it once it holds the
    // volume, and the first controller to end its task loop after the
    // last tile landed ends it.
    Region region(cluster, 1);
    bool finished = false;

    // Shared controller state (all controller processes live on
    // node 0, so plain host state mirrors shared memory there).
    struct ControllerState
    {
        int next_tile = 0;
        int tiles_done = 0;
        std::vector<char> image;
    };
    auto state = std::make_shared<ControllerState>();
    state->image.assign(std::size_t(num_tiles) * tile_bytes, 0);

    // --- controller: one process per worker connection, each
    // accounted from its start to the end of its task loop ---
    std::vector<Process *> controllers(config.workers);
    for (int w = 1; w <= config.workers; ++w) {
        controllers[w - 1] = cluster.spawnOn(0, "render_ctl", [&, w, state] {
            TimeAccount &acct = controllers[w - 1]->account;
            acct.start(cluster.sim().now());
            sock::Socket *sk = dom.accept(0, 9000);
            auto &cpu = cluster.node(0).cpu();

            // Ship the volume data set at connection establishment.
            std::vector<char> volume(config.volumeBytes, char(w));
            sk->sendBlock(volume.data(), volume.size());

            std::vector<char> tile(tile_bytes);
            for (;;) {
                // Hand out the next task (or end).
                Task t{-1, 0};
                if (state->next_tile < num_tiles)
                    t.tile = state->next_tile++;
                cpu.compute(microseconds(15)); // queue management
                sk->send(&t, sizeof(t));
                if (t.tile < 0)
                    break;
                sk->recvExact(tile.data(), tile_bytes);
                std::memcpy(state->image.data() +
                                std::size_t(t.tile) * tile_bytes,
                            tile.data(), tile_bytes);
                ++state->tiles_done;
            }
            acct.stop(cluster.sim().now());
            if (state->tiles_done == num_tiles && !finished) {
                finished = true;
                region.leave(0);
            }
        });
    }

    // --- workers ---
    for (int w = 1; w <= config.workers; ++w) {
        cluster.spawnOn(w, "render_wrk", [&, w] {
            sock::Socket *sk = dom.connect(w, 0, 9000);
            auto &cpu = cluster.node(w).cpu();

            std::vector<char> volume(config.volumeBytes);
            sk->recvBlock(volume.data(), volume.size());
            if (w == 1)
                region.enter(0);

            std::vector<char> tile(tile_bytes);
            for (;;) {
                Task t;
                sk->recvExact(&t, sizeof(t));
                if (t.tile < 0)
                    break;
                // Ray-cast the tile: cost scales with tile density.
                double factor = tileCostFactor(t.tile, config.seed);
                Tick cost = Tick(double(config.tileSize) *
                                 config.tileSize *
                                 double(config.perPixelCost) * factor);
                cpu.compute(cost);
                for (std::size_t i = 0; i < tile_bytes; ++i)
                    tile[i] = char(t.tile * 31 + int(i) * 7 +
                                   int(volume[i % volume.size()]));
                sk->send(tile.data(), tile_bytes);
            }
        });
    }

    cluster.run();
    region.finish(result, controllers);
    std::uint64_t sum = 0;
    for (char ch : state->image)
        sum += std::uint8_t(ch);
    result.checksum = sum;
    result.param("workers", config.workers);
    result.param("image_size", config.imageSize);
    result.param("tile_size", config.tileSize);
    return result;
}

} // namespace shrimp::apps

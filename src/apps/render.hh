/**
 * @file
 * Render-sockets (Sec 3): the PARFUM-style parallel fault-tolerant
 * volume renderer. A controller process keeps a centralized task
 * queue of image tiles; worker processes pull tasks, ray-cast their
 * tile through a volume data set (replicated to every worker at
 * connection establishment), and stream the pixels back. Per-tile
 * cost varies, so the centralized queue load-balances dynamically.
 */

#ifndef SHRIMP_APPS_RENDER_HH
#define SHRIMP_APPS_RENDER_HH

#include "apps/app_common.hh"
#include "sockets/socket.hh"

namespace shrimp::apps
{

/** Renderer configuration. */
struct RenderConfig
{
    /** Workers (on nodes 1..workers); node 0 is the controller. */
    int workers = 15;

    /** Square image edge, pixels. */
    int imageSize = 256;

    /** Square tile edge, pixels (tasks = (image/tile)^2). */
    int tileSize = 32;

    /** Volume data set replicated to each worker at start. */
    std::size_t volumeBytes = 2 * 1024 * 1024;

    /** Base ray-cast cost per pixel; per-tile variance on top. */
    Tick perPixelCost = microseconds(18);

    /** Force the AU transport. */
    bool useAutomaticUpdate = false;

    std::uint64_t seed = 99;
};

/** Run the renderer; nprocs = workers + 1. */
AppResult runRender(const core::ClusterConfig &cluster_config,
                    const RenderConfig &config);

} // namespace shrimp::apps

#endif // SHRIMP_APPS_RENDER_HH

#include "apps/barnes.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "msg/nx.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace shrimp::apps
{

namespace
{

/** A body; padded so a record never straddles two pages. */
struct Body
{
    double pos[3];
    double vel[3];
    double acc[3];
    double mass;
    double pad[6];
};
static_assert(sizeof(Body) == 128, "Body must pack to 128 bytes");

/**
 * A tree cell. Child encoding: 0 = empty, +k = body index k-1,
 * -k = cell index k-1. Centre of mass accumulates as (moment, mass)
 * during insertion.
 */
struct Cell
{
    double moment[3];
    double mass;
    std::int32_t child[8];
    std::int32_t level;
    std::int32_t pad[15];
};
static_assert(sizeof(Cell) == 128, "Cell must pack to 128 bytes");

/** Morton (z-order) key of a position, for spatial partitioning. */
std::uint64_t
mortonKey(const double *pos)
{
    std::uint64_t key = 0;
    for (int bit = 20; bit >= 0; --bit) {
        for (int d = 0; d < 3; ++d) {
            std::uint64_t b =
                (std::uint64_t(pos[d] * (1 << 21)) >> bit) & 1;
            key = (key << 1) | b;
        }
    }
    return key;
}

/**
 * Deterministic initial bodies in the unit cube, sorted in Morton
 * order so contiguous ownership blocks are spatially compact (the
 * effect of SPLASH-2's costzones partitioning: each processor's
 * insertions stay mostly inside its own subtree).
 */
std::vector<Body>
makeBodies(const BarnesConfig &cfg)
{
    Random rng(cfg.seed);
    std::vector<Body> bodies(cfg.bodies);
    for (auto &b : bodies) {
        for (int d = 0; d < 3; ++d) {
            b.pos[d] = 0.05 + 0.9 * rng.uniform();
            b.vel[d] = (rng.uniform() - 0.5) * 0.01;
            b.acc[d] = 0.0;
        }
        b.mass = 1.0 / double(cfg.bodies);
    }
    std::sort(bodies.begin(), bodies.end(),
              [](const Body &a, const Body &b) {
                  return mortonKey(a.pos) < mortonKey(b.pos);
              });
    return bodies;
}

/** Octant of @p pos within a cell centred at @p centre. */
int
octantOf(const double *pos, const double *centre)
{
    return (pos[0] >= centre[0] ? 1 : 0) |
           (pos[1] >= centre[1] ? 2 : 0) |
           (pos[2] >= centre[2] ? 4 : 0);
}

/** Move @p centre to the centre of @p oct, halving @p half. */
void
descend(double *centre, double &half, int oct)
{
    half *= 0.5;
    centre[0] += (oct & 1) ? half : -half;
    centre[1] += (oct & 2) ? half : -half;
    centre[2] += (oct & 4) ? half : -half;
}

/** Pairwise gravitational acceleration contribution. */
void
addForce(const double *pos, const double *src, double mass, double *acc)
{
    double dx = src[0] - pos[0];
    double dy = src[1] - pos[1];
    double dz = src[2] - pos[2];
    double d2 = dx * dx + dy * dy + dz * dz + 1e-6;
    double inv = 1.0 / (d2 * std::sqrt(d2));
    acc[0] += mass * dx * inv;
    acc[1] += mass * dy * inv;
    acc[2] += mass * dz * inv;
}

/** Position/velocity integration with reflecting walls. */
void
integrate(Body &b, double dt)
{
    for (int d = 0; d < 3; ++d) {
        b.vel[d] += b.acc[d] * dt;
        b.pos[d] += b.vel[d] * dt;
        if (b.pos[d] < 0.0) {
            b.pos[d] = -b.pos[d];
            b.vel[d] = -b.vel[d];
        }
        if (b.pos[d] > 1.0) {
            b.pos[d] = 2.0 - b.pos[d];
            b.vel[d] = -b.vel[d];
        }
        // Keep bodies strictly inside the cube so wall contact can
        // not make two bodies exactly coincident.
        b.pos[d] = std::clamp(b.pos[d], 1e-6, 1.0 - 1e-6);
    }
}

/** Checksum of the bodies, fed in body order: Σ|pos| scaled by 1e6. */
class BodyChecksum
{
  public:
    void
    add(const Body &b)
    {
        sum += std::fabs(b.pos[0]) + std::fabs(b.pos[1]) +
               std::fabs(b.pos[2]);
    }

    std::uint64_t value() const { return std::uint64_t(sum * 1e6); }

  private:
    double sum = 0.0;
};

/** Bodies per rank; fatal unless @p bodies split evenly over @p nprocs. */
int
bodiesPerRank(int bodies, int nprocs)
{
    if (bodies % nprocs != 0)
        fatal("barnes: %d bodies not divisible by %d procs", bodies,
              nprocs);
    return bodies / nprocs;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Barnes-SVM
// ---------------------------------------------------------------------

AppResult
runBarnesSvm(const core::ClusterConfig &cluster_config,
             svm::Protocol protocol, int nprocs,
             const BarnesConfig &config)
{
    core::Cluster cluster(cluster_config);
    const int nb = config.bodies;
    const int max_cells = 2 * nb + 64;

    svm::SvmConfig scfg;
    scfg.protocol = protocol;
    scfg.nprocs = nprocs;
    scfg.heapBytes =
        ((std::size_t(nb) + max_cells) * sizeof(Cell) / node::kPageBytes +
         64) *
        node::kPageBytes;
    svm::SvmRuntime rt(cluster, scfg);

    auto *bodies = rt.sharedAllocArray<Body>(nb);
    auto *cells = rt.sharedAllocArray<Cell>(max_cells);

    // Bodies homed block-wise at their owners; cells segmented into
    // per-rank pools (SPLASH-2 style) so a rank's subdivisions live
    // in its own pages — cell 0 (the root) comes out of rank 0's
    // pool.
    const int per = bodiesPerRank(nb, nprocs);
    const int cells_per = max_cells / nprocs;
    for (int q = 0; q < nprocs; ++q) {
        rt.setHomeBlock(bodies + q * per,
                        std::size_t(per) * sizeof(Body), q);
        rt.setHomeBlock(cells + q * cells_per,
                        std::size_t(cells_per) * sizeof(Cell), q);
    }

    auto init = makeBodies(config);

    AppResult result;
    result.name = "Barnes-SVM";
    result.nprocs = nprocs;
    Region region(cluster, nprocs);

    // Lock assignments.
    const int num_locks = rt.config().numLocks;
    auto cell_lock = [num_locks](std::int32_t cell) {
        return int(cell % std::int32_t(num_locks));
    };

    std::vector<Process *> procs(nprocs);
    for (int q = 0; q < nprocs; ++q) {
        procs[q] = cluster.spawnOn(q, "barnes", [&, q] {
            rt.init(q);
            procs[q]->account.start(cluster.sim().now());
            svm::SvmView v(rt, q);
            auto &cpu = cluster.node(q).cpu();
            const int first = q * per;
            const int last = first + per;
            // Private cell pool (the root slot is reserved in
            // rank 0's pool).
            std::int32_t pool_next =
                q * cells_per + (q == 0 ? 1 : 0);
            const std::int32_t pool_end = (q + 1) * cells_per;

            for (int i = first; i < last; ++i)
                v.writeRange(&bodies[i], &init[i], sizeof(Body));
            v.barrier();
            region.enter(q);

            std::vector<Body> local(per);
            // Per-rank centre-of-mass tables, rebuilt every step from
            // the shared tree (bottom-up; cells index > parent index).
            std::vector<double> cmass;
            std::vector<double> cmom;

            for (int step = 0; step < config.timesteps; ++step) {
                // --- reset the tree ---
                if (q == 0) {
                    Cell root{};
                    root.level = 0;
                    v.writeRange(&cells[0], &root, sizeof(Cell));
                }
                pool_next = q * cells_per + (q == 0 ? 1 : 0);
                v.barrier();

                // --- parallel build: lock-free descent, cells locked
                // only while being modified (SPLASH-2 style) ---
                for (int i = first; i < last; ++i) {
                    const Body *b = reinterpret_cast<const Body *>(
                        v.readStruct(&bodies[i], sizeof(Body), 4));
                    double bpos[3] = {b->pos[0], b->pos[1], b->pos[2]};

                    std::int32_t cur = 0;
                    double centre[3] = {0.5, 0.5, 0.5};
                    double half = 0.5;
                    int depth = 0;
                    for (;;) {
                        if (++depth > 200)
                            fatal("barnes: runaway tree depth");
                        if (half < 1e-7) {
                            // (Nearly) coincident bodies: perturb the
                            // insertion coordinates so the octants
                            // eventually separate (standard BH hack).
                            bpos[0] += 2e-7 * double(1 + (i & 7));
                            bpos[1] += 1e-7;
                        }
                        cpu.compute(config.perBuildStepCost);
                        const Cell *peek =
                            reinterpret_cast<const Cell *>(
                                v.readStruct(&cells[cur],
                                             sizeof(Cell), 4));
                        int oct = octantOf(bpos, centre);
                        std::int32_t c = peek->child[oct];
                        if (c < 0) {
                            descend(centre, half, oct);
                            cur = -c - 1;
                            continue;
                        }

                        // Slot is empty or holds a body: modify under
                        // the cell's lock, re-reading first.
                        v.lock(cell_lock(cur));
                        Cell cell;
                        std::memcpy(&cell,
                                    v.readStruct(&cells[cur],
                                                 sizeof(Cell), 8),
                                    sizeof(Cell));
                        c = cell.child[oct];
                        if (c == 0) {
                            cell.child[oct] = i + 1;
                            v.writeRange(&cells[cur], &cell, sizeof(Cell));
                            v.unlock(cell_lock(cur));
                            break;
                        }
                        if (c < 0) {
                            // Someone installed a subtree meanwhile.
                            v.unlock(cell_lock(cur));
                            descend(centre, half, oct);
                            cur = -c - 1;
                            continue;
                        }

                        // Occupied by a body: split the octant.
                        std::int32_t other = c - 1;
                        const Body *ob =
                            reinterpret_cast<const Body *>(
                                v.readStruct(&bodies[other],
                                             sizeof(Body), 4));
                        double opos[3] = {ob->pos[0], ob->pos[1],
                                          ob->pos[2]};

                        std::int32_t fresh = pool_next++;
                        if (fresh >= pool_end)
                            fatal("barnes: rank %d cell pool "
                                  "exhausted", q);

                        double sub_centre[3] = {centre[0], centre[1],
                                                centre[2]};
                        double sub_half = half;
                        descend(sub_centre, sub_half, oct);

                        Cell nc{};
                        nc.level = cell.level + 1;
                        nc.child[octantOf(opos, sub_centre)] =
                            other + 1;
                        v.writeRange(&cells[fresh], &nc, sizeof(Cell));
                        cell.child[oct] = -(fresh + 1);
                        v.writeRange(&cells[cur], &cell, sizeof(Cell));
                        v.unlock(cell_lock(cur));

                        centre[0] = sub_centre[0];
                        centre[1] = sub_centre[1];
                        centre[2] = sub_centre[2];
                        half = sub_half;
                        cur = fresh;
                    }
                }
                v.barrier();

                // --- centre-of-mass tables: post-order traversal,
                // computed privately by every rank (the faults it
                // takes pull in exactly the tree pages the force
                // phase needs anyway) ---
                cmass.assign(std::size_t(max_cells), -1.0);
                cmom.assign(std::size_t(max_cells) * 3, 0.0);
                {
                    std::vector<std::int32_t> dfs;
                    dfs.push_back(0);
                    while (!dfs.empty()) {
                        std::int32_t ci = dfs.back();
                        const Cell *cell =
                            reinterpret_cast<const Cell *>(
                                v.readStruct(&cells[ci],
                                             sizeof(Cell), 8));
                        bool ready = true;
                        for (int o = 0; o < 8; ++o) {
                            std::int32_t c = cell->child[o];
                            if (c < 0 &&
                                cmass[std::size_t(-c - 1)] < 0.0) {
                                dfs.push_back(-c - 1);
                                ready = false;
                            }
                        }
                        if (!ready)
                            continue;
                        dfs.pop_back();
                        double m = 0, mx = 0, my = 0, mz = 0;
                        for (int o = 0; o < 8; ++o) {
                            std::int32_t c = cell->child[o];
                            if (c == 0)
                                continue;
                            if (c > 0) {
                                const Body *cb =
                                    reinterpret_cast<const Body *>(
                                        v.readStruct(&bodies[c - 1],
                                                     sizeof(Body),
                                                     4));
                                m += cb->mass;
                                mx += cb->mass * cb->pos[0];
                                my += cb->mass * cb->pos[1];
                                mz += cb->mass * cb->pos[2];
                            } else {
                                std::size_t cc = std::size_t(-c - 1);
                                m += cmass[cc];
                                mx += cmom[cc * 3 + 0];
                                my += cmom[cc * 3 + 1];
                                mz += cmom[cc * 3 + 2];
                            }
                        }
                        cmass[std::size_t(ci)] = m;
                        cmom[std::size_t(ci) * 3 + 0] = mx;
                        cmom[std::size_t(ci) * 3 + 1] = my;
                        cmom[std::size_t(ci) * 3 + 2] = mz;
                        cpu.compute(config.perBuildStepCost / 2);
                    }
                }

                // --- forces: partial traversal per owned body ---
                for (int i = first; i < last; ++i) {
                    const Body *bp = reinterpret_cast<const Body *>(
                        v.readStruct(&bodies[i], sizeof(Body), 4));
                    Body b = *bp;
                    b.acc[0] = b.acc[1] = b.acc[2] = 0.0;

                    struct Frame
                    {
                        std::int32_t node; //!< child encoding
                        double half;
                    };
                    std::vector<Frame> stack;
                    stack.push_back(Frame{-1, 0.5}); // root cell 0

                    while (!stack.empty()) {
                        Frame f = stack.back();
                        stack.pop_back();
                        if (f.node > 0) {
                            int bi = f.node - 1;
                            if (bi == i)
                                continue;
                            const Body *ob =
                                reinterpret_cast<const Body *>(
                                    v.readStruct(&bodies[bi],
                                                 sizeof(Body), 4));
                            addForce(b.pos, ob->pos, ob->mass, b.acc);
                            cpu.compute(config.perInteractionCost);
                            continue;
                        }
                        std::int32_t ci = -f.node - 1;
                        const Cell *cell =
                            reinterpret_cast<const Cell *>(
                                v.readStruct(&cells[ci], sizeof(Cell),
                                             8));
                        double cm = cmass[std::size_t(ci)];
                        if (cm <= 0.0)
                            continue;
                        double com[3] = {
                            cmom[std::size_t(ci) * 3 + 0] / cm,
                            cmom[std::size_t(ci) * 3 + 1] / cm,
                            cmom[std::size_t(ci) * 3 + 2] / cm};
                        double dx = com[0] - b.pos[0];
                        double dy = com[1] - b.pos[1];
                        double dz = com[2] - b.pos[2];
                        double dist =
                            std::sqrt(dx * dx + dy * dy + dz * dz) +
                            1e-9;
                        if (2.0 * f.half / dist < config.theta) {
                            addForce(b.pos, com, cm, b.acc);
                            cpu.compute(config.perInteractionCost);
                        } else {
                            for (int o = 0; o < 8; ++o) {
                                if (cell->child[o] != 0)
                                    stack.push_back(
                                        Frame{cell->child[o],
                                              f.half * 0.5});
                            }
                        }
                    }
                    local[i - first] = b;
                }
                v.barrier();

                // --- update owned bodies ---
                for (int i = first; i < last; ++i) {
                    integrate(local[i - first], config.dt);
                    cpu.compute(config.perInteractionCost);
                    v.writeRange(&bodies[i], &local[i - first], sizeof(Body));
                }
                v.barrier();
            }

            procs[q]->account.stop(region.leave(q));
        });
    }

    cluster.run();
    if (!region.finish(result, procs))
        warn("%s runtime state at deadlock:\n%s",
             result.name.c_str(), rt.debugState().c_str());
    BodyChecksum sum;
    forEachAtHome(rt, bodies, std::size_t(nb),
                  [&](const Body &b) { sum.add(b); });
    result.checksum = sum.value();
    result.param("bodies", config.bodies);
    result.param("timesteps", config.timesteps);
    result.param("seed", config.seed);
    result.param("protocol", svm::protocolName(protocol));
    return result;
}

// ---------------------------------------------------------------------
// Barnes-NX (replicated tree)
// ---------------------------------------------------------------------

namespace
{

/** Host-side octree used by the NX version. */
struct LocalTree
{
    std::vector<Cell> cells;

    void
    reset()
    {
        cells.assign(1, Cell{});
    }

    /** @return descent steps taken (for cost charging). */
    int
    insert(const std::vector<Body> &bodies, int body_index)
    {
        const Body &b = bodies[body_index];
        double centre[3] = {0.5, 0.5, 0.5};
        double half = 0.5;
        std::int32_t cur = 0;
        int steps = 0;
        for (;;) {
            ++steps;
            Cell &cell = cells[cur];
            for (int d = 0; d < 3; ++d)
                cell.moment[d] += b.mass * b.pos[d];
            cell.mass += b.mass;

            int oct = octantOf(b.pos, centre);
            std::int32_t c = cell.child[oct];
            if (c == 0) {
                cell.child[oct] = body_index + 1;
                return steps;
            }
            if (c > 0) {
                std::int32_t other = c - 1;
                const Body &ob = bodies[other];
                double sub_centre[3] = {centre[0], centre[1],
                                        centre[2]};
                double sub_half = half;
                descend(sub_centre, sub_half, oct);

                Cell nc{};
                nc.level = cell.level + 1;
                for (int d = 0; d < 3; ++d)
                    nc.moment[d] = ob.mass * ob.pos[d];
                nc.mass = ob.mass;
                nc.child[octantOf(ob.pos, sub_centre)] = other + 1;
                cells.push_back(nc);
                std::int32_t fresh = std::int32_t(cells.size() - 1);
                cells[cur].child[oct] = -(fresh + 1);

                cur = fresh;
                centre[0] = sub_centre[0];
                centre[1] = sub_centre[1];
                centre[2] = sub_centre[2];
                half = sub_half;
                continue;
            }
            descend(centre, half, oct);
            cur = -c - 1;
        }
    }

    /** @return interactions performed. */
    int
    force(const std::vector<Body> &bodies, int body_index, double theta,
          double *acc)
    {
        const Body &b = bodies[body_index];
        int interactions = 0;
        struct Frame
        {
            std::int32_t node;
            double half;
        };
        std::vector<Frame> stack;
        stack.push_back(Frame{-1, 0.5});
        while (!stack.empty()) {
            Frame f = stack.back();
            stack.pop_back();
            if (f.node > 0) {
                int bi = f.node - 1;
                if (bi == body_index)
                    continue;
                addForce(b.pos, bodies[bi].pos, bodies[bi].mass, acc);
                ++interactions;
                continue;
            }
            const Cell &cell = cells[-f.node - 1];
            if (cell.mass <= 0.0)
                continue;
            double com[3] = {cell.moment[0] / cell.mass,
                             cell.moment[1] / cell.mass,
                             cell.moment[2] / cell.mass};
            double dx = com[0] - b.pos[0];
            double dy = com[1] - b.pos[1];
            double dz = com[2] - b.pos[2];
            double dist =
                std::sqrt(dx * dx + dy * dy + dz * dz) + 1e-9;
            if (2.0 * f.half / dist < theta) {
                addForce(b.pos, com, cell.mass, acc);
                ++interactions;
            } else {
                for (int o = 0; o < 8; ++o) {
                    if (cell.child[o] != 0)
                        stack.push_back(
                            Frame{cell.child[o], f.half * 0.5});
                }
            }
        }
        return interactions;
    }
};

} // anonymous namespace

AppResult
runBarnesNx(const core::ClusterConfig &cluster_config, bool use_au,
            int nprocs, const BarnesConfig &config)
{
    core::Cluster cluster(cluster_config);
    const int nb = config.bodies;
    const int per = bodiesPerRank(nb, nprocs);

    msg::NxConfig ncfg;
    ncfg.nprocs = nprocs;
    ncfg.useAutomaticUpdate = use_au;
    ncfg.ringBytes = 1024 * 1024;
    msg::NxDomain dom(cluster, ncfg);

    auto init = makeBodies(config);

    AppResult result;
    result.name = use_au ? "Barnes-NX (AU)" : "Barnes-NX (DU)";
    result.nprocs = nprocs;
    Region region(cluster, nprocs);
    std::vector<Process *> procs(nprocs);

    enum
    {
        kBodiesMsg = 20,
        kResultMsg = 21
    };

    for (int q = 0; q < nprocs; ++q) {
        procs[q] = cluster.spawnOn(q, "barnes", [&, q] {
            dom.init(q);
            auto &nx = dom.process(q);
            procs[q]->account.start(cluster.sim().now());
            auto &cpu = cluster.node(q).cpu();

            std::vector<Body> bodies = init;
            LocalTree tree;

            nx.gsync();
            region.enter(q);

            const int first = q * per;
            const std::size_t block_bytes =
                std::size_t(per) * sizeof(Body);

            for (int step = 0; step < config.timesteps; ++step) {
                // Build the replicated tree locally.
                tree.reset();
                int steps_taken = 0;
                for (int i = 0; i < nb; ++i)
                    steps_taken += tree.insert(bodies, i);
                cpu.compute(Tick(steps_taken) *
                            config.perBuildStepCost);

                // Forces for the owned block (all at the current
                // positions), then integrate.
                for (int i = first; i < first + per; ++i) {
                    double acc[3] = {0, 0, 0};
                    int inter = tree.force(bodies, i, config.theta,
                                           acc);
                    cpu.compute(Tick(inter) *
                                config.perInteractionCost);
                    bodies[i].acc[0] = acc[0];
                    bodies[i].acc[1] = acc[1];
                    bodies[i].acc[2] = acc[2];
                }
                for (int i = first; i < first + per; ++i) {
                    integrate(bodies[i], config.dt);
                    cpu.compute(config.perInteractionCost);
                }

                // All-gather the updated blocks: the communication
                // that appears in an otherwise compute-only phase.
                // Sent at (near) per-body granularity, as the paper's
                // message counts indicate.
                (void)block_bytes;
                const int chunk = std::max(1, config.bodiesPerMessage);
                for (int p2 = 0; p2 < nprocs; ++p2) {
                    if (p2 == q)
                        continue;
                    for (int i = 0; i < per; i += chunk) {
                        int n = std::min(chunk, per - i);
                        nx.csend(kBodiesMsg,
                                 bodies.data() + first + i,
                                 std::size_t(n) * sizeof(Body), p2);
                    }
                }
                for (int p2 = 0; p2 < nprocs; ++p2) {
                    if (p2 == q)
                        continue;
                    int received = 0;
                    std::size_t chunk_sz = std::size_t(chunk);
                    std::vector<Body> blk(chunk_sz);
                    while (received < per) {
                        std::size_t got = nx.crecvProbe(
                            kBodiesMsg, p2, blk.data(),
                            blk.size() * sizeof(Body), nullptr);
                        int n = int(got / sizeof(Body));
                        std::memcpy(bodies.data() + p2 * per +
                                        received,
                                    blk.data(), got);
                        received += n;
                    }
                }
                nx.gsync();
            }

            procs[q]->account.stop(region.leave(q));

            if (q == 0) {
                BodyChecksum sum;
                for (const Body &b : bodies)
                    sum.add(b);
                result.checksum = sum.value();
            }
        });
    }

    cluster.run();
    region.finish(result, procs);
    result.param("bodies", config.bodies);
    result.param("timesteps", config.timesteps);
    result.param("seed", config.seed);
    result.param("transfer", use_au ? "au" : "du");
    return result;
}

} // namespace shrimp::apps

#include "apps/ocean.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "msg/nx.hh"
#include "sim/logging.hh"

namespace shrimp::apps
{

namespace
{

/** Deterministic initial condition. */
double
initial(int n, int r, int c)
{
    return std::sin(double(r) * 0.13) * std::cos(double(c) * 0.07) +
           double((r * 31 + c * 17) % 100) * 0.01 * double(n) / 258.0;
}

/** Five-point stencil update. */
inline double
relax(double up, double down, double left, double right, double self)
{
    return 0.2 * (up + down + left + right + self);
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Ocean-SVM
// ---------------------------------------------------------------------

AppResult
runOceanSvm(const core::ClusterConfig &cluster_config,
            svm::Protocol protocol, int nprocs,
            const OceanConfig &config)
{
    core::Cluster cluster(cluster_config);
    const int n = config.n;
    const int interior = n - 2;
    if (interior % nprocs != 0)
        fatal("ocean: interior rows (%d) not divisible by %d procs",
              interior, nprocs);
    const int rows_per = interior / nprocs;

    svm::SvmConfig scfg;
    scfg.protocol = protocol;
    scfg.nprocs = nprocs;
    // Two grids, each rounded up to whole pages, and one errors page
    // per rank. The heap's export pins every page, so the fixed 64
    // pages of slack stay wherever they cover that (up to 62 ranks).
    const std::size_t grid_pages =
        (std::size_t(n) * n * 8 + node::kPageBytes - 1) / node::kPageBytes;
    scfg.heapBytes =
        std::max(2 * std::size_t(n) * n * 8 / node::kPageBytes + 64,
                 2 * grid_pages + std::size_t(nprocs)) *
        node::kPageBytes;
    svm::SvmRuntime rt(cluster, scfg);

    auto *grid_a = rt.sharedAllocArray<double>(std::size_t(n) * n);
    auto *grid_b = rt.sharedAllocArray<double>(std::size_t(n) * n);
    auto *errors = rt.sharedAllocArray<double>(
        std::size_t(nprocs) * (node::kPageBytes / 8));

    // Home each rank's row block at that rank (matrix partitioned in
    // blocks of n/p whole contiguous rows, Sec 3).
    for (int q = 0; q < nprocs; ++q) {
        int first = 1 + q * rows_per;
        rt.setHomeBlock(grid_a + std::size_t(first) * n,
                        std::size_t(rows_per) * n * 8, q);
        rt.setHomeBlock(grid_b + std::size_t(first) * n,
                        std::size_t(rows_per) * n * 8, q);
        rt.setHomeBlock(errors + std::size_t(q) *
                                     (node::kPageBytes / 8),
                        node::kPageBytes, q);
    }

    AppResult result;
    result.name = "Ocean-SVM";
    result.nprocs = nprocs;
    Region region(cluster, nprocs);
    std::vector<Process *> procs(nprocs);

    for (int q = 0; q < nprocs; ++q) {
        procs[q] = cluster.spawnOn(q, "ocean", [&, q] {
            rt.init(q);
            procs[q]->account.start(cluster.sim().now());
            svm::SvmView v(rt, q);
            auto &cpu = cluster.node(q).cpu();
            const int first = 1 + q * rows_per;
            const int last = first + rows_per; // exclusive

            // Initialize owned rows (plus the global boundary rows,
            // owned by the edge ranks).
            std::vector<double> row(n);
            auto fill_row = [&](double *grid, int r) {
                for (int c = 0; c < n; ++c)
                    row[c] = initial(n, r, c);
                v.writeRange(grid + std::size_t(r) * n, row.data(),
                             std::size_t(n) * 8);
            };
            for (int r = first; r < last; ++r) {
                fill_row(grid_a, r);
                fill_row(grid_b, r);
            }
            if (q == 0) {
                fill_row(grid_a, 0);
                fill_row(grid_b, 0);
            }
            if (q == nprocs - 1) {
                fill_row(grid_a, n - 1);
                fill_row(grid_b, n - 1);
            }
            v.barrier();
            region.enter(q);

            double *from = grid_a;
            double *to = grid_b;
            std::vector<double> out(n);
            for (int iter = 0; iter < config.iterations; ++iter) {
                double err = 0.0;
                for (int r = first; r < last; ++r) {
                    const auto *up = reinterpret_cast<const double *>(
                        v.readRange(from + std::size_t(r - 1) * n,
                                    std::size_t(n) * 8));
                    const auto *mid = reinterpret_cast<const double *>(
                        v.readRange(from + std::size_t(r) * n,
                                    std::size_t(n) * 8));
                    const auto *down =
                        reinterpret_cast<const double *>(v.readRange(
                            from + std::size_t(r + 1) * n,
                            std::size_t(n) * 8));
                    out[0] = mid[0];
                    out[n - 1] = mid[n - 1];
                    for (int c = 1; c < n - 1; ++c) {
                        out[c] = relax(up[c], down[c], mid[c - 1],
                                       mid[c + 1], mid[c]);
                        err += std::fabs(out[c] - mid[c]);
                    }
                    cpu.compute(Tick(n - 2) * config.perPointCost);
                    v.writeRange(to + std::size_t(r) * n, out.data(),
                                 std::size_t(n) * 8);
                }

                if ((iter + 1) % config.reduceEvery == 0) {
                    // Convergence check via shared partial errors.
                    v.write(&errors[std::size_t(q) *
                                    (node::kPageBytes / 8)],
                            err);
                    v.barrier();
                    double total = 0.0;
                    for (int p2 = 0; p2 < nprocs; ++p2)
                        total += v.read(
                            &errors[std::size_t(p2) *
                                    (node::kPageBytes / 8)]);
                    cpu.compute(Tick(nprocs) * 100);
                    (void)total;
                }

                v.barrier();
                std::swap(from, to);
            }

            procs[q]->account.stop(region.leave(q));
        });
    }

    cluster.run();
    region.finish(result, procs);
    // Checksum over the whole final grid; each iteration relaxes one
    // grid into the other.
    std::uint64_t sum = 0;
    forEachAtHome(rt, config.iterations % 2 ? grid_b : grid_a,
                  std::size_t(n) * n, [&](double g) {
                      sum += std::uint64_t(std::fabs(g) * 1000.0);
                  });
    result.checksum = sum;
    result.param("n", config.n);
    result.param("iterations", config.iterations);
    result.param("protocol", svm::protocolName(protocol));
    return result;
}

// ---------------------------------------------------------------------
// Ocean-NX
// ---------------------------------------------------------------------

AppResult
runOceanNx(const core::ClusterConfig &cluster_config, bool use_au,
           int nprocs, const OceanConfig &config)
{
    core::Cluster cluster(cluster_config);
    const int n = config.n;
    const int interior = n - 2;
    if (interior % nprocs != 0)
        fatal("ocean: interior rows (%d) not divisible by %d procs",
              interior, nprocs);
    const int rows_per = interior / nprocs;

    msg::NxConfig ncfg;
    ncfg.nprocs = nprocs;
    ncfg.useAutomaticUpdate = use_au;
    msg::NxDomain dom(cluster, ncfg);

    AppResult result;
    result.name = use_au ? "Ocean-NX (AU)" : "Ocean-NX (DU)";
    result.nprocs = nprocs;
    Region region(cluster, nprocs);
    std::vector<Process *> procs(nprocs);
    std::vector<double> final_checksums(nprocs, 0.0);

    enum MsgTypes
    {
        kRowUp = 10,  //!< my top row, sent to the rank above
        kRowDown = 11 //!< my bottom row, sent to the rank below
    };

    for (int q = 0; q < nprocs; ++q) {
        procs[q] = cluster.spawnOn(q, "ocean", [&, q] {
            dom.init(q);
            auto &nx = dom.process(q);
            procs[q]->account.start(cluster.sim().now());
            auto &cpu = cluster.node(q).cpu();

            // Local block with ghost rows: rows 0..rows_per+1.
            const int global_first = 1 + q * rows_per;
            std::vector<double> a((rows_per + 2) * std::size_t(n));
            std::vector<double> b((rows_per + 2) * std::size_t(n));
            for (int r = 0; r < rows_per + 2; ++r)
                for (int c = 0; c < n; ++c)
                    a[std::size_t(r) * n + c] = b[std::size_t(r) * n + c] =
                        initial(n, global_first + r - 1, c);

            nx.gsync();
            region.enter(q);

            double *from = a.data();
            double *to = b.data();
            const std::size_t row_bytes = std::size_t(n) * 8;
            for (int iter = 0; iter < config.iterations; ++iter) {
                // Exchange boundary rows with neighbours.
                if (q > 0)
                    nx.csend(kRowUp, from + std::size_t(1) * n,
                             row_bytes, q - 1);
                if (q < nprocs - 1)
                    nx.csend(kRowDown,
                             from + std::size_t(rows_per) * n,
                             row_bytes, q + 1);
                if (q < nprocs - 1)
                    nx.crecvProbe(kRowUp, q + 1,
                                  from + std::size_t(rows_per + 1) * n,
                                  row_bytes, nullptr);
                if (q > 0)
                    nx.crecvProbe(kRowDown, q - 1, from, row_bytes,
                                  nullptr);

                double err = 0.0;
                for (int r = 1; r <= rows_per; ++r) {
                    double *dst = to + std::size_t(r) * n;
                    const double *up = from + std::size_t(r - 1) * n;
                    const double *mid = from + std::size_t(r) * n;
                    const double *down = from + std::size_t(r + 1) * n;
                    dst[0] = mid[0];
                    dst[n - 1] = mid[n - 1];
                    for (int c = 1; c < n - 1; ++c) {
                        dst[c] = relax(up[c], down[c], mid[c - 1],
                                       mid[c + 1], mid[c]);
                        err += std::fabs(dst[c] - mid[c]);
                    }
                    cpu.compute(Tick(n - 2) * config.perPointCost);
                }

                if ((iter + 1) % config.reduceEvery == 0)
                    nx.gdsum(err);

                std::swap(from, to);
            }

            procs[q]->account.stop(region.leave(q));

            double sum = 0.0;
            for (int r = 1; r <= rows_per; ++r)
                for (int c = 0; c < n; ++c)
                    sum += std::fabs(from[std::size_t(r) * n + c]);
            final_checksums[q] = sum;
        });
    }

    cluster.run();
    region.finish(result, procs);
    double total = 0.0;
    for (double c : final_checksums)
        total += c;
    result.checksum = std::uint64_t(total * 1000.0);
    result.param("n", config.n);
    result.param("iterations", config.iterations);
    result.param("transfer", use_au ? "au" : "du");
    return result;
}

} // namespace shrimp::apps

/**
 * @file
 * Host-side performance of the simulation substrate itself (google-
 * benchmark): event throughput, fiber context switches, mesh packet
 * routing, and VMMC small-message rate. Useful for spotting
 * regressions that would make the experiment suite slow.
 */

#include <benchmark/benchmark.h>

#include <ucontext.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/vmmc.hh"
#include "mesh/network.hh"
#include "sim/simulation.hh"

using namespace shrimp;

namespace
{

void
BM_EventQueueThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t count = 0;
        for (int i = 0; i < 1000; ++i) {
            q.schedule(Tick(i), [&q, &count] {
                if (++count < 10000)
                    q.schedule(100, [] {});
            });
        }
        q.run();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueThroughput);

/**
 * Schedule/cancel churn: timeout-style events that almost never fire.
 * Exercises the slab pool's recycle path and generation counters —
 * the pattern every retry/timeout model produces. Each driver step
 * arms a far-future "timeout", then cancels it, like a request that
 * completes before its deadline.
 */
struct ChurnDriver
{
    EventQueue &q;
    std::uint64_t &fired;
    std::uint64_t step = 0;

    void
    operator()()
    {
        std::uint64_t *fp = &fired;
        EventHandle timeout =
            q.scheduleCancellable(1000000, [fp] { ++*fp; });
        timeout.cancel();
        ++fired;
        ChurnDriver next = *this;
        ++next.step;
        if (next.step < 20000)
            q.schedule(1, next);
    }
};

void
BM_EventQueueCancelChurn(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t fired = 0;
        q.schedule(1, ChurnDriver{q, fired});
        q.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_EventQueueCancelChurn);

/**
 * Cancellable-heavy steady state: many live cancellable events in
 * the heap at once, a random-ish half of them cancelled before their
 * tick arrives. Stresses lazy cancellation sweeping through pop.
 */
void
BM_EventQueueCancellableHeavy(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t fired = 0;
        std::vector<EventHandle> handles;
        handles.reserve(10000);
        for (int i = 0; i < 10000; ++i) {
            handles.push_back(q.scheduleCancellable(
                Tick(1 + (i * 37) % 1000), [&fired] { ++fired; }));
        }
        for (std::size_t i = 0; i < handles.size(); i += 2)
            handles[i].cancel();
        q.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueCancellableHeavy);

void
BM_FiberSwitch(benchmark::State &state)
{
    for (auto _ : state) {
        Simulation sim;
        int hops = 0;
        sim.spawn("a", [&] {
            for (int i = 0; i < 1000; ++i) {
                sim.delay(1);
                ++hops;
            }
        });
        sim.run();
        benchmark::DoNotOptimize(hops);
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_FiberSwitch);

/**
 * The bare context switch, no event queue: one resume into a fiber
 * that immediately yields, so every iteration is exactly two
 * transfers. This isolates the cost BM_FiberSwitch dilutes with
 * scheduling — the number the assembly switch path exists to shrink
 * (a ucontext transfer pays a sigprocmask syscall; the fcontext one
 * is a few dozen register moves in user space).
 */
void
BM_FiberSwitchRaw(benchmark::State &state)
{
    Fiber f(FiberBody([] {
        for (;;)
            Fiber::current()->yield();
    }));
    for (auto _ : state)
        f.resume();
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_FiberSwitchRaw);

/**
 * The old fiber engine measured directly: a raw swapcontext
 * ping-pong, independent of how the build's Fiber is configured.
 * Keeps the before/after comparison in one binary — compare against
 * BM_FiberSwitchRaw to see what retiring the per-switch sigprocmask
 * bought on this host.
 */
void
BM_UcontextSwitchBaseline(benchmark::State &state)
{
    static ucontext_t mainCtx, fiberCtx;
    static std::vector<unsigned char> stack(64 * 1024);
    static auto trampoline = +[]() {
        for (;;)
            swapcontext(&fiberCtx, &mainCtx);
    };
    if (getcontext(&fiberCtx) != 0)
        state.SkipWithError("getcontext failed");
    fiberCtx.uc_stack.ss_sp = stack.data();
    fiberCtx.uc_stack.ss_size = stack.size();
    fiberCtx.uc_link = nullptr;
    makecontext(&fiberCtx, reinterpret_cast<void (*)()>(trampoline), 0);
    for (auto _ : state)
        swapcontext(&mainCtx, &fiberCtx);
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_UcontextSwitchBaseline);

/**
 * The per-packet mesh datapath in isolation: a self-paced driver
 * injects a small burst of packets per wakeup (the way the DU engine
 * and AU train flushes hand packets to the mesh), on mostly idle
 * routes — the common case for latency-bound traffic. The
 * measurement is dominated by Network::send — stats accounting,
 * route walk, busy-time bookkeeping, and packet-record management
 * for the delivery event — rather than by link contention queueing.
 */
void
BM_MeshSendThroughput(benchmark::State &state)
{
    constexpr std::uint64_t kPackets = 20000;
    constexpr std::uint64_t kBurst = 8;
    struct Driver
    {
        Simulation &sim;
        mesh::Network &net;
        std::uint64_t &sent;

        void
        operator()()
        {
            // Two packets per mesh row per wakeup, each ping-ponging
            // across its own column pair: routes within a burst are
            // disjoint (row-internal X links only), so the burst
            // models independent concurrent flows rather than
            // self-induced contention.
            std::uint64_t wave = sent / kBurst;
            for (std::uint64_t b = 0; b < kBurst && sent < kPackets;
                 ++b) {
                NodeId base = NodeId(4 * (b >> 1) + 2 * (b & 1));
                mesh::Packet p;
                p.src = NodeId(base + wave % 2);
                p.dst = NodeId(base + (wave + 1) % 2);
                p.wireBytes = 128;
                net.send(std::move(p));
                ++sent;
            }
            if (sent < kPackets)
                sim.schedule(microseconds(2), Driver(*this));
        }
    };

    for (auto _ : state) {
        Simulation sim;
        mesh::Network net(sim, 4, 4);
        std::uint64_t delivered = 0;
        for (NodeId n = 0; n < 16; ++n)
            net.attach(n,
                       [&delivered](const mesh::Packet &) {
                           ++delivered;
                       });
        std::uint64_t sent = 0;
        sim.schedule(0, Driver{sim, net, sent});
        sim.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * kPackets);
}
BENCHMARK(BM_MeshSendThroughput);

/**
 * The statistics updates a packet crossing one NIC + the mesh pays,
 * expressed in the instrumentation idiom the datapath actually uses:
 * handles interned once at construction, bumped on every packet.
 * (Before the handles existed this benchmark spelled each update as
 * stats.counter(statPrefix + ".packets_in").inc() — a string build
 * plus a map lookup per bump.)
 */
void
BM_StatsHotPath(benchmark::State &state)
{
    StatsRegistry stats;
    std::string statPrefix = "node12.nic";
    CounterHandle packetsIn(stats, statPrefix + ".packets_in");
    CounterHandle bytesIn(stats, statPrefix + ".bytes_in");
    CounterHandle eisaBusyPs(stats, statPrefix + ".eisa_busy_ps");
    CounterHandle meshPackets(stats, "mesh.packets");
    CounterHandle meshBytes(stats, "mesh.bytes");
    for (auto _ : state) {
        packetsIn.inc();
        bytesIn.inc(512);
        eisaBusyPs.inc(1000);
        meshPackets.inc();
        meshBytes.inc(512);
    }
    state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_StatsHotPath);

void
BM_MeshRouting(benchmark::State &state)
{
    for (auto _ : state) {
        Simulation sim;
        mesh::Network net(sim, 4, 4);
        std::uint64_t delivered = 0;
        for (NodeId n = 0; n < 16; ++n)
            net.attach(n,
                       [&delivered](const mesh::Packet &) {
                           ++delivered;
                       });
        for (int i = 0; i < 2000; ++i) {
            mesh::Packet p;
            p.src = NodeId(i % 16);
            p.dst = NodeId((i * 7 + 3) % 16);
            p.wireBytes = 128;
            net.send(std::move(p));
        }
        sim.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_MeshRouting);

void
BM_VmmcSmallMessages(benchmark::State &state)
{
    // The run settings apply, on the SHRIMP NI's message path.
    core::ClusterConfig cc = core::envClusterConfig();
    cc.nicKind = core::NicKind::Shrimp;
    for (auto _ : state) {
        core::Cluster c(cc);
        core::ExportId exp = core::kInvalidExport;
        char *rbuf = nullptr;
        c.spawnOn(1, "recv", [&] {
            rbuf = static_cast<char *>(
                c.node(1).mem().alloc(4096, true));
            std::memset(rbuf, 0, 4096);
            exp = c.vmmc(1).exportBuffer(rbuf, 4096);
            c.vmmc(1).waitUntil([&] { return rbuf[0] == 100; });
        });
        c.spawnOn(0, "send", [&] {
            auto &ep = c.vmmc(0);
            while (exp == core::kInvalidExport)
                c.sim().delay(microseconds(10));
            core::ProxyId p = ep.import(1, exp);
            for (char i = 1; i <= 100; ++i)
                ep.send(p, &i, 1, 0);
            ep.drainSends();
        });
        c.run();
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_VmmcSmallMessages);

} // anonymous namespace

BENCHMARK_MAIN();

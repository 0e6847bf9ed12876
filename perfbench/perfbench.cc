/**
 * @file
 * Measurement driver of the repository benchmark. run.py starts one
 * process per job, so every workload run gets host accounting of its
 * own; each job prints one JSON object on stdout:
 *
 *   run     one workload run through the apps' public entry points,
 *           with the simulator's public counters and this process's
 *           rusage (optionally lifecycle histograms and a causal log,
 *           whose critical path is summed per span layer)
 *   setup   repeated core::Cluster construction at one geometry
 *   probe   host ns per call of each layer's public API
 *   oracle  a workload's checksum, computed without the parallel run
 *   calib   fixed host work that uses no simulator code, to gauge the
 *           speed of the host between workload runs
 *
 * Every job also reports the spans it timed around its calls into the
 * simulator, so a slow benchmark run can be located.
 *
 *   perfbench run --app radix-vmmc --mesh 16x16 --ranks 256
 *       --size 262144 --iters 2 --seed 1 [--lifecycle] [--causal F]
 *   perfbench setup --mesh 16x16 --reps 21
 *   perfbench probe --mesh 16x16 --ranks 256
 *   perfbench oracle --app barnes-nx --size 2048 --iters 2 --seed 1
 *   perfbench calib
 *
 * The configuration is pinned in full here, and the process refuses to
 * start while any SHRIMP_* variable is set: the Cluster constructor
 * layers those onto its config and would change the workload.
 */

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/barnes.hh"
#include "apps/radix.hh"
#include "core/vmmc.hh"
#include "mesh/network.hh"
#include "msg/nx.hh"
#include "sim/causal.hh"
#include "sim/causal_read.hh"
#include "sim/fiber.hh"
#include "sim/random.hh"

extern char **environ;

using namespace shrimp;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point kStart = Clock::now();

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg);
    std::exit(2);
}

/** `--key value` and bare `--flag` arguments after the job name. */
struct Args
{
    std::map<std::string, std::string> kv;

    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; ++i) {
            if (std::strncmp(argv[i], "--", 2) != 0)
                usage("arguments are --key value pairs");
            std::string key = argv[i] + 2;
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                kv[key] = argv[++i];
            else
                kv[key] = "";
        }
    }

    bool has(const std::string &k) const { return kv.count(k) != 0; }

    std::string
    str(const std::string &k) const
    {
        auto it = kv.find(k);
        if (it == kv.end())
            usage(("missing --" + k).c_str());
        return it->second;
    }

    std::uint64_t
    num(const std::string &k) const
    {
        std::string v = str(k);
        char *end = nullptr;
        unsigned long long n = std::strtoull(v.c_str(), &end, 10);
        if (v.empty() || *end != '\0')
            usage(("--" + k + " needs a whole number").c_str());
        return n;
    }
};

/** Host spans this process timed, in seconds since it started. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
};
std::vector<Span> g_spans;

template <class F>
auto
timed(const char *name, F &&fn)
{
    Span s{name, secondsSince(kStart), 0};
    struct Close
    {
        Span &s;
        ~Close()
        {
            s.end = secondsSince(kStart);
            g_spans.push_back(s);
        }
    } close{s};
    return fn();
}

/** Builds one flat JSON object. */
class Json
{
  public:
    void
    num(const char *key, double v)
    {
        field(key);
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += buf;
    }

    void
    u64(const char *key, std::uint64_t v)
    {
        field(key);
        out += std::to_string(v);
    }

    void
    raw(const char *key, const std::string &json)
    {
        field(key);
        out += json;
    }

    /** Close the object and print it as the only stdout line. */
    void
    print()
    {
        raw("spans", spansJson());
        std::printf("%s}\n", out.c_str());
    }

    static std::string
    object(const std::map<std::string, double> &m)
    {
        Json j;
        for (const auto &[k, v] : m)
            j.num(k.c_str(), v);
        return j.out + "}";
    }

  private:
    void
    field(const char *key)
    {
        out += out.size() > 1 ? ",\"" : "\"";
        out += key;
        out += "\":";
    }

    static std::string
    spansJson()
    {
        std::string s = "[";
        for (const auto &sp : g_spans) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "%s{\"name\":\"%s\",\"start_s\":%.9f,"
                          "\"end_s\":%.9f}",
                          s.size() > 1 ? "," : "", sp.name.c_str(),
                          sp.start, sp.end);
            s += buf;
        }
        return s + "]";
    }

    std::string out = "{";
};

/** Refuse to run with any SHRIMP_* variable in the environment. */
void
requireCleanEnv()
{
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "SHRIMP_", 7) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; it "
                         "would change the pinned workload\n",
                         *e);
            std::exit(3);
        }
    }
}

void
parseMeshArg(const Args &a, int &w, int &h)
{
    std::string spec = a.str("mesh");
    if (!core::parseMesh(spec.c_str(), w, h))
        usage("--mesh must be WxH");
}

/**
 * Every knob the workloads depend on, set explicitly: ShrimpNic, one
 * host thread, a lossless backplane, no sampler, no watchdog.
 */
core::ClusterConfig
pinnedConfig(int w, int h, std::uint64_t seed, bool lifecycle)
{
    core::ClusterConfig cc;
    cc.meshWidth = w;
    cc.meshHeight = h;
    cc.nicKind = nic::NicKind::Shrimp;
    cc.network.fault = mesh::FaultParams{};
    cc.seed = seed;
    cc.threads = 1;
    cc.metricsInterval = 0;
    cc.lifecycleTracing = lifecycle;
    cc.watchdogSecs = 0;
    return cc;
}

/** One workload shape, as run.py passes it. */
struct Workload
{
    std::string app;
    int meshW = 4;
    int meshH = 4;
    int ranks = 16;
    std::uint64_t size = 0;
    int iters = 1;
    std::uint64_t seed = 0;

    explicit Workload(const Args &a)
    {
        app = a.str("app");
        if (app != "barnes-nx" && app != "radix-vmmc" &&
            app != "radix-svm")
            usage("--app must be barnes-nx, radix-vmmc or radix-svm");
        if (a.has("mesh"))
            parseMeshArg(a, meshW, meshH);
        std::uint64_t r = a.has("ranks") ? a.num("ranks") : ranks;
        std::uint64_t it = a.num("iters");
        size = a.num("size");
        seed = a.num("seed");
        if (r < 1 || r > std::uint64_t(meshW) * meshH || size == 0 ||
            size > (1u << 30) || it < 1 || it > 1000)
            usage("workload shape out of range");
        ranks = int(r);
        iters = int(it);
    }

    apps::RadixConfig
    radix() const
    {
        apps::RadixConfig rc;
        rc.keys = size;
        rc.iterations = iters;
        rc.seed = seed;
        return rc;
    }

    apps::BarnesConfig
    barnes() const
    {
        apps::BarnesConfig bc;
        bc.bodies = int(size);
        bc.timesteps = iters;
        bc.seed = seed;
        return bc;
    }

    /** The run itself: DU for the VMMC and NX ports, AURC for SVM. */
    apps::AppResult
    run(bool lifecycle) const
    {
        auto cc = pinnedConfig(meshW, meshH, seed, lifecycle);
        if (app == "barnes-nx")
            return apps::runBarnesNx(cc, /*use_au=*/false, ranks,
                                     barnes());
        if (app == "radix-vmmc")
            return apps::runRadixVmmc(cc, /*use_au=*/false, ranks,
                                      radix());
        return apps::runRadixSvm(cc, svm::Protocol::AURC, ranks, radix());
    }
};

/** FNV-1a over everything a simulated run determines. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 1099511628211ull;
        }
    }

    void add(const std::string &s) { bytes(s.data(), s.size() + 1); }
    void add(std::uint64_t v) { bytes(&v, sizeof v); }
};

std::uint64_t
simDigest(const apps::AppResult &r)
{
    Digest d;
    d.add(r.elapsed);
    d.add(r.checksum);
    d.add(r.messages);
    d.add(r.notifications);
    d.add(r.hostEvents);
    d.add(r.hostFiberSwitches);
    for (const auto &[name, c] : r.stats.allCounters()) {
        d.add(name);
        d.add(c.value());
    }
    for (const auto &[name, s] : r.stats.allScalars()) {
        d.add(name);
        double v = s.value();
        d.bytes(&v, sizeof v);
    }
    for (const auto &acct : r.perProcess)
        for (std::size_t c = 0; c < std::size_t(TimeCategory::kCount); ++c)
            d.add(acct.total(TimeCategory(c)));
    return d.h;
}

/** Node counters summed over nodes under their "node<N>." suffix. */
std::map<std::string, double>
layerCounters(const StatsRegistry &stats)
{
    std::map<std::string, double> out;
    for (const auto &[name, c] : stats.allCounters()) {
        std::string key = name;
        if (key.rfind("node", 0) == 0) {
            std::size_t i = 4;
            while (i < key.size() && key[i] >= '0' && key[i] <= '9')
                ++i;
            if (i > 4 && i < key.size() && key[i] == '.')
                key = key.substr(i + 1);
        }
        out[key] += double(c.value());
    }
    return out;
}

/**
 * Critical-path self time per span layer ("nx", "coll", "pkt", ...),
 * summed over every trace root of the causal log at @p path.
 */
bool
criticalPathByLayer(const std::string &path,
                    std::map<std::string, double> &ps_by_layer,
                    std::uint64_t &roots, std::uint64_t &spans)
{
    causal_read::Log log;
    std::string err;
    if (!causal_read::load(path, log, &err) ||
        !causal_read::validate(log, &err)) {
        std::fprintf(stderr, "perfbench: causal log: %s\n", err.c_str());
        return false;
    }
    spans = log.spans.size();
    roots = 0;
    for (const auto &s : log.spans) {
        if (s.parent != 0)
            continue;
        causal_read::CriticalPath cp;
        if (!causal_read::criticalPath(log, s.id, cp, &err)) {
            std::fprintf(stderr, "perfbench: %s\n", err.c_str());
            return false;
        }
        ++roots;
        for (const auto &a : cp.stages) {
            std::string layer = a.name.substr(0, a.name.find('.'));
            ps_by_layer[layer] += double(a.ps);
        }
    }
    return true;
}

double
tvSeconds(const timeval &tv)
{
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

int
jobRun(const Args &a)
{
    Workload w(a);
    bool lifecycle = a.has("lifecycle");
    std::string causal_path = a.has("causal") ? a.str("causal") : "";

    if (!causal_path.empty())
        causal::open(causal_path);
    rusage r0{}, r1{};
    getrusage(RUSAGE_SELF, &r0);
    auto t0 = Clock::now();
    apps::AppResult r = timed("apps.run", [&] { return w.run(lifecycle); });
    double wall = secondsSince(t0);
    getrusage(RUSAGE_SELF, &r1);

    Json j;
    j.num("wall_s", wall);
    j.num("user_s", tvSeconds(r1.ru_utime) - tvSeconds(r0.ru_utime));
    j.num("sys_s", tvSeconds(r1.ru_stime) - tvSeconds(r0.ru_stime));
    j.u64("minor_faults", std::uint64_t(r1.ru_minflt - r0.ru_minflt));
    // A fresh process runs one workload, so its high-water mark is the
    // run's own peak.
    j.num("peak_rss_mb", double(r1.ru_maxrss) / 1024.0);
    j.u64("sim_time_ps", r.elapsed);
    j.u64("checksum", r.checksum);
    j.u64("digest", simDigest(r));
    j.u64("events", r.hostEvents);
    j.u64("fiber_switches", r.hostFiberSwitches);
    j.raw("counters", Json::object(layerCounters(r.stats)));

    std::map<std::string, double> acct;
    for (std::size_t c = 0; c < std::size_t(TimeCategory::kCount); ++c)
        acct[timeCategoryName(TimeCategory(c))] =
            double(r.combined.total(TimeCategory(c)));
    j.raw("time_ps", Json::object(acct));

    if (lifecycle) {
        std::map<std::string, double> stages;
        for (int s = 0; s < int(LifeStage::kCount); ++s) {
            const Histogram *hist =
                r.stats.findHistogram(lifeStageHistName(LifeStage(s)));
            stages[lifeStageName(LifeStage(s))] = hist ? hist->mean() : 0;
        }
        j.raw("stage_mean_us", Json::object(stages));
    }

    if (!causal_path.empty()) {
        timed("causal.close", [] {
            causal::close();
            return 0;
        });
        std::map<std::string, double> cp;
        std::uint64_t roots = 0, spans = 0;
        bool ok = timed("causal_read.critical_path", [&] {
            return criticalPathByLayer(causal_path, cp, roots, spans);
        });
        std::remove(causal_path.c_str());
        if (!ok)
            return 1;
        j.raw("cp_ps", Json::object(cp));
        j.u64("cp_roots", roots);
        j.u64("cp_spans", spans);
    }
    j.print();
    return 0;
}

int
jobSetup(const Args &a)
{
    int w = 4, h = 4;
    parseMeshArg(a, w, h);
    std::uint64_t reps = a.num("reps");
    if (reps < 1 || reps > 10000)
        usage("--reps must be 1 to 10000");
    std::string times = "[";
    for (std::uint64_t i = 0; i < reps; ++i) {
        auto cc = pinnedConfig(w, h, 1, false);
        auto t0 = Clock::now();
        auto c = timed("core.Cluster", [&] {
            return std::make_unique<core::Cluster>(cc);
        });
        double s = secondsSince(t0);
        c.reset();
        char buf[40];
        std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", s);
        times += buf;
    }
    Json j;
    j.raw("setup_s", times + "]");
    j.print();
    return 0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

constexpr int kProbeBlocks = 7;

/**
 * EventQueue schedule + dispatch with @p depth other events pending,
 * the depth of one wake-up per rank.
 */
double
probeEventNs(int depth)
{
    constexpr std::uint64_t kEvents = 200000;
    std::vector<double> ns;
    for (int b = 0; b < kProbeBlocks; ++b) {
        EventQueue q;
        const Tick far = Tick(1) << 60;
        for (int i = 0; i < depth; ++i)
            q.scheduleAt(far + Tick(i), [] {});
        std::uint64_t count = 0;
        struct Chain
        {
            EventQueue &q;
            std::uint64_t &count;
            void
            operator()()
            {
                if (++count < kEvents)
                    q.schedule(1, Chain{q, count});
            }
        };
        q.schedule(0, Chain{q, count});
        auto t0 = Clock::now();
        q.runUntil(far - 1);
        ns.push_back(secondsSince(t0) * 1e9 / double(count));
    }
    return median(ns);
}

/** One fiber transfer (half a resume/yield round trip). */
double
probeFiberSwitchNs()
{
    constexpr int kRounds = 200000;
    Fiber f(FiberBody([] {
        for (;;)
            Fiber::current()->yield();
    }));
    std::vector<double> ns;
    for (int b = 0; b < kProbeBlocks; ++b) {
        auto t0 = Clock::now();
        for (int i = 0; i < kRounds; ++i)
            f.resume();
        ns.push_back(secondsSince(t0) * 1e9 / (2.0 * kRounds));
    }
    return median(ns);
}

/**
 * Network::send on the workload's geometry: bursts of 64 packets
 * between pseudo-random node pairs, timing the send calls only.
 */
double
probeMeshSendNs(int w, int h)
{
    constexpr int kBurst = 64;
    constexpr int kBursts = 300;
    Simulation sim;
    mesh::Network net(sim, w, h);
    int n = w * h;
    for (NodeId i = 0; i < NodeId(n); ++i)
        net.attach(i, [](const mesh::Packet &) {});
    Random rng(7);
    std::vector<double> ns;
    struct Driver
    {
        Simulation &sim;
        mesh::Network &net;
        Random &rng;
        int n;
        int left;
        std::vector<double> &ns;
        void
        operator()()
        {
            std::vector<mesh::Packet> burst(kBurst);
            for (auto &p : burst) {
                p.src = NodeId(rng.below(n));
                p.dst = NodeId((p.src + 1 + rng.below(n - 1)) % n);
                p.wireBytes = 128;
            }
            auto t0 = Clock::now();
            for (auto &p : burst)
                net.send(std::move(p));
            ns.push_back(secondsSince(t0) * 1e9 / kBurst);
            if (--left > 0)
                sim.schedule(microseconds(10), Driver(*this));
        }
    };
    if (n < 2)
        return 0;
    sim.schedule(0, Driver{sim, net, rng, n, kBursts, ns});
    sim.run();
    return median(ns);
}

/**
 * Endpoint::send of a 64-byte deliberate-update message across the
 * mesh diagonal, timing the send calls only (bursts of 16, drained
 * between bursts).
 */
double
probeVmmcSendNs(int w, int h)
{
    constexpr int kBurst = 16;
    constexpr int kBursts = 100;
    core::Cluster c(pinnedConfig(w, h, 1, false));
    int dst = c.nodeCount() - 1;
    core::ExportId exp = core::kInvalidExport;
    std::vector<double> ns;
    c.spawnOn(dst, "probe.recv", [&] {
        char *buf = static_cast<char *>(c.node(dst).mem().alloc(4096, true));
        exp = c.vmmc(dst).exportBuffer(buf, 4096);
    });
    c.spawnOn(0, "probe.send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == core::kInvalidExport)
            c.sim().delay(microseconds(10));
        core::ProxyId p = ep.import(NodeId(dst), exp);
        char msg[64] = {1};
        for (int b = 0; b < kBursts; ++b) {
            auto t0 = Clock::now();
            for (int i = 0; i < kBurst; ++i)
                ep.send(p, msg, sizeof msg, std::size_t(i) * 64);
            ns.push_back(secondsSince(t0) * 1e9 / kBurst);
            ep.drainSends();
        }
    });
    c.run();
    return ns.empty() ? 0 : median(ns);
}

/**
 * NxProcess::crecv at the workload's rank count: rank 1 sends, and
 * once everything has landed rank 0 receives, so each timed crecv is
 * the ring scan plus the copy, with no blocking.
 */
double
probeNxCrecvNs(int w, int h, int ranks)
{
    constexpr int kBlock = 64;
    if (ranks < 2)
        return 0;
    core::Cluster c(pinnedConfig(w, h, 1, false));
    msg::NxConfig ncfg;
    ncfg.nprocs = ranks;
    ncfg.ringBytes = 1024 * 1024; // as Barnes-NX
    msg::NxDomain dom(c, ncfg);
    std::vector<double> ns;
    for (int q = 0; q < ranks; ++q) {
        c.spawnOn(q, "probe.nx", [&, q] {
            dom.init(q);
            auto &nx = dom.process(q);
            std::uint64_t v = 0;
            if (q == 1) {
                for (int i = 0; i < kProbeBlocks * kBlock; ++i)
                    nx.csend(1, &v, sizeof v, 0);
            } else if (q == 0) {
                c.sim().delay(milliseconds(50));
                for (int b = 0; b < kProbeBlocks; ++b) {
                    auto t0 = Clock::now();
                    for (int i = 0; i < kBlock; ++i)
                        nx.crecv(1, &v, sizeof v);
                    ns.push_back(secondsSince(t0) * 1e9 / kBlock);
                }
            }
        });
    }
    c.run();
    return ns.empty() ? 0 : median(ns);
}

int
jobProbe(const Args &a)
{
    int w = 4, h = 4;
    parseMeshArg(a, w, h);
    std::uint64_t r = a.num("ranks");
    if (r < 1 || r > std::uint64_t(w) * h)
        usage("--ranks must fit the mesh");
    int ranks = int(r);
    Json j;
    j.num("event_ns", timed("sim.EventQueue",
                            [&] { return probeEventNs(ranks); }));
    j.num("fiber_switch_ns", timed("sim.Fiber", probeFiberSwitchNs));
    j.num("mesh_send_ns", timed("mesh.Network.send",
                                [&] { return probeMeshSendNs(w, h); }));
    j.num("vmmc_send_ns", timed("core.Endpoint.send",
                                [&] { return probeVmmcSendNs(w, h); }));
    j.num("nx_crecv_ns", timed("msg.NxProcess.crecv", [&] {
              return probeNxCrecvNs(w, h, ranks);
          }));
    j.print();
    return 0;
}

/** One random cycle through @p n slots (Sattolo's shuffle). */
std::vector<std::uint32_t>
randomCycle(std::size_t n)
{
    std::vector<std::uint32_t> next(n);
    for (std::size_t i = 0; i < n; ++i)
        next[i] = std::uint32_t(i);
    Random rng(11);
    for (std::size_t i = n - 1; i > 0; --i)
        std::swap(next[i], next[rng.below(i)]);
    return next;
}

/** A dependent walk of @p steps along @p next. */
double
calibChase(const std::vector<std::uint32_t> &next, std::uint64_t steps)
{
    std::uint32_t at = 0;
    auto t0 = Clock::now();
    for (std::uint64_t s = 0; s < steps; ++s)
        at = next[at];
    double secs = secondsSince(t0);
    volatile std::uint32_t sink = at;
    (void)sink;
    return secs;
}

double
calibAlu(std::uint64_t rounds)
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < rounds; ++i) {
        x ^= x >> 31;
        x *= 0xbf58476d1ce4e5b9ull;
        x += i;
    }
    double secs = secondsSince(t0);
    volatile std::uint64_t sink = x;
    (void)sink;
    return secs;
}

/**
 * A toy event loop: a binary heap of 4,096 pending events, each of
 * which updates one cache line on a random page of @p arena.
 */
double
calibEvents(std::vector<std::uint64_t> &arena, std::uint64_t events)
{
    constexpr std::size_t kSlotsPerPage = 4096 / sizeof(std::uint64_t);
    const std::size_t pages = arena.size() / kSlotsPerPage;
    using Ev = std::pair<std::uint64_t, std::uint32_t>;
    std::vector<Ev> heap;
    Random rng(13);
    for (std::uint32_t i = 0; i < 4096; ++i)
        heap.emplace_back(rng.below(1000), i);
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    auto t0 = Clock::now();
    for (std::uint64_t e = 0; e < events; ++e) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        Ev &ev = heap.back();
        std::size_t page = (ev.second * 2654435761ull + e) % pages;
        std::uint64_t &slot = arena[page * kSlotsPerPage];
        slot = slot * 6364136223846793005ull + ev.first;
        ev.first += 1 + (slot >> 54);
        ev.second = std::uint32_t(slot >> 20) & 4095;
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    double secs = secondsSince(t0);
    volatile std::uint64_t sink = heap.front().first;
    (void)sink;
    return secs;
}

/** Fault in @p bytes of fresh anonymous pages and unmap them. */
double
calibFaults(std::size_t bytes)
{
    auto t0 = Clock::now();
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        usage("calib: mmap failed");
    for (std::size_t off = 0; off < bytes; off += 4096)
        static_cast<volatile char *>(p)[off] = 1;
    munmap(p, bytes);
    return secondsSince(t0);
}

/**
 * Fixed host work that runs no simulator code, so no change to the
 * program can change it. It mixes the kinds of work the workloads do:
 * a dependent walk over an 8 MB random cycle (memory latency, as in the
 * NX ring scan), integer hashing, a heap-ordered event loop touching
 * one line per page of 16 MB (the event kernel), and faulting in fresh
 * pages (Radix-VMMC's sys time). calib_s is the sum of each part's
 * median over three repetitions, about 0.08 s. run.py times it between
 * workload runs and scales host times by it, so that a shared host
 * that slows down does not read as a slower program.
 */
int
jobCalib(const Args &)
{
    std::vector<std::uint32_t> cycle = randomCycle(std::size_t(2) << 20);
    std::vector<std::uint64_t> arena(std::size_t(16) << 17, 1);
    std::vector<double> chase, alu, events, faults;
    for (int b = 0; b < 3; ++b) {
        chase.push_back(calibChase(cycle, 125000));
        alu.push_back(calibAlu(7500000));
        events.push_back(calibEvents(arena, 125000));
        faults.push_back(calibFaults(std::size_t(16) << 20));
    }
    Json j;
    j.num("calib_s",
          median(chase) + median(alu) + median(events) + median(faults));
    j.print();
    return 0;
}

/**
 * The answer a correct run must give. Radix: the key sum and sorted
 * bit, recomputed from the seed exactly as the workload generates its
 * keys. Barnes-NX: a 1-rank run of the same input, whose checksum does
 * not depend on the rank count.
 */
int
jobOracle(const Args &a)
{
    Workload w(a);
    std::uint64_t expect = 0;
    if (w.app == "barnes-nx") {
        expect = timed("apps.runBarnesNx.1rank", [&] {
            return apps::runBarnesNx(pinnedConfig(4, 4, w.seed, false),
                                     false, 1, w.barnes())
                .checksum;
        });
    } else {
        apps::RadixConfig rc = w.radix();
        Random rng(rc.seed);
        int bits = std::min(32, rc.radixBits * rc.iterations);
        std::uint32_t mask = bits >= 32 ? ~0u : ((1u << bits) - 1u);
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < rc.keys; ++i)
            sum += std::uint32_t(rng.next()) & mask;
        expect = (sum << 1) | 1;
    }
    Json j;
    j.u64("checksum", expect);
    j.print();
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("usage: perfbench run|setup|probe|oracle|calib "
              "--key value ...");
    requireCleanEnv();
    Args a(argc, argv);
    std::string job = argv[1];
    if (job == "run")
        return jobRun(a);
    if (job == "setup")
        return jobSetup(a);
    if (job == "probe")
        return jobProbe(a);
    if (job == "oracle")
        return jobOracle(a);
    if (job == "calib")
        return jobCalib(a);
    usage(("unknown job '" + job + "'").c_str());
}

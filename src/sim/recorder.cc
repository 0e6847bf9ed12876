#include "sim/recorder.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace shrimp
{

/** One recorded span, with run-local ids until the log closes. */
struct SpanRecord
{
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t trace;
    std::int32_t node;
    const char *name; //!< string literals only (never freed)
    Tick start;
    Tick end;
};

/** One gauge and its samples, taken every run's sampleInterval. */
struct CounterRecord
{
    std::int32_t node; //!< -1 for a cluster-wide gauge
    const char *name;  //!< string literals only (never freed)
    std::vector<double> values;
};

namespace
{

/** A run's place in the run order: (slot, sub-order). */
using RunKey = std::pair<std::uint64_t, std::uint32_t>;

constexpr const char *kStageNames[] = {
    "send_overhead", "ni_wait", "wire", "rx_fifo", "delivery", "total",
};

constexpr const char *kHistNames[] = {
    "lifecycle.send_overhead_us", "lifecycle.ni_wait_us",
    "lifecycle.wire_us",          "lifecycle.rx_fifo_us",
    "lifecycle.delivery_us",      "lifecycle.total_us",
};

/**
 * Log-bucket geometry: 6 decades (10 ns .. 10 ms in us units) at 64
 * buckets per decade. The bucket ratio is 10^(1/64) ~= 1.037, so a
 * percentile interpolated within one bucket is within ~1.8% of the
 * exact value — tight enough that the per-stage p50s sum to the
 * end-to-end p50 within the 5% the acceptance test demands.
 */
constexpr double kLoUs = 0.01;
constexpr double kHiUs = 1e4;
constexpr std::size_t kBuckets = 384;

std::atomic<std::uint64_t> nextRunSlot{0};
thread_local RunSlotScope *tl_slot = nullptr;

/**
 * The causal log file plus the spans of every run that has finished.
 * Its mutex guards the handle and the runs; `generation` tells a run
 * whether the file it armed is still the open one.
 */
struct CausalSink
{
    std::mutex mu;
    std::FILE *out = nullptr;
    std::uint64_t generation = 0;
    bool atexitRegistered = false;

    struct Run
    {
        RunKey key;
        std::vector<std::uint32_t> minted;
        std::vector<SpanRecord> spans;
        Tick sampleInterval;
        std::vector<CounterRecord> counters;
    };
    std::vector<Run> runs;
};

CausalSink &
causalSink()
{
    static CausalSink s;
    return s;
}

void
closeCausalLocked()
{
    CausalSink &s = causalSink();
    if (!s.out)
        return;

    // Renumber each run's ids onto per-node bases in run order: node
    // n's counter continues from where the previous run's left off.
    std::sort(s.runs.begin(), s.runs.end(),
              [](const CausalSink::Run &a, const CausalSink::Run &b) {
                  return a.key < b.key;
              });
    std::vector<std::uint64_t> base;
    for (CausalSink::Run &run : s.runs) {
        if (base.size() < run.minted.size())
            base.resize(run.minted.size(), 0);
        auto renumber = [&](std::uint64_t id) {
            return id + base[id >> 32];
        };
        for (SpanRecord &r : run.spans) {
            r.id = renumber(r.id);
            r.parent = r.parent ? renumber(r.parent) : 0;
            r.trace = renumber(r.trace);
        }
        for (std::size_t n = 0; n < run.minted.size(); ++n)
            base[n] += run.minted[n];
        std::sort(run.spans.begin(), run.spans.end(),
                  [](const SpanRecord &a, const SpanRecord &b) {
                      return a.id < b.id;
                  });
    }

    // Sorted by id is node-major, and within a node every run's ids
    // precede the next run's: merge node by node, runs in order.
    std::fputs("{\"causal_schema\":2}\n", s.out);
    std::vector<std::size_t> cursor(s.runs.size(), 0);
    for (std::uint64_t n = 0; n < base.size(); ++n) {
        for (std::size_t k = 0; k < s.runs.size(); ++k) {
            const auto &spans = s.runs[k].spans;
            for (std::size_t &i = cursor[k];
                 i < spans.size() && (spans[i].id >> 32) == n; ++i) {
                const SpanRecord &r = spans[i];
                std::fprintf(
                    s.out,
                    "{\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                    "\"node\":%d,\"name\":\"%s\",\"start_ps\":%llu,"
                    "\"end_ps\":%llu}\n",
                    (unsigned long long)r.id,
                    (unsigned long long)r.parent,
                    (unsigned long long)r.trace, int(r.node), r.name,
                    (unsigned long long)r.start,
                    (unsigned long long)r.end);
            }
        }
    }

    // Then each run's gauges, runs in order, each run's gauges in
    // registration order: one line per gauge with all its samples.
    for (const CausalSink::Run &run : s.runs) {
        for (const CounterRecord &c : run.counters) {
            std::fprintf(s.out,
                         "{\"counter\":\"%s\",\"node\":%d,"
                         "\"every_ps\":%llu,\"values\":[",
                         c.name, int(c.node),
                         (unsigned long long)run.sampleInterval);
            for (std::size_t i = 0; i < c.values.size(); ++i) {
                if (i)
                    std::fputc(',', s.out);
                std::fputs(JsonWriter::numberText(c.values[i]).c_str(),
                           s.out);
            }
            std::fputs("]}\n", s.out);
        }
    }
    s.runs.clear();
    s.runs.shrink_to_fit();
    std::fclose(s.out);
    s.out = nullptr;
    ++s.generation;
}

void
openCausalLocked(const std::string &path)
{
    CausalSink &s = causalSink();
    closeCausalLocked();
    s.out = std::fopen(path.c_str(), "w");
    if (!s.out)
        fatal("causal: cannot open '%s' for writing", path.c_str());
    ++s.generation;
}

} // anonymous namespace

const char *
lifeStageName(LifeStage s)
{
    return kStageNames[std::size_t(s)];
}

const char *
lifeStageHistName(LifeStage s)
{
    return kHistNames[std::size_t(s)];
}

// ----------------------------------------------------------------------
// The causal log file
// ----------------------------------------------------------------------

void
causal::open(const std::string &path)
{
    std::lock_guard<std::mutex> lock(causalSink().mu);
    openCausalLocked(path);
}

void
causal::close()
{
    std::lock_guard<std::mutex> lock(causalSink().mu);
    closeCausalLocked();
}

// ----------------------------------------------------------------------
// Run order
// ----------------------------------------------------------------------

std::uint64_t
reserveRunSlots(std::size_t n)
{
    return nextRunSlot.fetch_add(n, std::memory_order_relaxed);
}

RunSlotScope::RunSlotScope(std::uint64_t slot) : slot(slot), outer(tl_slot)
{
    tl_slot = this;
}

RunSlotScope::~RunSlotScope()
{
    tl_slot = outer;
}

// ----------------------------------------------------------------------
// Recorder
// ----------------------------------------------------------------------

Recorder::Recorder(Simulation &sim) : sim(sim)
{
    if (RunSlotScope *scope = tl_slot)
        key = {scope->slot, scope->nextSub++};
    else
        key = {reserveRunSlots(1), 0};

    // Binaries that record through the environment (examples,
    // benches) never close the log themselves, so the first open from
    // the environment registers causal::close with atexit.
    CausalSink &s = causalSink();
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.out) {
        const char *path = std::getenv("SHRIMP_CAUSAL");
        if (path && *path) {
            openCausalLocked(path);
            if (!s.atexitRegistered) {
                s.atexitRegistered = true;
                std::atexit(causal::close);
            }
        }
    }
    if (s.out) {
        _causalOn = true;
        causalGeneration = s.generation;
    }
}

Recorder::~Recorder()
{
    if (_causalOn) {
        CausalSink &s = causalSink();
        std::lock_guard<std::mutex> lock(s.mu);
        if (s.out && s.generation == causalGeneration)
            s.runs.push_back({key, std::move(minted), std::move(spans),
                              sampleInterval, std::move(counters)});
    }
}

void
Recorder::enableLifecycle()
{
    _lifecycleOn = true;
    for (std::size_t s = 0; s < std::size_t(LifeStage::kCount); ++s)
        lifeHist[s] = &sim.stats().logHistogram(kHistNames[s], kLoUs,
                                                kHiUs, kBuckets);
}

Tick
Recorder::now() const
{
    return sim.now();
}

// --- causal spans ---

void
Recorder::slots(std::uint64_t *&trace, std::uint64_t *&span)
{
    if (Process *p = sim.current()) {
        trace = &p->causeTrace;
        span = &p->causeSpan;
    } else {
        trace = &eventCtx.trace;
        span = &eventCtx.span;
    }
}

std::uint64_t
Recorder::mintId(int node)
{
    std::size_t idx = std::size_t(node + 1);
    if (idx >= minted.size())
        minted.resize(idx + 1, 0);
    return (std::uint64_t(idx) << 32) | ++minted[idx];
}

void
Recorder::emitSpan(std::uint64_t id, const causal::CauseCtx &parent,
                   int node, const char *name, Tick start, Tick end)
{
    if (end < start)
        end = start;
    SpanRecord r;
    r.id = id;
    r.parent = parent.span;
    r.trace = parent.valid() ? parent.trace : id;
    r.node = node;
    r.name = name;
    r.start = start;
    r.end = end;
    spans.push_back(r);
}

PacketLife
Recorder::sendStamp()
{
    PacketLife life;
    life.born = sim.now();
    life.cause = current();
    return life;
}

void
Recorder::recordPacket(const PacketLife &l, int dst_node, Tick rx_start,
                       Tick rx_done)
{
    // The five stages partition [born, rx_done] exactly (each starts
    // where the previous one ended); the sixth is the whole.
    const struct
    {
        const char *span;
        Tick from, to;
    } stages[] = {
        {"pkt.send_overhead", l.born, l.queued},
        {"pkt.ni_wait", l.queued, l.injected},
        {"pkt.wire", l.injected, l.delivered},
        {"pkt.rx_fifo", l.delivered, rx_start},
        {"pkt.delivery", rx_start, rx_done},
        {"pkt.total", l.born, rx_done},
    };
    if (_lifecycleOn) {
        for (std::size_t s = 0; s < std::size_t(LifeStage::kCount); ++s)
            lifeHist[s]->sample(toMicroseconds(
                stages[s].to >= stages[s].from
                    ? stages[s].to - stages[s].from
                    : 0));
    }
    if (_causalOn) {
        std::uint64_t pkt = mintId(dst_node);
        emitSpan(pkt, l.cause, dst_node, "pkt.total", l.born, rx_done);
        causal::CauseCtx in{l.cause.valid() ? l.cause.trace : pkt, pkt};
        for (std::size_t s = 0; s < std::size_t(LifeStage::Total); ++s)
            emitSpan(mintId(dst_node), in, dst_node, stages[s].span,
                     stages[s].from, stages[s].to);
    }
}

// --- gauges ---

void
Recorder::addGauge(int node, const char *name,
                   std::function<double()> read)
{
    if (sampleInterval)
        panic("Recorder: gauge '%s' added after sampling started", name);
    gaugeReads.push_back(std::move(read));
    counters.push_back({node, name, {}});
}

void
Recorder::sampleEvery(Tick interval)
{
    if (!_causalOn)
        panic("Recorder: sampling without a causal log to write to");
    if (interval == 0 || sampleInterval || sim.now() != 0)
        panic("Recorder: sampleEvery wants one interval > 0, at tick 0");
    sampleInterval = interval;
    sim.schedule(interval, [this] { sample(); });
}

void
Recorder::sample()
{
    for (std::size_t i = 0; i < gaugeReads.size(); ++i)
        counters[i].values.push_back(gaugeReads[i]());
    // Keep going only while the simulation has work of its own: this
    // event has already popped, so a non-empty queue means somebody
    // else is still running and deserves coverage.
    if (sim.anyPending())
        sim.schedule(sampleInterval, [this] { sample(); });
}

// --- RAII scopes ---

void
causal::OpSpan::begin(Recorder &rec, int node, const char *name)
{
    _rec = &rec;
    _name = name;
    _node = node;
    _start = rec.now();
    _id = rec.mintId(node);

    rec.slots(slotTrace, slotSpan);
    saved = {*slotTrace, *slotSpan};
    *slotTrace = saved.span ? saved.trace : _id;
    *slotSpan = _id;
}

void
causal::OpSpan::finish()
{
    *slotTrace = saved.trace;
    *slotSpan = saved.span;
    _rec->emitSpan(_id, saved, _node, _name, _start, _rec->now());
}

void
causal::EventCtxScope::install(Recorder &rec, const CauseCtx &ctx)
{
    rec.slots(slotTrace, slotSpan);
    saved = {*slotTrace, *slotSpan};
    *slotTrace = ctx.trace;
    *slotSpan = ctx.span;
}

void
causal::EventCtxScope::restore()
{
    *slotTrace = saved.trace;
    *slotSpan = saved.span;
}

} // namespace shrimp

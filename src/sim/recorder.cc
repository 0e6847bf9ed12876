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
#include "sim/trace_json.hh"

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

/** A run's Chrome chunk is written out once it grows past this. */
constexpr std::size_t kChunkBytes = 64 * 1024;

std::atomic<std::uint64_t> nextRunSlot{0};
thread_local RunSlotScope *tl_slot = nullptr;

/**
 * One output file. Its mutex guards the handle and the list of runs
 * recording into it; `generation` tells a run whether the file it
 * armed is still the open one.
 */
struct Sink
{
    explicit Sink(const char *env_var) : envVar(env_var) {}

    const char *envVar;
    std::mutex mu;
    std::FILE *out = nullptr;
    std::uint64_t generation = 0;
    bool atexitRegistered = false;

    /**
     * Open the file the environment names, unless one is open.
     * Binaries that record through the environment (examples,
     * benches) never close the file themselves, so the first open
     * registers @p close_fn with atexit.
     */
    void
    openFromEnvLocked(void (*open_fn)(const std::string &),
                      void (*close_fn)())
    {
        if (out)
            return;
        const char *path = std::getenv(envVar);
        if (!path || !*path)
            return;
        open_fn(path);
        if (!atexitRegistered) {
            atexitRegistered = true;
            std::atexit(close_fn);
        }
    }
};

/** The Chrome trace file plus the runs streaming into it. */
struct ChromeSink : Sink
{
    ChromeSink() : Sink("SHRIMP_TRACE") {}

    bool empty = true; //!< no event written yet (no leading comma)
    std::vector<std::pair<RunKey, int>> runs; //!< run key, pid

    void
    write(const std::string &lines)
    {
        // Every line carries a leading ",\n" separator; the document's
        // first one must not.
        const char *p = lines.c_str();
        if (empty) {
            p += 2;
            empty = false;
        }
        std::fputs(p, out);
    }
};

/** The causal log plus the spans of every run that has finished. */
struct CausalSink : Sink
{
    CausalSink() : Sink("SHRIMP_CAUSAL") {}

    struct Run
    {
        RunKey key;
        std::vector<std::uint32_t> minted;
        std::vector<SpanRecord> spans;
    };
    std::vector<Run> runs;
};

ChromeSink &
chromeSink()
{
    static ChromeSink s;
    return s;
}

CausalSink &
causalSink()
{
    static CausalSink s;
    return s;
}

void
closeChromeLocked()
{
    ChromeSink &s = chromeSink();
    if (!s.out)
        return;
    // Name each run's trace process by its place in the run order.
    std::sort(s.runs.begin(), s.runs.end());
    for (std::size_t k = 0; k < s.runs.size(); ++k) {
        std::string name = s.runs.size() == 1
                               ? std::string("shrimp")
                               : strfmt("shrimp run %zu", k);
        s.write(strfmt(",\n{\"ph\":\"M\",\"pid\":%d,"
                       "\"name\":\"process_name\","
                       "\"args\":{\"name\":\"%s\"}}",
                       s.runs[k].second, name.c_str()));
    }
    s.runs.clear();
    std::fputs("\n]}\n", s.out);
    std::fclose(s.out);
    s.out = nullptr;
    ++s.generation;
}

void
openChromeLocked(const std::string &path)
{
    ChromeSink &s = chromeSink();
    closeChromeLocked();
    s.out = std::fopen(path.c_str(), "w");
    if (!s.out)
        fatal("trace_json: cannot open '%s' for writing", path.c_str());
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", s.out);
    s.empty = true;
    ++s.generation;
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
    std::fputs("{\"causal_schema\":1}\n", s.out);
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

/**
 * Print @p t as a microsecond value with full picosecond precision
 * ("123.456789"), the unit the trace_event format expects.
 */
void
appendUs(std::string &into, Tick t)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  (unsigned long long)(t / kPsPerUs),
                  (unsigned long long)(t % kPsPerUs));
    into += buf;
}

void
appendNameArgs(std::string &line, const char *name,
               const std::string &args_json)
{
    line += strfmt(",\"name\":\"%s\"", JsonWriter::escaped(name).c_str());
    if (!args_json.empty()) {
        line += ",\"args\":";
        line += args_json;
    }
    line += '}';
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
// The output files
// ----------------------------------------------------------------------

void
trace_json::open(const std::string &path)
{
    std::lock_guard<std::mutex> lock(chromeSink().mu);
    openChromeLocked(path);
}

void
trace_json::close()
{
    std::lock_guard<std::mutex> lock(chromeSink().mu);
    closeChromeLocked();
}

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

    {
        ChromeSink &s = chromeSink();
        std::lock_guard<std::mutex> lock(s.mu);
        s.openFromEnvLocked(openChromeLocked, trace_json::close);
        if (s.out) {
            _chromeOn = true;
            chromeGeneration = s.generation;
            pid = int(s.runs.size());
            s.runs.emplace_back(key, pid);
        }
    }
    {
        CausalSink &s = causalSink();
        std::lock_guard<std::mutex> lock(s.mu);
        s.openFromEnvLocked(openCausalLocked, causal::close);
        if (s.out) {
            _causalOn = true;
            causalGeneration = s.generation;
        }
    }
}

Recorder::~Recorder()
{
    if (_chromeOn)
        flushChrome();
    if (_causalOn) {
        CausalSink &s = causalSink();
        std::lock_guard<std::mutex> lock(s.mu);
        if (s.out && s.generation == causalGeneration)
            s.runs.push_back({key, std::move(minted), std::move(spans)});
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

// --- Chrome timeline ---

void
Recorder::chromeLine(const std::string &body)
{
    chunk += ",\n";
    chunk += body;
    if (chunk.size() >= kChunkBytes)
        flushChrome();
}

void
Recorder::flushChrome()
{
    if (chunk.empty())
        return;
    ChromeSink &s = chromeSink();
    {
        std::lock_guard<std::mutex> lock(s.mu);
        if (s.out && s.generation == chromeGeneration)
            s.write(chunk);
    }
    chunk.clear();
}

int
Recorder::track(const std::string &name)
{
    auto [it, inserted] = tracks.try_emplace(name, int(tracks.size()));
    if (inserted && _chromeOn)
        chromeLine(strfmt("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                          "\"name\":\"thread_name\","
                          "\"args\":{\"name\":\"%s\"}}",
                          pid, it->second,
                          JsonWriter::escaped(name).c_str()));
    return it->second;
}

void
Recorder::complete(int track, const char *name, Tick start, Tick end,
                   const std::string &args_json)
{
    if (!_chromeOn)
        return;
    if (end < start)
        end = start;
    std::string line =
        strfmt("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":", pid, track);
    appendUs(line, start);
    line += ",\"dur\":";
    appendUs(line, end - start);
    appendNameArgs(line, name, args_json);
    chromeLine(line);
}

void
Recorder::instant(int track, const char *name,
                  const std::string &args_json)
{
    if (!_chromeOn)
        return;
    std::string line = strfmt(
        "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":", pid,
        track);
    appendUs(line, sim.now());
    appendNameArgs(line, name, args_json);
    chromeLine(line);
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

    // Mirror the span (with its causal links as args) into the Chrome
    // trace when both outputs are on, one track per node. The ids are
    // run-local: the log renumbers them at close.
    if (_chromeOn) {
        std::size_t idx = std::size_t(node + 1);
        if (mirrorTracks.size() <= idx)
            mirrorTracks.resize(idx + 1, -1);
        if (mirrorTracks[idx] < 0)
            mirrorTracks[idx] = track(strfmt("causal.node%d", node));
        complete(mirrorTracks[idx], name, start, end,
                 strfmt("{\"span\":%llu,\"parent\":%llu,\"trace\":%llu}",
                        (unsigned long long)r.id,
                        (unsigned long long)r.parent,
                        (unsigned long long)r.trace));
    }
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

void
Recorder::emitRetx(const causal::CauseCtx &cause, int src_node)
{
    if (!_causalOn)
        return;
    Tick when = sim.now();
    emitSpan(mintId(src_node), cause, src_node, "nic.retx", when, when);
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

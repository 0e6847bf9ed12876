#include "sim/causal.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulation.hh"
#include "sim/trace_json.hh"

namespace shrimp::causal
{

namespace detail
{
bool g_enabled = false;
}

namespace
{

/** One buffered span record; serialized (sorted by id) at close(). */
struct Record
{
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t trace;
    std::int32_t node;
    const char *name; //!< string literals only (never freed)
    Tick start;
    Tick end;
};

std::FILE *out = nullptr;

/**
 * The record buffer and the per-node id counters. The recorder is
 * process-global, so one simulation at a time may emit into it: the
 * sweep runner keeps a traced sweep on a single worker
 * (bench/sweep.cc). Appends still take recMutex; the id counters are
 * unguarded.
 */
std::mutex recMutex;
std::vector<Record> records;
std::vector<std::uint64_t> nodeCounter;

/** Per-node Chrome-trace track ids (guarded by recMutex). */
std::vector<int> chromeTracks;

/**
 * The thread's event-context slot: the carried context of the packet
 * whose delivery/notification event is currently executing. Read when
 * no Process is running on this thread's stream.
 */
thread_local CauseCtx tls_event_ctx;

/** Simulated now, or 0 outside a live simulation. */
Tick
nowOrZero()
{
    Simulation *s = Simulation::currentOrNull();
    return s ? s->now() : 0;
}

/**
 * The mutable context slot pair of this thread's execution stream:
 * the running Process's slot if a fiber is executing, else the
 * thread-local event slot.
 */
void
currentSlots(std::uint64_t *&trace, std::uint64_t *&span)
{
    if (Simulation *s = Simulation::currentOrNull()) {
        if (Process *p = s->current()) {
            trace = &p->causeTrace;
            span = &p->causeSpan;
            return;
        }
    }
    trace = &tls_event_ctx.trace;
    span = &tls_event_ctx.span;
}

} // anonymous namespace

void
open(const std::string &path)
{
    close();
    out = std::fopen(path.c_str(), "w");
    if (!out)
        fatal("causal: cannot open '%s' for writing", path.c_str());
    {
        std::lock_guard<std::mutex> lock(recMutex);
        records.clear();
        // Pre-size the counter table to the mesh ceiling (64K nodes)
        // so mintId is a bounds check and an increment.
        nodeCounter.assign(64 * 1024 + 2, 0);
    }
    detail::g_enabled = true;
}

void
close()
{
    if (!out)
        return;
    detail::g_enabled = false;

    std::lock_guard<std::mutex> lock(recMutex);
    // Ids are minted in deterministic per-node order; sorting by id
    // makes the file independent of how emits from different nodes
    // interleave.
    std::sort(records.begin(), records.end(),
              [](const Record &a, const Record &b) {
                  return a.id < b.id;
              });
    std::fputs("{\"causal_schema\":1}\n", out);
    for (const Record &r : records) {
        std::fprintf(
            out,
            "{\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
            "\"node\":%d,\"name\":\"%s\",\"start_ps\":%llu,"
            "\"end_ps\":%llu}\n",
            (unsigned long long)r.id, (unsigned long long)r.parent,
            (unsigned long long)r.trace, int(r.node), r.name,
            (unsigned long long)r.start, (unsigned long long)r.end);
    }
    records.clear();
    records.shrink_to_fit();
    std::fclose(out);
    out = nullptr;
}

void
openFromEnv()
{
    if (detail::g_enabled)
        return;
    const char *path = std::getenv("SHRIMP_CAUSAL");
    if (path && *path) {
        open(path);
        // Env-enabled binaries (examples, benches) never call close()
        // themselves; without it the buffered records are lost.
        static bool registered = false;
        if (!registered) {
            registered = true;
            std::atexit([] { close(); });
        }
    }
}

CauseCtx
current()
{
    if (!enabled())
        return {};
    std::uint64_t *trace, *span;
    currentSlots(trace, span);
    return {*trace, *span};
}

std::uint64_t
mintId(int node)
{
    std::size_t idx = std::size_t(node + 1);
    if (idx >= nodeCounter.size())
        fatal("causal: node %d out of range", node);
    return (std::uint64_t(node + 1) << 32) | ++nodeCounter[idx];
}

void
emitSpan(std::uint64_t id, const CauseCtx &parent, int node,
         const char *name, Tick start, Tick end)
{
    if (!enabled())
        return;
    if (end < start)
        end = start;
    Record r;
    r.id = id;
    r.parent = parent.span;
    r.trace = parent.valid() ? parent.trace : id;
    r.node = node;
    r.name = name;
    r.start = start;
    r.end = end;
    std::lock_guard<std::mutex> lock(recMutex);
    records.push_back(r);

    // Mirror the span (with its causal links as args) into the Chrome
    // trace when both recorders are on, one track per node.
    if (trace_json::enabled()) {
        std::size_t idx = std::size_t(node + 1);
        if (chromeTracks.size() <= idx)
            chromeTracks.resize(idx + 1, -1);
        if (chromeTracks[idx] < 0)
            chromeTracks[idx] =
                trace_json::track(strfmt("causal.node%d", node));
        trace_json::completeEvent(
            chromeTracks[idx], name, start, end,
            strfmt("{\"span\":%llu,\"parent\":%llu,\"trace\":%llu}",
                   (unsigned long long)r.id,
                   (unsigned long long)r.parent,
                   (unsigned long long)r.trace));
    }
}

void
emitPacket(const CauseCtx &cause, int dst_node, Tick born, Tick queued,
           Tick injected, Tick delivered, Tick rx_start, Tick rx_done)
{
    if (!enabled())
        return;
    std::uint64_t pkt = mintId(dst_node);
    emitSpan(pkt, cause, dst_node, "pkt.total", born, rx_done);
    CauseCtx in{cause.valid() ? cause.trace : pkt, pkt};
    // The five stages partition [born, rx_done] exactly (each span
    // starts where the previous one ended), mirroring
    // LifecycleTracer's stage definitions.
    const struct
    {
        const char *name;
        Tick from, to;
    } stages[] = {
        {"pkt.send_overhead", born, queued},
        {"pkt.ni_wait", queued, injected},
        {"pkt.wire", injected, delivered},
        {"pkt.rx_fifo", delivered, rx_start},
        {"pkt.delivery", rx_start, rx_done},
    };
    for (const auto &s : stages)
        emitSpan(mintId(dst_node), in, dst_node, s.name, s.from, s.to);
}

void
emitRetx(const CauseCtx &cause, int src_node, Tick when)
{
    if (!enabled())
        return;
    emitSpan(mintId(src_node), cause, src_node, "nic.retx", when, when);
}

void
OpSpan::begin(int node, const char *name)
{
    live = true;
    _name = name;
    _node = node;
    _start = nowOrZero();
    _id = mintId(node);

    currentSlots(slotTrace, slotSpan);
    saved = {*slotTrace, *slotSpan};
    *slotTrace = saved.span ? saved.trace : _id;
    *slotSpan = _id;
}

void
OpSpan::finish()
{
    // The recorder may have closed mid-span; restore the slots
    // regardless so nesting stays balanced.
    *slotTrace = saved.trace;
    *slotSpan = saved.span;
    emitSpan(_id, saved, _node, _name, _start, nowOrZero());
}

void
EventCtxScope::install(const CauseCtx &ctx)
{
    live = true;
    currentSlots(slotTrace, slotSpan);
    saved = {*slotTrace, *slotSpan};
    *slotTrace = ctx.trace;
    *slotSpan = ctx.span;
}

void
EventCtxScope::restore()
{
    *slotTrace = saved.trace;
    *slotSpan = saved.span;
}

} // namespace shrimp::causal

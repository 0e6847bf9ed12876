/**
 * @file
 * The span recorder: one per Simulation, the only instrumentation
 * object behind a run's two observability outputs.
 *
 *  - the causal log (sim/causal.hh): OpSpan operation spans, the pkt.*
 *    spans of every delivered packet, leaf spans (nic.retx,
 *    nic.fifo_stall, mesh.drop, svm.twin, ...), and one counter line
 *    per gauge with the run's samples of it (addGauge, sampleEvery).
 *    shrimp_analyze --chrome draws the log as a Chrome timeline, the
 *    gauges as counter tracks;
 *  - the lifecycle.*_us stage histograms behind the RunReport's
 *    latency_breakdown block (ClusterConfig::lifecycleTracing).
 *
 * What a run records is fixed as it starts: the Simulation constructor
 * builds its recorder, which opens the SHRIMP_CAUSAL file if the
 * environment names it and arms the log if it is open; the cluster
 * turns the histograms on, and registers its gauges and starts
 * sampling when the log is armed, before any traffic. All recording
 * state — span buffer, per-node id counters, the event-context slot,
 * the gauges' samples — belongs to the run, so runs on different host
 * threads share nothing but the log file. Every instrumentation site
 * guards on causalOn(), so a run with nothing armed pays a bool load
 * per site, and schedules no sampling event.
 *
 * Packets: a NIC stamps each packet once at send (sendStamp(): the
 * birth time and the sending operation's context), the pipeline adds
 * the queued, injected and delivered times, and on receive the NIC
 * calls packetDelivered(). That one hook samples the stage histograms
 * — in delivery order, because their floating-point sums depend on
 * it — and emits the pkt.* spans.
 *
 * Run order: every Simulation takes a key from a process-wide run
 * sequence — its construction order, or, inside a sweep, the job's
 * index in a block the sweep reserves (RunSlotScope), plus a sub-order
 * for jobs that build more than one Simulation. Span ids are minted
 * per run and per node; when the causal log closes it renumbers each
 * run's ids onto per-node bases in key order, which reproduces ids
 * from one counter per node over the whole log, for any job count.
 */

#ifndef SHRIMP_SIM_RECORDER_HH
#define SHRIMP_SIM_RECORDER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/causal.hh"
#include "sim/types.hh"

namespace shrimp
{

class Histogram;
class Simulation;

/** The packet lifecycle stages, in pipeline order. */
enum class LifeStage
{
    SendOverhead, //!< queued - born: issue cost, queue-full waits,
                  //!< AU train accumulation
    NiWait,       //!< injected - queued: NI engines, chip arbitration
    Wire,         //!< delivered - injected: backplane incl. contention
    RxFifo,       //!< rx_start - delivered: receive engine busy
    Delivery,     //!< rx_done - rx_start: incoming DMA + processing
    Total,        //!< rx_done - born: end to end
    kCount,
};

/** Stage name as it appears in reports ("send_overhead", ...). */
const char *lifeStageName(LifeStage s);

/** Histogram name for a stage ("lifecycle.send_overhead_us", ...). */
const char *lifeStageHistName(LifeStage s);

/**
 * What a packet carries for the recorder: the pipeline's timestamps
 * (absolute ticks) and the causal context of the operation that sent
 * it. Observability metadata, outside packetChecksum; it rides every
 * copy the pipeline makes, the retransmit buffer included.
 */
struct PacketLife
{
    Tick born = 0;      //!< send API entered (CPU starts paying)
    Tick queued = 0;    //!< accepted by the NI (queue/train flush)
    Tick injected = 0;  //!< first byte onto the backplane
    Tick delivered = 0; //!< tail arrived at the destination NI
    causal::CauseCtx cause;
};

/**
 * Reserve @p n consecutive slots of the process-wide run order (one
 * per sweep job); @return the first.
 */
std::uint64_t reserveRunSlots(std::size_t n);

/**
 * While alive, Simulations built on this thread take run order
 * (@p slot, 0), (@p slot, 1), ... instead of the next free slot.
 */
class RunSlotScope
{
  public:
    explicit RunSlotScope(std::uint64_t slot);
    ~RunSlotScope();

    RunSlotScope(const RunSlotScope &) = delete;
    RunSlotScope &operator=(const RunSlotScope &) = delete;

  private:
    friend class Recorder;

    std::uint64_t slot;
    std::uint32_t nextSub = 0;
    RunSlotScope *outer;
};

/** One recorded span; defined in recorder.cc. */
struct SpanRecord;

/** One gauge's samples; defined in recorder.cc. */
struct CounterRecord;

namespace causal
{
class OpSpan;
class EventCtxScope;
} // namespace causal

/**
 * A run's recorder; Simulation::recorder(). See the file comment.
 */
class Recorder
{
  public:
    /** Take a run key and arm the causal log if it is open. */
    explicit Recorder(Simulation &sim);

    /** Hand the spans to the causal log. */
    ~Recorder();

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    bool causalOn() const { return _causalOn; }

    /** Sample the lifecycle.*_us histograms from now on. */
    void enableLifecycle();

    // --- causal context and packets ---

    /**
     * The context of the operation executing on this run's stream:
     * the running Process's slot when a fiber is running, else the
     * run's event slot (set by EventCtxScope inside delivery events).
     * Empty when the causal log is off.
     */
    causal::CauseCtx
    current()
    {
        if (!_causalOn)
            return {};
        std::uint64_t *trace, *span;
        slots(trace, span);
        return {*trace, *span};
    }

    /** A packet's send stamp: born = now, cause = current(). */
    PacketLife sendStamp();

    /**
     * The receive hook: @p life's stamps plus the receiving NI's DMA
     * bracket [@p rx_start, @p rx_done]. Samples the stage histograms
     * and emits a "pkt.total" span parented on the packet's context
     * with five stage children (pkt.send_overhead .. pkt.delivery)
     * that partition [born, rx_done] exactly.
     */
    void
    packetDelivered(const PacketLife &life, int dst_node, Tick rx_start,
                    Tick rx_done)
    {
        if (_lifecycleOn || _causalOn)
            recordPacket(life, dst_node, rx_start, rx_done);
    }

    /**
     * Record a leaf span [@p start, @p end] on @p node, parented on
     * @p parent: current() for work done inside an operation, or a
     * packet's carried context for what happens to that packet (a
     * go-back-N resend, a drop). A leaf is never installed as a
     * context, so no span is ever its child.
     */
    void
    leaf(const causal::CauseCtx &parent, int node, const char *name,
         Tick start, Tick end)
    {
        if (_causalOn)
            emitSpan(mintId(node), parent, node, name, start, end);
    }

    // --- gauges ---

    /**
     * Register a gauge named @p name (a string literal) on @p node, -1
     * for a cluster-wide one. @p read only reads simulation state: it
     * never blocks, schedules, draws from the RNG or wakes anyone.
     * Register every gauge before sampleEvery().
     */
    void addGauge(int node, const char *name, std::function<double()> read);

    /**
     * Sample every gauge at @p interval, twice @p interval, and so on
     * in simulated time. A sample reschedules only while other events
     * are pending, so sampling never keeps a finished run alive, and
     * its event only reads, so the run is otherwise bit-identical.
     * The samples go to the causal log, so the log must be on; call
     * it at tick 0, once, with @p interval > 0.
     */
    void sampleEvery(Tick interval);

  private:
    friend class causal::OpSpan;
    friend class causal::EventCtxScope;

    Tick now() const;

    /** The mutable context slot pair of this run's stream. */
    void slots(std::uint64_t *&trace, std::uint64_t *&span);

    std::uint64_t mintId(int node);
    void emitSpan(std::uint64_t id, const causal::CauseCtx &parent,
                  int node, const char *name, Tick start, Tick end);
    void recordPacket(const PacketLife &life, int dst_node,
                      Tick rx_start, Tick rx_done);
    void sample();

    Simulation &sim;
    std::pair<std::uint64_t, std::uint32_t> key; //!< run order: slot, sub

    bool _causalOn = false;
    bool _lifecycleOn = false;

    // Causal: generation armed, per-node mint counters (index
    // node + 1), buffered spans, the event slot.
    std::uint64_t causalGeneration = 0;
    std::vector<std::uint32_t> minted;
    std::vector<SpanRecord> spans;
    causal::CauseCtx eventCtx;

    // Gauges: readers and their series, in registration order.
    std::vector<std::function<double()>> gaugeReads;
    std::vector<CounterRecord> counters;
    Tick sampleInterval = 0;

    Histogram *lifeHist[std::size_t(LifeStage::kCount)] = {};
};

namespace causal
{

/**
 * RAII operation span. On construction (when the run's causal log is
 * on) it captures the enclosing context as parent, mints an id, and
 * installs itself as the current context — in the running Process's
 * slot (which travels with the fiber across suspends) or the run's
 * event slot — and on destruction restores the saved context and
 * emits the span.
 */
class OpSpan
{
  public:
    OpSpan(Recorder &rec, int node, const char *name)
    {
        if (rec.causalOn())
            begin(rec, node, name);
    }

    ~OpSpan()
    {
        if (_rec)
            finish();
    }

    OpSpan(const OpSpan &) = delete;
    OpSpan &operator=(const OpSpan &) = delete;

    /** This span's run-local id (0 when tracing is off). */
    std::uint64_t id() const { return _id; }

  private:
    void begin(Recorder &rec, int node, const char *name);
    void finish();

    Recorder *_rec = nullptr;
    std::uint64_t _id = 0;
    CauseCtx saved;                     //!< context to restore
    std::uint64_t *slotTrace = nullptr; //!< slot we installed into
    std::uint64_t *slotSpan = nullptr;
    const char *_name = nullptr;
    int _node = -1;
    Tick _start = 0;
};

/**
 * RAII event-context scope: installs @p ctx as the current context for
 * the duration of a delivery/notification callback, so sends issued
 * from inside it inherit the causing packet's context. Installs into
 * the running Process's slot when one is executing (the OS
 * notification dispatcher runs handlers on a fiber) or the run's
 * event slot otherwise. Nests (saves and restores).
 */
class EventCtxScope
{
  public:
    EventCtxScope(Recorder &rec, const CauseCtx &ctx)
    {
        if (rec.causalOn())
            install(rec, ctx);
    }

    ~EventCtxScope()
    {
        if (slotTrace)
            restore();
    }

    EventCtxScope(const EventCtxScope &) = delete;
    EventCtxScope &operator=(const EventCtxScope &) = delete;

  private:
    void install(Recorder &rec, const CauseCtx &ctx);
    void restore();

    CauseCtx saved;
    std::uint64_t *slotTrace = nullptr; //!< slot we installed into
    std::uint64_t *slotSpan = nullptr;
};

} // namespace causal

} // namespace shrimp

#endif // SHRIMP_SIM_RECORDER_HH

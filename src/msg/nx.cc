#include "msg/nx.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/logging.hh"
#include "sim/recorder.hh"

namespace shrimp::msg
{

namespace
{

/** Message type value marking a wrap-to-ring-start record. */
constexpr std::uint32_t kWrapType = 0xffffffffu;

/** Round up to the 16-byte framing granule. */
constexpr std::size_t
align16(std::size_t n)
{
    return (n + 15) / 16 * 16;
}

/** Index of the first set bit at or after @p i in @p words, or @p n. */
int
nextSetBit(const std::vector<std::uint64_t> &words, int i, int n)
{
    for (std::size_t w = std::size_t(i) / 64; w < words.size(); ++w) {
        std::uint64_t bits = words[w];
        if (w == std::size_t(i) / 64)
            bits &= ~std::uint64_t(0) << (i % 64);
        if (bits)
            return int(w * 64) + std::countr_zero(bits);
    }
    return n;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// NxDomain
// ---------------------------------------------------------------------

NxDomain::NxDomain(core::Cluster &cluster, const NxConfig &config)
    : cluster(cluster), config(config), coll(cluster, config.nprocs),
      setup(config.nprocs)
{
    int n = config.nprocs;
    if (n < 1 || n > cluster.nodeCount())
        fatal("NxDomain: nprocs %d out of range", n);
    if (config.ringBytes % node::kPageBytes != 0)
        fatal("NxDomain: ring size must be a page multiple");

    // Eager all-pairs rings are the honest NX model, but on big
    // meshes n-1 rings per node can't keep the 16-node ring size:
    // cap the per-node ring budget and halve the ring until it fits
    // (never below 8 pages, so a paper-sized message still fits in
    // cap/2). Geometries up to ~128 ranks keep the configured size
    // and therefore byte-identical behavior.
    constexpr std::size_t kRingBudget = 32 * 1024 * 1024;
    constexpr std::size_t kRingFloor = 8 * node::kPageBytes;
    while (this->config.ringBytes > kRingFloor &&
           std::size_t(n - 1) * this->config.ringBytes > kRingBudget)
        this->config.ringBytes /= 2;

    procs.resize(n);
    for (int r = 0; r < n; ++r)
        procs[r] = std::unique_ptr<NxProcess>(new NxProcess(*this, r));
    inRings.assign(n, std::vector<InRing>(n));
    outRings.assign(n, std::vector<OutRing>(n));
    unread.assign(n, std::vector<std::uint64_t>((n + 63) / 64));
    creditPages.assign(n, nullptr);
    creditExports.assign(n, core::kInvalidExport);
    creditProxies.assign(n, std::vector<core::ProxyId>(
                                n, core::kInvalidProxy));
}

NxDomain::~NxDomain() = default;

void
NxDomain::init(int rank)
{
    int n = config.nprocs;
    core::Endpoint &ep = cluster.vmmc(rank);
    auto &mem = ep.node().mem();

    // Export one incoming ring per peer plus the credit page.
    for (int peer = 0; peer < n; ++peer) {
        if (peer == rank)
            continue;
        InRing &ring = inRings[rank][peer];
        ring.base = static_cast<char *>(
            mem.alloc(config.ringBytes, true));
        ring.exp = ep.exportBuffer(ring.base, config.ringBytes);
    }
    // One 8-byte credit slot per peer; a single page only covers 512
    // ranks, so round the region up to however many pages n needs.
    std::size_t credit_bytes =
        (std::size_t(n) * sizeof(std::uint64_t) + node::kPageBytes -
         1) /
        node::kPageBytes * node::kPageBytes;
    creditPages[rank] =
        static_cast<char *>(mem.alloc(credit_bytes, true));
    creditExports[rank] =
        ep.exportBuffer(creditPages[rank], credit_bytes);

    // Rendezvous (model-level), then import peers' rings.
    setup.arriveAndWait(ep.node().simulation());

    for (int peer = 0; peer < n; ++peer) {
        if (peer == rank)
            continue;
        OutRing &out = outRings[rank][peer];
        out.proxy = ep.import(NodeId(peer), inRings[peer][rank].exp);
        out.credit = reinterpret_cast<volatile std::uint64_t *>(
            creditPages[rank] + peer * sizeof(std::uint64_t));
        creditProxies[rank][peer] =
            ep.import(NodeId(peer), creditExports[peer]);
        if (config.useAutomaticUpdate) {
            if (!ep.auSupported())
                fatal("NX AU variant needs an AU-capable NIC");
            out.auStage = static_cast<char *>(
                mem.alloc(config.ringBytes, true));
            ep.bindAu(out.auStage, out.proxy, 0, config.ringBytes);
        }
    }

    coll.init(rank);
}

// ---------------------------------------------------------------------
// NxProcess
// ---------------------------------------------------------------------

int
NxProcess::numnodes() const
{
    return dom.config.nprocs;
}

void
NxProcess::csend(int type, const void *buf, std::size_t len, int to)
{
    if (to == rank)
        fatal("NX: send-to-self is not supported");
    if (to < 0 || to >= dom.config.nprocs)
        fatal("NX: bad destination rank %d", to);

    core::Endpoint &ep = dom.cluster.vmmc(rank);
    NxDomain::OutRing &out = dom.outRings[rank][to];
    const std::size_t cap = dom.config.ringBytes;

    std::size_t total = sizeof(MsgHeader) + align16(len) +
                        sizeof(MsgTrailer);
    if (total > cap / 2)
        fatal("NX: message of %zu bytes exceeds ring capacity", len);

    ep.node().cpu().sync(); // close out compute time first
    ScopedCategory cat(dom.cluster.sim(), TimeCategory::Communication);
    causal::OpSpan span(dom.cluster.sim().recorder(), rank, "nx.csend");

    // Never let a record cross the ring end: pad to the top first.
    std::size_t off = out.writePos % cap;
    bool need_wrap = off + total > cap;
    std::size_t wrap_bytes = need_wrap ? cap - off : 0;
    std::size_t need = total + wrap_bytes;

    // Flow control: wait for the receiver's credit returns.
    ep.waitUntil([&out, need, cap] {
        return out.writePos + need - *out.credit <= cap;
    });

    // Count each record as produced, and flag the receiver's ring,
    // before its first byte is posted: a send can yield between pages,
    // so the receiver may see a header whose trailer is still in
    // flight, and must not take the ring for empty then.
    std::uint64_t &unread_word = dom.unread[to][rank / 64];
    const std::uint64_t my_bit = std::uint64_t(1) << (rank % 64);

    if (need_wrap) {
        MsgHeader wrap{out.nextSeq, kWrapType, 0, 0};
        out.writePos += wrap_bytes;
        unread_word |= my_bit;
        // The wrap record consumes the rest of the ring; only the
        // 16-byte marker is actually transmitted.
        if (dom.config.useAutomaticUpdate) {
            ep.auWriteBlock(out.auStage + off, &wrap, sizeof(wrap));
        } else {
            ep.send(out.proxy, &wrap, sizeof(wrap), off);
        }
        ++out.nextSeq;
        off = 0;
    }

    // Assemble the framed message and push it with one VMMC message
    // (chunks deliver in order, and the trailer lands last).
    std::vector<char> frame(total);
    MsgHeader hdr{out.nextSeq, std::uint32_t(type),
                  std::uint32_t(len), 0};
    std::memcpy(frame.data(), &hdr, sizeof(hdr));
    std::memcpy(frame.data() + sizeof(hdr), buf, len);
    MsgTrailer trl{out.nextSeq, 0};
    std::memcpy(frame.data() + total - sizeof(trl), &trl, sizeof(trl));

    if (!stSends) {
        auto &stats = ep.node().simulation().stats();
        stSends = CounterHandle(stats, ep.node().name() + ".nx.sends");
        stSendBytes =
            CounterHandle(stats, ep.node().name() + ".nx.send_bytes");
    }
    stSends.inc();
    stSendBytes.inc(len);

    out.writePos += total;
    unread_word |= my_bit;
    if (dom.config.useAutomaticUpdate) {
        // Library-level gather into the AU-bound staging ring; the
        // stores propagate as a side effect and flush here.
        ep.auWriteBlock(out.auStage + off, frame.data(), total);
        ep.auFlush();
    } else {
        ep.send(out.proxy, frame.data(), total, off);
    }
    ++out.nextSeq;
}

void
NxProcess::drainRingFrom(int src)
{
    NxDomain::InRing &ring = dom.inRings[rank][src];
    core::Endpoint &ep = dom.cluster.vmmc(rank);
    auto &cpu = ep.node().cpu();
    const std::size_t cap = dom.config.ringBytes;

    for (;;) {
        std::size_t off = ring.consumed % cap;
        cpu.chargeAccess(2);
        const auto *hdr =
            reinterpret_cast<const MsgHeader *>(ring.base + off);
        if (hdr->seq != ring.nextSeq)
            break;

        if (hdr->type == kWrapType) {
            ring.consumed += cap - off;
            ++ring.nextSeq;
            continue;
        }

        std::size_t total = sizeof(MsgHeader) + align16(hdr->len) +
                            sizeof(MsgTrailer);
        const auto *trl = reinterpret_cast<const MsgTrailer *>(
            ring.base + off + total - sizeof(MsgTrailer));
        cpu.chargeAccess(1);
        if (trl->seq != ring.nextSeq)
            break; // payload still in flight

        // The payload is queued where it lies in the ring, but the
        // model still charges its copy out of the ring here.
        queuePending(src, int(hdr->type),
                     ring.base + off + sizeof(MsgHeader), hdr->len);
        cpu.chargeCopy(hdr->len);

        ring.consumed += total;
        ++ring.nextSeq;

        if (ring.consumed - ring.creditsSent > cap / 4)
            sendCredits(src);
    }
}

void
NxProcess::queuePending(int src, int type, const char *data,
                        std::uint32_t len)
{
    if (fifos.empty()) {
        fifos.resize(dom.config.nprocs);
        hasPending.resize((dom.config.nprocs + 63) / 64);
    }
    std::int32_t slot = freeSlot;
    if (slot != -1) {
        freeSlot = slots[slot].next;
    } else {
        slot = std::int32_t(slots.size());
        slots.emplace_back();
    }
    slots[slot] = {drained++, data, nullptr, len, type, -1};
    PendingFifo &fifo = fifos[src];
    if (fifo.tail != -1)
        slots[fifo.tail].next = slot;
    else
        fifo.head = slot;
    fifo.tail = slot;
    hasPending[src / 64] |= std::uint64_t(1) << (src % 64);
}

void
NxProcess::sendCredits(int src)
{
    // The credits let src overwrite every byte consumed so far, so
    // the payloads still pending move out of the ring first.
    for (std::int32_t i = fifos[src].head; i != -1; i = slots[i].next) {
        PendingMsg &m = slots[i];
        if (m.copy)
            continue;
        m.copy = std::make_unique_for_overwrite<char[]>(m.len);
        std::memcpy(m.copy.get(), m.data, m.len);
        m.data = m.copy.get();
    }

    NxDomain::InRing &ring = dom.inRings[rank][src];
    core::Endpoint &ep = dom.cluster.vmmc(rank);
    std::uint64_t consumed = ring.consumed;
    // Write my consumed count into the peer's credit page at my slot.
    ep.send(dom.creditProxies[rank][src], &consumed,
            sizeof(consumed), std::size_t(rank) * sizeof(std::uint64_t));
    ring.creditsSent = consumed;
}

void
NxProcess::drainRings()
{
    // Walk the unread senders in rank order. The rings in between are
    // empty, and each still costs the two accesses of an empty poll,
    // charged before the next drained ring runs: its credit return
    // syncs the CPU. That return can also yield while other ranks
    // send, so the live bitset is re-read after every drain.
    std::vector<std::uint64_t> &unread = dom.unread[rank];
    auto &cpu = dom.cluster.vmmc(rank).node().cpu();
    const int n = dom.config.nprocs;
    for (int next = 0;;) {
        int src = nextSetBit(unread, next, n);
        int empty = src - next - (next <= rank && rank < src ? 1 : 0);
        cpu.chargeAccess(2 * std::uint64_t(empty));
        if (src == n)
            return;
        drainRingFrom(src);
        if (dom.inRings[rank][src].consumed ==
            dom.outRings[src][rank].writePos)
            unread[src / 64] &= ~(std::uint64_t(1) << (src % 64));
        next = src + 1;
    }
}

NxProcess::Match
NxProcess::findPending(int typesel, int from) const
{
    Match best;
    // A FIFO is in drain order: a sender offers only its first match,
    // and its scan stops at a message drained after the best so far.
    auto scan = [&](int src) {
        std::int32_t prev = -1;
        for (std::int32_t i = fifos[src].head; i != -1;
             prev = i, i = slots[i].next) {
            if (best.slot != -1 &&
                slots[i].order > slots[best.slot].order)
                return;
            if (typesel == -1 || slots[i].type == typesel) {
                best = {src, prev, i};
                return;
            }
        }
    };
    if (fifos.empty())
        return best;
    if (from != -1) {
        scan(from);
        return best;
    }
    const int n = dom.config.nprocs;
    for (int src = nextSetBit(hasPending, 0, n); src < n;
         src = nextSetBit(hasPending, src + 1, n))
        scan(src);
    return best;
}

void
NxProcess::takePending(const Match &m)
{
    PendingFifo &fifo = fifos[m.src];
    std::int32_t next = slots[m.slot].next;
    if (m.prev != -1)
        slots[m.prev].next = next;
    else
        fifo.head = next;
    if (fifo.tail == m.slot)
        fifo.tail = m.prev;
    if (fifo.head == -1)
        hasPending[m.src / 64] &= ~(std::uint64_t(1) << (m.src % 64));
    slots[m.slot].copy.reset();
    slots[m.slot].next = freeSlot;
    freeSlot = m.slot;
}

std::size_t
NxProcess::crecv(int typesel, void *buf, std::size_t maxlen)
{
    return crecvProbe(typesel, -1, buf, maxlen, nullptr);
}

std::size_t
NxProcess::crecvProbe(int typesel, int from, void *buf,
                      std::size_t maxlen, int *src_out)
{
    if (from < -1 || from >= dom.config.nprocs)
        fatal("NX: bad source rank %d", from);

    core::Endpoint &ep = dom.cluster.vmmc(rank);
    ep.node().cpu().sync(); // close out compute time first
    ScopedCategory cat(dom.cluster.sim(), TimeCategory::Communication);
    causal::OpSpan span(dom.cluster.sim().recorder(), rank, "nx.crecv");

    for (;;) {
        drainRings();
        Match m = findPending(typesel, from);
        if (m.slot != -1) {
            const PendingMsg &msg = slots[m.slot];
            std::size_t len = msg.len;
            if (len > maxlen)
                fatal("NX: crecv buffer too small (%zu < %zu)", maxlen,
                      len);
            std::memcpy(buf, msg.data, len);
            ep.node().cpu().chargeCopy(len);
            if (src_out)
                *src_out = m.src;
            takePending(m);
            return len;
        }
        std::uint64_t before = ep.deliveries();
        ep.waitUntil([&ep, before] { return ep.deliveries() != before; });
    }
}

long
NxProcess::iprobe(int typesel)
{
    drainRings();
    Match m = findPending(typesel, -1);
    return m.slot != -1 ? long(slots[m.slot].len) : -1;
}

void
NxProcess::gsync()
{
    dom.coll.barrier(rank);
}

double
NxProcess::gdsum(double v)
{
    return dom.coll.reduceSum(rank, v);
}

double
NxProcess::gdhigh(double v)
{
    return dom.coll.reduceMax(rank, v);
}

} // namespace shrimp::msg

#include "svm/svm.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "core/collective.hh"
#include "svm/diff.hh"

#include "sim/logging.hh"
#include "sim/recorder.hh"

namespace shrimp::svm
{

namespace
{

/** Control-message kinds. */
enum CtlKind : std::uint32_t
{
    kPageReq = 1,
    kDiff,
    kLockReq,
    kLockRel,
    kLockGrant,
    kBarrArrive,
    kBarrRelease,
    kNoticePad, //!< overflow carrier for large notice payloads
};

/** Framing header of every control message. */
struct CtlHeader
{
    std::uint32_t kind;
    std::uint32_t src;
    std::uint32_t arg0;          //!< page id / lock id / epoch
    std::uint32_t arg1;          //!< stamp / epoch
    std::uint32_t payloadBytes;
    std::uint32_t pad;
    /**
     * Sender's region cursor after this message: the receiver reports
     * it back (model-level piggyback) as its processed watermark, the
     * sender-side flow control that keeps a slot from being reused
     * while its message is still queued behind the dispatcher.
     */
    std::uint64_t cursorAfter;
};

/** Per-sender region size inside each rank's control receive buffer. */
constexpr std::size_t kCtlRegionBytes = 128 * 1024;

/**
 * A control message is delivered in one hardware transfer and its
 * notification must identify the message start, so messages never
 * cross a page boundary: one page is the hard per-message cap.
 */
constexpr std::size_t kMaxCtlBytes = node::kPageBytes;
constexpr std::size_t kMaxCtlPayload = kMaxCtlBytes - sizeof(CtlHeader);

/**
 * Notification ids (caps().batchedNotify adapters). The fetch-stamp
 * reply and the per-home diff acks bump arrival counters on the
 * requester/releaser NIC; the blocked fiber waits on the counter
 * instead of polling a control-page scalar.
 */
constexpr std::uint32_t kNotifyFetch = 1;
constexpr std::uint32_t kNotifyDiffAckBase = 0x100;

} // anonymous namespace

const char *
protocolName(Protocol p)
{
    switch (p) {
      case Protocol::HLRC:
        return "HLRC";
      case Protocol::HLRC_AU:
        return "HLRC-AU";
      case Protocol::AURC:
        return "AURC";
    }
    return "?";
}

// ---------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------

struct SvmRuntime::LockState
{
    bool held = false;
    int holder = -1;
    Vc vc;
    std::deque<std::pair<int, Vc>> queue;
};

struct SvmRuntime::RankState
{
    /**
     * Per-page coherence state. Every shared store checks it, so it
     * stays three bytes; the twins live in their own vector.
     */
    struct PageState
    {
        bool valid = false;
        bool writable = false;
        bool dirty = false;
    };

    /**
     * Maximum SVM ranks: NodeCtl (one fetch stamp plus a per-peer ack
     * slot) must fit the single control page each rank exports.
     */
    static constexpr int kMaxSvmProcs =
        int((node::kPageBytes - sizeof(std::uint64_t)) /
            sizeof(std::uint64_t));

    /** Control page written remotely (fetch stamps + diff acks). */
    struct NodeCtl
    {
        std::uint64_t fetchStamp;
        std::uint64_t acks[kMaxSvmProcs];
    };

    int rank = -1;
    Vc vc;

    // Interned per-rank statistics (lazy; see sim/stats.hh).
    CounterHandle stFaults;
    CounterHandle stTwins;
    CounterHandle stDiffs;
    CounterHandle stDiffBytes;
    CounterHandle stInvalidations;
    CounterHandle stLockAcquires;
    CounterHandle stBarriers;
    CounterHandle stCtlMsgs;

    std::vector<PageState> pages;
    /** HLRC twins by page; null where the page has none. */
    std::vector<std::unique_ptr<std::vector<char>>> twins;
    std::vector<PageId> dirtyList;
    std::map<PageId, std::vector<char>> pendingDiffs;
    bool initialized = false;

    /**
     * Pages applyNotices invalidated since the last barrier, and
     * those it invalidated in the barrier interval before; see
     * releaseStaleCopies.
     */
    std::vector<PageId> invalidatedNow;
    std::vector<PageId> invalidatedBefore;

    // Communication plumbing.
    char *reqBuf = nullptr;
    NodeCtl *ctl = nullptr;
    core::ExportId reqExp = core::kInvalidExport;
    core::ExportId ctlExp = core::kInvalidExport;
    core::ExportId heapExp = core::kInvalidExport;
    std::vector<core::ProxyId> heapProxy;
    std::vector<core::ProxyId> reqProxy;
    std::vector<core::ProxyId> ctlProxy;
    std::vector<std::uint64_t> reqCursor;
    /** Per-sender processed watermark (flow control, see CtlHeader). */
    std::vector<std::uint64_t> ctlProcessed;

    // Fault handshake.
    std::uint32_t fetchSeq = 0;

    /** First own interval not yet described in a release message. */
    std::uint32_t lastRelIdx = 0;

    // Diff acknowledgements.
    std::vector<std::uint64_t> diffsSentTo;
    std::vector<std::uint64_t> diffsAppliedFrom;

    // Lock/barrier completion flags (set by notification handlers).
    std::map<int, bool> grantFlag;
    std::uint64_t barrierSeq = 0;  //!< barriers entered
    std::uint64_t barrierDone = 0; //!< barriers completed

    // Introspection counters.
    std::uint64_t faultCount = 0;
    std::uint64_t diffCount = 0;

    // Debug: last blocking operation entered.
    const char *lastOp = "init";
    int lastArg = -1;
    std::uint32_t handlerActive = 0; //!< kind being handled, 0 = idle
    std::uint64_t handlersRun = 0;
};

// ---------------------------------------------------------------------
// Construction & setup
// ---------------------------------------------------------------------

SvmRuntime::SvmRuntime(core::Cluster &cluster, const SvmConfig &config)
    : cluster(cluster), cfg(config)
{
    if (cfg.nprocs < 1 || cfg.nprocs > cluster.nodeCount())
        fatal("SvmRuntime: nprocs %d out of range", cfg.nprocs);
    if (cfg.nprocs > RankState::kMaxSvmProcs)
        fatal("SvmRuntime: nprocs %d exceeds control-page capacity "
              "(%d)", cfg.nprocs, RankState::kMaxSvmProcs);
    if (cfg.heapBytes % node::kPageBytes != 0)
        fatal("SvmRuntime: heap must be a page multiple");

    useNotify = cluster.vmmc(0).nicCaps().batchedNotify;

    pageCount = PageId(cfg.heapBytes / node::kPageBytes);
    homes.resize(pageCount);
    for (PageId p = 0; p < pageCount; ++p)
        homes[p] = int(p % PageId(cfg.nprocs));

    replicas.resize(cfg.nprocs);
    for (int r = 0; r < cfg.nprocs; ++r)
        replicas[r] = static_cast<char *>(
            cluster.node(r).mem().alloc(cfg.heapBytes, true));

    intervalsOf.assign(cfg.nprocs, {});
    barrierVc.assign(cfg.nprocs, 0);

    ranks.resize(cfg.nprocs);
    for (int r = 0; r < cfg.nprocs; ++r) {
        ranks[r] = std::make_unique<RankState>();
        RankState &rs = *ranks[r];
        rs.rank = r;
        auto &stats = cluster.sim().stats();
        const std::string prefix = cluster.node(r).name() + ".svm.";
        rs.stFaults = CounterHandle(stats, prefix + "faults");
        rs.stTwins = CounterHandle(stats, prefix + "twins");
        rs.stDiffs = CounterHandle(stats, prefix + "diffs");
        rs.stDiffBytes = CounterHandle(stats, prefix + "diff_bytes");
        rs.stInvalidations =
            CounterHandle(stats, prefix + "invalidations");
        rs.stLockAcquires =
            CounterHandle(stats, prefix + "lock_acquires");
        rs.stBarriers = CounterHandle(stats, prefix + "barriers");
        rs.stCtlMsgs = CounterHandle(stats, prefix + "ctl_msgs");
        rs.vc.assign(cfg.nprocs, 0);
        rs.pages.resize(pageCount);
        rs.twins.resize(pageCount);
        rs.heapProxy.assign(cfg.nprocs, core::kInvalidProxy);
        rs.reqProxy.assign(cfg.nprocs, core::kInvalidProxy);
        rs.ctlProxy.assign(cfg.nprocs, core::kInvalidProxy);
        rs.reqCursor.assign(cfg.nprocs, 0);
        rs.ctlProcessed.assign(cfg.nprocs, 0);
        rs.diffsSentTo.assign(cfg.nprocs, 0);
        rs.diffsAppliedFrom.assign(cfg.nprocs, 0);
        // Home pages are always valid on their home.
        for (PageId p = 0; p < pageCount; ++p) {
            if (homes[p] == r)
                rs.pages[p].valid = true;
        }
    }

    locks.resize(cfg.numLocks);
    for (auto &l : locks) {
        l = std::make_unique<LockState>();
        l->vc.assign(cfg.nprocs, 0);
    }
}

SvmRuntime::~SvmRuntime() = default;

void *
SvmRuntime::sharedAlloc(std::size_t bytes, bool page_aligned)
{
    std::size_t align = page_aligned ? node::kPageBytes : 8;
    std::size_t start = (heapUsed + align - 1) / align * align;
    if (start + bytes > cfg.heapBytes)
        fatal("SVM shared heap exhausted (%zu + %zu > %zu)",
              start, bytes, cfg.heapBytes);
    heapUsed = start + bytes;
    return replicas[0] + start;
}

void
SvmRuntime::setHomeBlock(const void *p, std::size_t bytes, int rank)
{
    if (rank < 0 || rank >= cfg.nprocs)
        fatal("setHomeBlock: bad rank %d", rank);
    PageId first = pageOfCanonical(p);
    PageId last = pageOfCanonical(
        static_cast<const char *>(p) + bytes - 1);
    for (PageId pg = first; pg <= last; ++pg) {
        homes[pg] = rank;
        for (int r = 0; r < cfg.nprocs; ++r)
            ranks[r]->pages[pg].valid = (r == rank);
    }
}

PageId
SvmRuntime::pageOfCanonical(const void *caddr) const
{
    auto off = std::size_t(static_cast<const char *>(caddr) -
                           replicas[0]);
    if (off >= cfg.heapBytes)
        panic("address is not in the shared heap");
    return PageId(off / node::kPageBytes);
}

int
SvmRuntime::homeOf(const void *caddr) const
{
    return homes[pageOfCanonical(caddr)];
}

std::uint64_t
SvmRuntime::faults(int rank) const
{
    return ranks[rank]->faultCount;
}

std::uint64_t
SvmRuntime::diffsCreated(int rank) const
{
    return ranks[rank]->diffCount;
}

char *
SvmRuntime::replicaAddr(int rank, const void *caddr)
{
    auto off = std::size_t(static_cast<const char *>(caddr) -
                           replicas[0]);
    return replicas[rank] + off;
}

std::string
SvmRuntime::debugState() const
{
    std::string out;
    for (int r = 0; r < cfg.nprocs; ++r) {
        out += strfmt("rank %d: %s(%d) handler=%u run=%llu\n", r,
                      ranks[r]->lastOp, ranks[r]->lastArg,
                      ranks[r]->handlerActive,
                      (unsigned long long)ranks[r]->handlersRun);
    }
    for (int l = 0; l < cfg.numLocks; ++l) {
        const LockState &ls = *locks[l];
        if (ls.held || !ls.queue.empty()) {
            out += strfmt("lock %d: held=%d holder=%d queue=%zu\n", l,
                          int(ls.held), ls.holder, ls.queue.size());
        }
    }
    return out;
}

void
SvmRuntime::init(int rank)
{
    RankState &rs = *ranks[rank];
    core::Endpoint &ep = cluster.vmmc(rank);
    auto &mem = ep.node().mem();

    rs.reqBuf = static_cast<char *>(
        mem.alloc(kCtlRegionBytes * std::size_t(cfg.nprocs), true));
    rs.ctl = static_cast<RankState::NodeCtl *>(
        mem.alloc(node::kPageBytes, true));

    rs.heapExp = ep.exportBuffer(replicas[rank], cfg.heapBytes);
    rs.reqExp = ep.exportBuffer(
        rs.reqBuf, kCtlRegionBytes * std::size_t(cfg.nprocs));
    rs.ctlExp = ep.exportBuffer(rs.ctl, node::kPageBytes);
    ep.enableNotifications(
        rs.reqExp,
        [this, rank](NodeId src, std::uint32_t off, std::uint32_t n) {
            handleCtl(rank, src, off, n);
        });

    rs.initialized = true;

    // Rendezvous with the other ranks (init phase, model-level).
    Simulation &sim = ep.node().simulation();
    auto all = [this] {
        for (int r = 0; r < cfg.nprocs; ++r)
            if (!ranks[r]->initialized)
                return false;
        return true;
    };
    while (!all())
        sim.delay(microseconds(10));

    for (int peer = 0; peer < cfg.nprocs; ++peer) {
        if (peer == rank)
            continue;
        RankState &prs = *ranks[peer];
        rs.heapProxy[peer] = ep.import(NodeId(peer), prs.heapExp);
        rs.reqProxy[peer] = ep.import(NodeId(peer), prs.reqExp);
        rs.ctlProxy[peer] = ep.import(NodeId(peer), prs.ctlExp);
    }

    // AU-based protocols write-through map every non-home page to its
    // home (batched kernel call; the OPT entries are set directly).
    if (cfg.protocol != Protocol::HLRC) {
        auto &nic = ep.nic();
        if (!nic.supportsAutomaticUpdate())
            fatal("protocol %s needs an AU-capable NIC",
                  protocolName(cfg.protocol));
        node::Frame my0 = mem.frameOf(replicas[rank]);
        for (PageId p = 0; p < pageCount; ++p) {
            int h = homes[p];
            if (h == rank)
                continue;
            node::Frame home0 =
                cluster.node(h).mem().frameOf(replicas[h]);
            nic.bindAu(my0 + p, NodeId(h), home0 + p, true, false);
        }
        ep.node().cpu().compute(
            ep.node().params().syscallCost +
            Tick(pageCount) * microseconds(0.5));
        ep.node().cpu().sync();
    }
}

// ---------------------------------------------------------------------
// Access layer
// ---------------------------------------------------------------------

char *
SvmRuntime::ensureRead(int rank, const void *caddr, std::size_t bytes)
{
    RankState &rs = *ranks[rank];
    PageId page = pageOfCanonical(caddr);
    auto &ps = rs.pages[page];
    if (!ps.valid)
        fetchPage(rank, page);
    cluster.node(rank).cpu().chargeAccess(1);
    (void)bytes;
    return replicaAddr(rank, caddr);
}

char *
SvmRuntime::ensureWrite(int rank, const void *caddr, std::size_t bytes)
{
    RankState &rs = *ranks[rank];
    PageId page = pageOfCanonical(caddr);
    auto &ps = rs.pages[page];

    if (!ps.valid)
        fetchPage(rank, page);

    if (!ps.writable) {
        if (homes[page] != rank &&
            cfg.protocol != Protocol::AURC)
            makeTwin(rank, page);
        ps.writable = true;
        if (!ps.dirty) {
            ps.dirty = true;
            rs.dirtyList.push_back(page);
        }
    }
    (void)bytes;
    return replicaAddr(rank, caddr);
}

void
SvmRuntime::storeShared(int rank, char *local, const void *src,
                        std::size_t bytes)
{
    PageId page = PageId((local - replicas[rank]) / node::kPageBytes);
    if (cfg.protocol != Protocol::HLRC && homes[page] != rank) {
        // Write-through mapped: the store propagates to the home.
        cluster.vmmc(rank).auWriteBlock(local, src, bytes);
    } else {
        std::memcpy(local, src, bytes);
        cluster.node(rank).cpu().chargeAccess(1);
    }
}

const char *
SvmRuntime::readRange(int rank, const void *caddr, std::size_t bytes)
{
    const char *c = static_cast<const char *>(caddr);
    PageId first = pageOfCanonical(c);
    PageId last = pageOfCanonical(c + bytes - 1);
    RankState &rs = *ranks[rank];
    for (PageId p = first; p <= last; ++p) {
        if (!rs.pages[p].valid)
            fetchPage(rank, p);
    }
    cluster.node(rank).cpu().chargeCopy(bytes);
    return replicaAddr(rank, caddr);
}

void
SvmRuntime::writeRange(int rank, void *caddr, const void *src,
                       std::size_t bytes)
{
    char *c = static_cast<char *>(caddr);
    const char *s = static_cast<const char *>(src);
    std::size_t remaining = bytes;
    while (remaining > 0) {
        PageId page = pageOfCanonical(c);
        std::size_t page_off =
            std::size_t(c - replicas[0]) % node::kPageBytes;
        std::size_t chunk = std::min<std::size_t>(
            remaining, node::kPageBytes - page_off);
        char *local = ensureWrite(rank, c, chunk);
        storeShared(rank, local, s, chunk);
        (void)page;
        c += chunk;
        s += chunk;
        remaining -= chunk;
    }
}

const char *
SvmRuntime::readStruct(int rank, const void *caddr, std::size_t bytes,
                       int accesses)
{
    const char *c = static_cast<const char *>(caddr);
    PageId first = pageOfCanonical(c);
    PageId last = pageOfCanonical(c + bytes - 1);
    RankState &rs = *ranks[rank];
    for (PageId p = first; p <= last; ++p) {
        if (!rs.pages[p].valid)
            fetchPage(rank, p);
    }
    cluster.node(rank).cpu().chargeAccess(std::uint64_t(accesses));
    return replicaAddr(rank, caddr);
}

void
SvmRuntime::writeStruct(int rank, void *caddr, const void *src,
                        std::size_t bytes)
{
    writeRange(rank, caddr, src, bytes);
}

void
SvmRuntime::fetchPage(int rank, PageId page)
{
    RankState &rs = *ranks[rank];
    int home = homes[page];
    if (home == rank)
        panic("fetchPage: rank %d is the home of page %u", rank, page);

    core::Endpoint &ep = cluster.vmmc(rank);
    cluster.node(rank).cpu().sync(); // close out compute time first
    ScopedCategory cat(cluster.sim(), TimeCategory::Communication);
    causal::OpSpan span(cluster.sim().recorder(), rank, "svm.fault");
    rs.stFaults.inc();
    ++rs.faultCount;

    cluster.node(rank).cpu().compute(cfg.faultTrapCost);

    rs.lastOp = "fetch";
    rs.lastArg = int(page);
    std::uint32_t stamp = ++rs.fetchSeq;
    CtlHeader h{kPageReq, std::uint32_t(rank), page, stamp, 0, 0, 0};
    sendCtl(rank, home, &h, sizeof(h));

    if (useNotify) {
        // The stamp reply carries kNotifyFetch; stamps are sequential
        // with exactly one reply each, so the arrival counter equals
        // the latest stamp written.
        ep.notifyWait(kNotifyFetch, stamp);
    } else {
        volatile std::uint64_t *fs = &rs.ctl->fetchStamp;
        ep.waitUntil([fs, stamp] { return *fs >= stamp; });
    }

    rs.pages[page].valid = true;
}

void
SvmRuntime::makeTwin(int rank, PageId page)
{
    RankState &rs = *ranks[rank];
    auto &twin = rs.twins[page];
    if (twin)
        return;
    cluster.node(rank).cpu().sync();
    ScopedCategory cat(cluster.sim(), TimeCategory::Overhead);
    Recorder &rec = cluster.sim().recorder();
    Tick start = cluster.sim().now();
    char *local = replicas[rank] +
                  std::size_t(page) * node::kPageBytes;
    twin = std::make_unique<std::vector<char>>(
        local, local + node::kPageBytes);
    auto &cpu = cluster.node(rank).cpu();
    cpu.compute(cfg.twinBaseCost);
    cpu.chargeCopy(node::kPageBytes);
    cpu.sync();
    rs.stTwins.inc();
    rec.leaf(rec.current(), rank, "svm.twin", start, cluster.sim().now());
}

// ---------------------------------------------------------------------
// Release / acquire
// ---------------------------------------------------------------------

void
SvmRuntime::vcMax(Vc &into, const Vc &other)
{
    for (std::size_t i = 0; i < into.size(); ++i)
        into[i] = std::max(into[i], other[i]);
}

std::size_t
SvmRuntime::noticeBytes(const Vc &have, const Vc &upto) const
{
    std::size_t bytes = 0;
    for (int n = 0; n < cfg.nprocs; ++n) {
        for (std::uint32_t s = have[n]; s < upto[n]; ++s)
            bytes += 12 + 4 * intervalsOf[n][s].pages.size();
    }
    return bytes;
}

void
SvmRuntime::capturePendingDiff(int rank, PageId page)
{
    RankState &rs = *ranks[rank];
    auto &twin = rs.twins[page];
    if (!twin)
        panic("capturePendingDiff without a twin");

    cluster.node(rank).cpu().sync();
    ScopedCategory cat(cluster.sim(), TimeCategory::Overhead);
    Tick diff_start = cluster.sim().now();
    char *local = replicas[rank] +
                  std::size_t(page) * node::kPageBytes;
    std::vector<char> blob = encodeDiff(twin->data(), local);
    auto &cpu = cluster.node(rank).cpu();
    cpu.compute(cfg.diffBaseCost);
    cpu.chargeCopy(2 * node::kPageBytes); // the scan reads both copies
    cpu.sync();
    Recorder &rec = cluster.sim().recorder();
    rec.leaf(rec.current(), rank, "svm.diff", diff_start,
             cluster.sim().now());

    ++rs.diffCount;
    rs.stDiffs.inc();
    rs.stDiffBytes.inc(blob.size());

    auto &pending = rs.pendingDiffs[page];
    pending.insert(pending.end(), blob.begin(), blob.end());
    twin.reset();
}

void
SvmRuntime::flushPendingDiffs(int rank)
{
    RankState &rs = *ranks[rank];
    if (rs.pendingDiffs.empty())
        return;
    core::Endpoint &ep = cluster.vmmc(rank);
    ScopedCategory cat(cluster.sim(), TimeCategory::Overhead);

    for (auto &kv : rs.pendingDiffs) {
        PageId page = kv.first;
        auto &blob = kv.second;
        if (blob.empty())
            continue;
        int home = homes[page];
        // Re-pack the blob into page-sized messages, splitting runs
        // where needed; every fragment applies independently.
        std::size_t pos = 0;
        std::uint32_t run_consumed = 0;
        while (pos < blob.size()) {
            std::vector<char> seg;
            seg.reserve(kMaxCtlPayload);
            while (pos < blob.size() &&
                   seg.size() + sizeof(DiffRun) + 4 <= kMaxCtlPayload) {
                DiffRun run;
                std::memcpy(&run, blob.data() + pos, sizeof(run));
                std::uint32_t left = run.length - run_consumed;
                std::uint32_t room = std::uint32_t(
                    kMaxCtlPayload - seg.size() - sizeof(DiffRun));
                std::uint32_t take = std::min(left, room);
                DiffRun frag{run.offset + run_consumed, take};
                auto *fp = reinterpret_cast<const char *>(&frag);
                seg.insert(seg.end(), fp, fp + sizeof(frag));
                const char *data = blob.data() + pos + sizeof(run) +
                                   run_consumed;
                seg.insert(seg.end(), data, data + take);
                run_consumed += take;
                if (run_consumed == run.length) {
                    pos += sizeof(run) + run.length;
                    run_consumed = 0;
                }
            }
            std::vector<char> msg(sizeof(CtlHeader) + seg.size());
            CtlHeader h{kDiff, std::uint32_t(rank), page, 0,
                        std::uint32_t(seg.size()), 0, 0};
            std::memcpy(msg.data(), &h, sizeof(h));
            std::memcpy(msg.data() + sizeof(h), seg.data(),
                        seg.size());
            sendCtl(rank, home, msg.data(), msg.size());
            ++rs.diffsSentTo[home];
        }
    }
    rs.pendingDiffs.clear();

    // Release completes only when the homes have applied our diffs.
    for (int h = 0; h < cfg.nprocs; ++h) {
        if (rs.diffsSentTo[h] == 0 || h == rank)
            continue;
        std::uint64_t need = rs.diffsSentTo[h];
        if (useNotify) {
            // One ack arrival per diff message applied at home h.
            ep.notifyWait(kNotifyDiffAckBase + std::uint32_t(h), need);
        } else {
            volatile std::uint64_t *ack = &rs.ctl->acks[h];
            ep.waitUntil([ack, need] { return *ack >= need; });
        }
    }
}

void
SvmRuntime::releaseInterval(int rank)
{
    RankState &rs = *ranks[rank];
    if (rs.dirtyList.empty() && rs.pendingDiffs.empty())
        return;

    cluster.node(rank).cpu().sync();
    ScopedCategory cat(cluster.sim(), TimeCategory::Overhead);
    causal::OpSpan span(cluster.sim().recorder(), rank, "svm.release");

    // Capture diffs for still-dirty twinned pages.
    std::vector<PageId> interval_pages;
    for (PageId page : rs.dirtyList) {
        auto &ps = rs.pages[page];
        interval_pages.push_back(page);
        if (ps.dirty && rs.twins[page] && homes[page] != rank &&
            cfg.protocol != Protocol::AURC)
            capturePendingDiff(rank, page);
        ps.dirty = false;
        ps.writable = false;
        rs.twins[page].reset();
    }
    std::sort(interval_pages.begin(), interval_pages.end());
    interval_pages.erase(
        std::unique(interval_pages.begin(), interval_pages.end()),
        interval_pages.end());
    rs.dirtyList.clear();

    // Make the writes visible at the homes.
    if (cfg.protocol == Protocol::HLRC) {
        flushPendingDiffs(rank);
    } else {
        // AURC / HLRC-AU: data travelled by automatic update; fence.
        rs.pendingDiffs.clear();
        cluster.vmmc(rank).auFence();
    }

    if (!interval_pages.empty()) {
        intervalsOf[rank].push_back(
            Interval{std::move(interval_pages)});
        rs.vc[rank] = std::uint32_t(intervalsOf[rank].size());
    }
}

void
SvmRuntime::applyNotices(int rank, const Vc &upto)
{
    RankState &rs = *ranks[rank];
    auto &cpu = cluster.node(rank).cpu();
    bool fenced = false;
    std::uint64_t invalidated = 0;

    for (int n = 0; n < cfg.nprocs; ++n) {
        if (n == rank) {
            continue;
        }
        for (std::uint32_t s = rs.vc[n]; s < upto[n]; ++s) {
            for (PageId page : intervalsOf[n][s].pages) {
                if (homes[page] == rank)
                    continue; // home copies stay current
                auto &ps = rs.pages[page];
                if (!ps.valid)
                    continue;
                if (ps.dirty) {
                    // Preserve our in-progress writes before dropping
                    // the copy (false sharing across sync objects).
                    if (cfg.protocol == Protocol::HLRC) {
                        if (rs.twins[page])
                            capturePendingDiff(rank, page);
                    } else if (!fenced) {
                        cluster.vmmc(rank).auFence();
                        fenced = true;
                    }
                    ps.dirty = false;
                }
                ps.valid = false;
                ps.writable = false;
                rs.twins[page].reset();
                rs.invalidatedNow.push_back(page);
                cpu.compute(cfg.invalidateCost);
                ++invalidated;
            }
        }
    }
    vcMax(rs.vc, upto);
    // Our own counter may only move forward via our own releases.
    rs.vc[rank] = std::uint32_t(intervalsOf[rank].size());

    if (invalidated)
        rs.stInvalidations.inc(invalidated);
}

/**
 * Give back to the host the copies that have stayed invalid since the
 * previous barrier. Runs at a barrier, right after its notices are
 * applied, when the rank has no fetch outstanding: a fetch reply is
 * the only write into an invalid copy. Nothing reads an invalid copy
 * (every access fetches the page first), so a released page's zeroes
 * are never seen. Waiting one interval keeps the copies a rank
 * fetches again right after the barrier that invalidated them.
 * Consecutive pages go back in one call, and no simulated time is
 * charged.
 */
void
SvmRuntime::releaseStaleCopies(int rank)
{
    RankState &rs = *ranks[rank];
    std::vector<PageId> &fresh = rs.invalidatedNow;
    std::sort(fresh.begin(), fresh.end());
    fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
    const std::vector<PageId> &stale = rs.invalidatedBefore;

    // A page that is invalid now and was not invalidated in this
    // interval has stayed invalid for all of it: a fetch would have
    // made it valid, and only a new notice makes it invalid again.
    // Besides the stale pages, that holds for copies released earlier
    // and never touched, so a run may cover those too. Home pages are
    // always valid, so a run never crosses one.
    auto releasable = [&](PageId p) {
        return !rs.pages[p].valid &&
               !std::binary_search(fresh.begin(), fresh.end(), p);
    };

    node::NodeMemory &mem = cluster.node(rank).mem();
    for (std::size_t i = 0; i < stale.size(); ++i) {
        PageId first = stale[i];
        if (!releasable(first))
            continue;
        PageId end = first + 1;
        while (end <= stale.back() && releasable(end))
            ++end;
        while (i + 1 < stale.size() && stale[i + 1] < end)
            ++i;
        mem.release(replicas[rank] + std::size_t(first) * node::kPageBytes,
                    std::size_t(end - first) * node::kPageBytes);
    }

    rs.invalidatedBefore.swap(fresh);
    fresh.clear();
}

// ---------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------

void
SvmRuntime::lock(int rank, int id)
{
    if (id < 0 || id >= cfg.numLocks)
        fatal("lock id %d out of range", id);
    RankState &rs = *ranks[rank];
    core::Endpoint &ep = cluster.vmmc(rank);
    cluster.node(rank).cpu().sync();
    ScopedCategory cat(cluster.sim(), TimeCategory::Lock);
    causal::OpSpan span(cluster.sim().recorder(), rank, "svm.lock");
    rs.lastOp = "lock";
    rs.lastArg = id;
    rs.stLockAcquires.inc();

    int mgr = id % cfg.nprocs;
    if (mgr == rank) {
        cluster.node(rank).cpu().compute(cfg.handlerCost);
        managerLockRequest(mgr, rank, id, rs.vc);
    } else {
        std::vector<char> msg(sizeof(CtlHeader) +
                              std::size_t(cfg.nprocs) * 4);
        CtlHeader h{kLockReq, std::uint32_t(rank), std::uint32_t(id), 0,
                    std::uint32_t(cfg.nprocs * 4), 0, 0};
        std::memcpy(msg.data(), &h, sizeof(h));
        std::memcpy(msg.data() + sizeof(h), rs.vc.data(),
                    std::size_t(cfg.nprocs) * 4);
        sendCtl(rank, mgr, msg.data(), msg.size());
    }

    ep.waitUntil([&rs, id] { return rs.grantFlag.count(id) > 0; });
    rs.grantFlag.erase(id);
    rs.lastOp = "locked";
}

void
SvmRuntime::unlock(int rank, int id)
{
    RankState &rs = *ranks[rank];
    cluster.node(rank).cpu().sync();
    ScopedCategory cat(cluster.sim(), TimeCategory::Lock);
    rs.lastOp = "unlock";
    rs.lastArg = id;

    releaseInterval(rank);

    int mgr = id % cfg.nprocs;
    if (mgr == rank) {
        cluster.node(rank).cpu().compute(cfg.handlerCost);
        managerLockRelease(mgr, id, rs.vc);
        return;
    }

    // The release message carries our vector clock plus descriptors
    // of the intervals we created since our previous release — the
    // steady-state payload of a home-based LRC lock transfer (the
    // manager already knows older history).
    std::size_t desc = 0;
    for (std::uint32_t i = rs.lastRelIdx;
         i < std::uint32_t(intervalsOf[rank].size()); ++i)
        desc += 12 + 4 * intervalsOf[rank][i].pages.size();
    rs.lastRelIdx = std::uint32_t(intervalsOf[rank].size());
    sendCtlWithNotices(rank, mgr, kLockRel, std::uint32_t(id), rs.vc,
                       desc);
}

void
SvmRuntime::managerLockRequest(int mgr, int requester, int lock_id,
                               const Vc &req_vc)
{
    LockState &ls = *locks[lock_id];
    if (!ls.held) {
        ls.held = true;
        ls.holder = requester;
        managerGrant(mgr, lock_id, requester, req_vc);
    } else {
        ls.queue.emplace_back(requester, req_vc);
    }
}

void
SvmRuntime::managerLockRelease(int mgr, int lock_id, const Vc &rel_vc)
{
    LockState &ls = *locks[lock_id];
    vcMax(ls.vc, rel_vc);
    ls.held = false;
    ls.holder = -1;
    if (!ls.queue.empty()) {
        auto [next, req_vc] = std::move(ls.queue.front());
        ls.queue.pop_front();
        ls.held = true;
        ls.holder = next;
        managerGrant(mgr, lock_id, next, req_vc);
    }
}

void
SvmRuntime::managerGrant(int mgr, int lock_id, int to, const Vc &req_vc)
{
    LockState &ls = *locks[lock_id];
    if (to == mgr) {
        // Local grant: apply directly.
        applyNotices(mgr, ls.vc);
        ranks[mgr]->grantFlag[lock_id] = true;
        return;
    }

    // Grant carries the lock's vector clock plus descriptors of the
    // write notices the acquirer is missing.
    std::size_t desc = noticeBytes(req_vc, ls.vc);
    sendCtlWithNotices(mgr, to, kLockGrant, std::uint32_t(lock_id),
                       ls.vc, desc);
}

// ---------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------

void
SvmRuntime::barrier(int rank)
{
    RankState &rs = *ranks[rank];
    core::Endpoint &ep = cluster.vmmc(rank);

    cluster.node(rank).cpu().sync();
    releaseInterval(rank);

    ScopedCategory cat(cluster.sim(), TimeCategory::Barrier);
    causal::OpSpan span(cluster.sim().recorder(), rank, "svm.barrier");
    rs.stBarriers.inc();

    rs.lastOp = "barrier";
    rs.lastArg = int(rs.barrierSeq + 1);
    std::uint64_t epoch = ++rs.barrierSeq;
    if (rank == 0) {
        cluster.node(rank).cpu().compute(cfg.handlerCost);
        managerBarrierArrive(0, 0, epoch, rs.vc);
    } else {
        std::size_t payload = std::size_t(cfg.nprocs) * 4;
        std::vector<char> msg(sizeof(CtlHeader) + payload);
        CtlHeader h{kBarrArrive, std::uint32_t(rank),
                    std::uint32_t(epoch), 0, std::uint32_t(payload), 0,
                    0};
        std::memcpy(msg.data(), &h, sizeof(h));
        std::memcpy(msg.data() + sizeof(h), rs.vc.data(), payload);
        sendCtl(rank, 0, msg.data(), msg.size());
    }

    ep.waitUntil([&rs, epoch] { return rs.barrierDone >= epoch; });
}

void
SvmRuntime::managerBarrierArrive(int mgr, int rank_arrived,
                                 std::uint64_t epoch, const Vc &vc)
{
    (void)rank_arrived;
    (void)epoch;
    vcMax(barrierVc, vc);
    ++barrierArrived;
    if (barrierArrived < cfg.nprocs)
        return;
    barrierArrived = 0;
    ++barrierEpoch;

    // Release everyone with the write notices they are missing.
    for (int r = 1; r < cfg.nprocs; ++r) {
        RankState &rrs = *ranks[r];
        std::size_t desc = noticeBytes(rrs.vc, barrierVc);
        sendCtlWithNotices(mgr, r, kBarrRelease, 0, barrierVc, desc);
    }
    applyNotices(0, barrierVc);
    releaseStaleCopies(0);
    ranks[0]->barrierDone = ranks[0]->barrierSeq;
}

// ---------------------------------------------------------------------
// Messaging
// ---------------------------------------------------------------------

void
SvmRuntime::sendCtlWithNotices(int rank, int to, std::uint32_t kind,
                               std::uint32_t arg0, const Vc &vc,
                               std::size_t notice_bytes)
{
    CtlHeader h{kind, std::uint32_t(rank), arg0, 0, 0, 0, 0};
    // First message: header + vector clock + as many notice bytes as
    // fit in one page; the remainder travels in pad messages the
    // receiver discards (their bytes are what matters on the wire).
    std::size_t vc_bytes = std::size_t(cfg.nprocs) * 4;
    std::size_t first_payload =
        std::min(kMaxCtlPayload, vc_bytes + notice_bytes);
    std::vector<char> msg(sizeof(CtlHeader) + first_payload, 0);
    h.payloadBytes = std::uint32_t(first_payload);
    std::memcpy(msg.data(), &h, sizeof(h));
    std::memcpy(msg.data() + sizeof(h), vc.data(), vc_bytes);
    sendCtl(rank, to, msg.data(), msg.size());

    std::size_t sent = first_payload - vc_bytes;
    while (sent < notice_bytes) {
        std::size_t chunk =
            std::min(kMaxCtlPayload, notice_bytes - sent);
        std::vector<char> pad(sizeof(CtlHeader) + chunk, 0);
        CtlHeader ph{kNoticePad, std::uint32_t(rank), 0, 0,
                     std::uint32_t(chunk), 0, 0};
        std::memcpy(pad.data(), &ph, sizeof(ph));
        sendCtl(rank, to, pad.data(), pad.size());
        sent += chunk;
    }
}

void
SvmRuntime::sendCtl(int rank, int to, const void *msg, std::size_t bytes,
                    core::ProxyId proxy_override)
{
    RankState &rs = *ranks[rank];
    core::Endpoint &ep = cluster.vmmc(rank);
    if (bytes > kMaxCtlBytes)
        panic("control message too large (%zu)", bytes);

    std::size_t aligned = (bytes + 15) / 16 * 16;

    // Claim a slot under flow control: never lap a message the
    // receiver's dispatcher has not yet processed. Claims happen
    // atomically (no yields) once the window is open, so the app
    // fiber and the notification dispatcher can interleave safely.
    std::size_t offset;
    std::uint64_t cursor_after;
    for (;;) {
        std::uint64_t base_cursor = rs.reqCursor[to];
        std::size_t cur = std::size_t(base_cursor % kCtlRegionBytes);
        std::size_t page_off = cur % node::kPageBytes;
        std::size_t skip = 0;
        if (page_off + aligned > node::kPageBytes) {
            // Never cross a page boundary: skip to the next page.
            skip = node::kPageBytes - page_off;
            cur = std::size_t((base_cursor + skip) % kCtlRegionBytes);
        }
        cursor_after = base_cursor + skip + aligned;
        RankState &dest = *ranks[to];
        if (cursor_after - dest.ctlProcessed[rank] <=
            std::uint64_t(kCtlRegionBytes)) {
            rs.reqCursor[to] = cursor_after;
            offset = std::size_t(rank) * kCtlRegionBytes + cur;
            break;
        }
        ep.waitUntil([&rs, &dest, rank, to, aligned] {
            std::uint64_t bc = rs.reqCursor[to];
            // Re-derive worst-case requirement; exact recheck happens
            // in the claim above.
            return bc + node::kPageBytes + aligned -
                       dest.ctlProcessed[rank] <=
                   std::uint64_t(kCtlRegionBytes) + node::kPageBytes;
        });
    }

    // Stamp the post-message cursor into the header copy.
    std::vector<char> stamped(static_cast<const char *>(msg),
                              static_cast<const char *>(msg) + bytes);
    auto *h = reinterpret_cast<CtlHeader *>(stamped.data());
    h->cursorAfter = cursor_after;

    core::ProxyId proxy = proxy_override != core::kInvalidProxy
                              ? proxy_override
                              : rs.reqProxy[to];
    core::Endpoint::SendOptions opts;
    opts.notify = true;
    // Control messages gate protocol progress: on coalescing adapters
    // they are marked solicited so the completion queue drains (and
    // the dispatcher runs) immediately instead of at the next batch.
    opts.urgent = useNotify;
    ep.send(proxy, stamped.data(), bytes, offset, opts);
    rs.stCtlMsgs.inc();
}

void
SvmRuntime::handleCtl(int rank, NodeId src, std::uint32_t offset,
                      std::uint32_t bytes)
{
    RankState &rs = *ranks[rank];
    core::Endpoint &ep = cluster.vmmc(rank);
    auto &cpu = cluster.node(rank).cpu();
    (void)src;
    (void)bytes;

    CtlHeader h;
    std::memcpy(&h, rs.reqBuf + offset, sizeof(h));
    const char *payload = rs.reqBuf + offset + sizeof(h);

    rs.handlerActive = h.kind;
    ++rs.handlersRun;
    // Parented on the requesting packet's context (handleCtl runs
    // from the notification dispatcher under its EventCtxScope).
    causal::OpSpan span(cluster.sim().recorder(), rank, "svm.serve");
    cpu.compute(cfg.handlerCost);
    cpu.sync();

    switch (h.kind) {
      case kPageReq: {
        PageId page = h.arg0;
        int requester = int(h.src);
        // Direct data transfer into the requester's replica, then the
        // stamp (FIFO keeps them ordered).
        char *home_page = replicas[rank] +
                          std::size_t(page) * node::kPageBytes;
        ep.send(rs.heapProxy[requester], home_page, node::kPageBytes,
                std::size_t(page) * node::kPageBytes);
        std::uint64_t stamp = h.arg1;
        core::Endpoint::SendOptions sopts;
        sopts.notifyId = useNotify ? kNotifyFetch : 0;
        ep.send(rs.ctlProxy[requester], &stamp, sizeof(stamp),
                offsetof(RankState::NodeCtl, fetchStamp), sopts);
        break;
      }
      case kDiff: {
        PageId page = h.arg0;
        int releaser = int(h.src);
        char *home_page = replicas[rank] +
                          std::size_t(page) * node::kPageBytes;
        cpu.compute(cfg.applyBaseCost);
        cpu.chargeCopy(2 * h.payloadBytes);
        cpu.sync();
        applyDiffBlob(home_page, payload, h.payloadBytes);
        ++rs.diffsAppliedFrom[releaser];
        std::uint64_t ack = rs.diffsAppliedFrom[releaser];
        core::Endpoint::SendOptions sopts;
        sopts.notifyId =
            useNotify ? kNotifyDiffAckBase + std::uint32_t(rank) : 0;
        ep.send(rs.ctlProxy[releaser], &ack, sizeof(ack),
                offsetof(RankState::NodeCtl, acks) +
                    std::size_t(rank) * sizeof(std::uint64_t), sopts);
        break;
      }
      case kLockReq: {
        Vc req_vc(cfg.nprocs);
        std::memcpy(req_vc.data(), payload,
                    std::size_t(cfg.nprocs) * 4);
        managerLockRequest(rank, int(h.src), int(h.arg0), req_vc);
        break;
      }
      case kLockRel: {
        Vc rel_vc(cfg.nprocs);
        std::memcpy(rel_vc.data(), payload,
                    std::size_t(cfg.nprocs) * 4);
        managerLockRelease(rank, int(h.arg0), rel_vc);
        break;
      }
      case kLockGrant: {
        Vc grant_vc(cfg.nprocs);
        std::memcpy(grant_vc.data(), payload,
                    std::size_t(cfg.nprocs) * 4);
        applyNotices(rank, grant_vc);
        rs.grantFlag[int(h.arg0)] = true;
        break;
      }
      case kBarrArrive: {
        Vc vc(cfg.nprocs);
        std::memcpy(vc.data(), payload, std::size_t(cfg.nprocs) * 4);
        managerBarrierArrive(rank, int(h.src), h.arg0, vc);
        break;
      }
      case kBarrRelease: {
        Vc vc(cfg.nprocs);
        std::memcpy(vc.data(), payload, std::size_t(cfg.nprocs) * 4);
        applyNotices(rank, vc);
        releaseStaleCopies(rank);
        rs.barrierDone = rs.barrierSeq;
        break;
      }
      case kNoticePad:
        // Overflow bytes of a notice payload; content already applied.
        break;
      default:
        panic("bad control message kind %u", h.kind);
    }

    // Flow-control watermark: this slot (and everything before it
    // from this sender) may now be reused.
    int sender = int(h.src);
    if (h.cursorAfter > rs.ctlProcessed[sender])
        rs.ctlProcessed[sender] = h.cursorAfter;
    rs.handlerActive = 0;
}

} // namespace shrimp::svm

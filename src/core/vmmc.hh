/**
 * @file
 * Virtual Memory-Mapped Communication — the paper's core contribution
 * (Sec 2.2/2.3).
 *
 * A process *exports* a receive buffer (contiguous, page-pinned
 * memory) with permissions; peers *import* it, obtaining a proxy with
 * one outgoing-page-table entry per page. Data moves by *deliberate
 * update* (explicit user-level DMA transfers that may not cross page
 * boundaries) or by *automatic update* (page-aligned bindings under
 * which local writes propagate as a side effect). Receivers poll, or
 * enable *notifications* — signal-like user-level upcalls triggered by
 * a per-page interrupt bit.
 */

#ifndef SHRIMP_CORE_VMMC_HH
#define SHRIMP_CORE_VMMC_HH

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "core/cluster.hh"
#include "nic/nic_base.hh"
#include "node/node.hh"

namespace shrimp::core
{

/** Identifies an exported receive buffer on its owning node. */
using ExportId = std::uint32_t;

/** Identifies an imported proxy buffer on the importing node. */
using ProxyId = std::uint32_t;

/** Invalid ids. */
inline constexpr ExportId kInvalidExport = ~ExportId(0);
inline constexpr ProxyId kInvalidProxy = ~ProxyId(0);

/**
 * User-level notification handler: invoked (on the node's dispatcher
 * process, signal-like) when a message with the interrupt-request bit
 * lands in a notification-enabled buffer.
 */
using NotificationHandler = std::function<void(
    NodeId src_node, std::uint32_t offset, std::uint32_t bytes)>;

/**
 * Import permissions attached to an export (Sec 2.2: "a process
 * exports the buffer together with a set of permissions").
 */
struct ExportPermissions
{
    /** Open to every node (the default). */
    static ExportPermissions
    any()
    {
        return ExportPermissions{};
    }

    /** Restricted to an explicit set of importer nodes. */
    static ExportPermissions
    only(std::initializer_list<NodeId> nodes)
    {
        ExportPermissions p;
        p.restricted = true;
        p.allowed.assign(nodes.begin(), nodes.end());
        return p;
    }

    /** @return whether @p node may import. */
    bool
    permits(NodeId node) const
    {
        if (!restricted)
            return true;
        for (NodeId n : allowed)
            if (n == node)
                return true;
        return false;
    }

    bool restricted = false;
    std::vector<NodeId> allowed;
};

/**
 * An exported receive buffer.
 */
struct ExportRecord
{
    NodeId owner = kInvalidNode;
    ExportId id = kInvalidExport;
    char *base = nullptr;               //!< page-aligned arena memory
    std::size_t bytes = 0;
    node::Frame baseFrame = node::kInvalidFrame;
    std::size_t pages = 0;
    bool notifications = false;
    bool live = true; //!< cleared by unexport; imports go stale
    NotificationHandler handler;
    ExportPermissions permissions;
};

/**
 * The per-node VMMC library + system layer.
 */
class Endpoint
{
  public:
    /** Built by Cluster; not user-constructed. */
    Endpoint(Cluster &cluster, node::Node &n, nic::NicBase &nic);

    node::Node &node() { return _node; }
    nic::NicBase &nic() { return _nic; }
    Cluster &cluster() { return _cluster; }

    // ------------------------------------------------------------------
    // Export / import
    // ------------------------------------------------------------------

    /**
     * Export @p bytes at @p base as a receive buffer, optionally
     * restricted to a set of importer nodes.
     *
     * @p base must be page-aligned memory in this node's arena. Pages
     * are pinned (cost charged). Process context.
     */
    ExportId exportBuffer(void *base, std::size_t bytes,
                          ExportPermissions permissions =
                              ExportPermissions::any());

    /**
     * Enable notifications on an exported buffer: arriving messages
     * whose sender set the interrupt-request bit invoke @p handler.
     */
    void enableNotifications(ExportId id, NotificationHandler handler);

    /** Block notification delivery for this process (all buffers). */
    void blockNotifications() { _node.os().blockNotifications(); }

    /** Resume notification delivery. */
    void unblockNotifications() { _node.os().unblockNotifications(); }

    /**
     * Import buffer @p id exported by @p owner, creating a local
     * proxy receive buffer. Process context.
     */
    ProxyId import(NodeId owner, ExportId id);

    /** Size in bytes of an imported buffer. */
    std::size_t importSize(ProxyId p) const;

    /**
     * Withdraw an export: unpin its pages, disable notifications, and
     * mark every existing import of it stale — a later send through
     * such a proxy faults instead of writing freed memory. The id is
     * not reused. Process context (kernel unpinning work is charged).
     */
    void unexport(ExportId id);

    /**
     * Tear down an import: invalidate its OPT entries so transfers
     * through the proxy fault. The proxy id is not reused.
     */
    void unimport(ProxyId p);

    // ------------------------------------------------------------------
    // Deliberate update
    // ------------------------------------------------------------------

    /** Per-message options of a send (see the struct members). */
    struct SendOptions
    {
        /** Request a receiver notification on the final packet. */
        bool notify = false;

        /**
         * Solicited event (caps().batchedNotify adapters): the
         * notification bypasses interrupt coalescing.
         */
        bool urgent = false;

        /**
         * Notifiable-write id (caps().batchedNotify adapters): the
         * final packet bumps the receiver's per-id arrival counter
         * that notifyWait() blocks on. 0 = none.
         */
        std::uint32_t notifyId = 0;
    };

    /**
     * Transfer @p bytes from local memory @p src into the imported
     * buffer @p proxy at @p dst_offset. One VMMC message; split into
     * page-bounded hardware transfers. Asynchronous: returns once the
     * transfers are accepted by the NI. Process context.
     *
     * @param notify Set the interrupt-request bit on the final packet.
     */
    void
    send(ProxyId proxy, const void *src, std::size_t bytes,
         std::size_t dst_offset, bool notify = false)
    {
        SendOptions opts;
        opts.notify = notify;
        send(proxy, src, bytes, dst_offset, opts);
    }

    /** Send with the full option set. */
    void send(ProxyId proxy, const void *src, std::size_t bytes,
              std::size_t dst_offset, const SendOptions &opts);

    /** Block until all accepted sends have left the adapter. */
    void drainSends() { _nic.drainSends(); }

    // ------------------------------------------------------------------
    // Automatic update
    // ------------------------------------------------------------------

    /** What the adapter can do (pick mechanisms from these bits). */
    nic::NicCaps nicCaps() const { return _nic.caps(); }

    /** @return whether the adapter supports automatic update. */
    bool auSupported() const { return _nic.supportsAutomaticUpdate(); }

    /**
     * Bind local memory to an imported buffer for automatic update.
     * Both sides must be page-aligned; @p bytes is rounded up to
     * whole pages (implementation restriction, Sec 2.2).
     *
     * @param local_base Page-aligned arena memory on this node.
     * @param proxy Imported destination buffer.
     * @param dst_offset Page-aligned offset into the destination.
     * @param bytes Length of the binding.
     * @param combining Enable AU combining on these pages.
     * @param notify Request receiver notifications for AU packets.
     */
    void bindAu(void *local_base, ProxyId proxy, std::size_t dst_offset,
                std::size_t bytes, bool combining = true,
                bool notify = false);

    /** Remove AU bindings for [local_base, local_base+bytes). */
    void unbindAu(void *local_base, std::size_t bytes);

    /**
     * Write through an AU binding: updates local memory and lets the
     * NI snoop the stores. Process context.
     */
    void
    auWriteBlock(void *dst, const void *src, std::size_t bytes)
    {
        std::memcpy(dst, src, bytes);
        _node.cpu().compute(transferTime(
            bytes, _node.params().writeThroughBytesPerSec));
        // The snoop path sees one store run per page.
        char *d = static_cast<char *>(dst);
        std::size_t remaining = bytes;
        while (remaining > 0) {
            std::uint32_t page_off =
                node::pageOffset(_node.mem().offsetOf(d));
            std::size_t chunk = std::min<std::size_t>(
                remaining, node::kPageBytes - page_off);
            _nic.auStore(d, std::uint32_t(chunk));
            d += chunk;
            remaining -= chunk;
        }
    }

    /** Typed single-value AU write. */
    template <typename T>
    void
    auWrite(T *dst, T value)
    {
        auWriteBlock(dst, &value, sizeof(T));
    }

    /** Flush open AU packet trains (an NI-visible ordering point). */
    void auFlush() { _nic.auFlush(); }

    /**
     * Flush and wait until every automatic update issued by this node
     * has been applied remotely (release-side ordering for SVM).
     */
    void auFence() { _nic.auFence(); }

    // ------------------------------------------------------------------
    // Receiving
    // ------------------------------------------------------------------

    /**
     * Poll until @p cond becomes true. Charges a per-check poll cost
     * and sleeps between deliveries to this node. Process context.
     *
     * The first check runs in the process; every poll after it runs
     * in event context and the process resumes only when @p cond
     * holds, so @p cond must be a pure read of simulation state and
     * must not rely on Simulation::current().
     */
    void waitUntil(const std::function<bool()> &cond);

    /** Monotone count of deliveries to this node. */
    std::uint64_t deliveries() const { return _deliveries; }

    /**
     * Arrival count of notifiable writes carrying @p id, and the
     * user-level wait on it (caps().batchedNotify adapters only; see
     * NicBase::notifyWait).
     */
    std::uint64_t
    notifyCount(std::uint32_t id) const
    {
        return _nic.notifyCount(id);
    }

    /** Block until notifyCount(@p id) >= @p target. Process context. */
    void
    notifyWait(std::uint32_t id, std::uint64_t target)
    {
        // Close out pending compute time before blocking, like
        // waitUntil() does for the polling path.
        _node.cpu().sync();
        _nic.notifyWait(id, target);
    }

    /**
     * Make pending computation visible and flush AU trains — call
     * before releasing data written with plain stores + AU.
     */
    void
    sync()
    {
        _nic.auFlush();
        _node.cpu().sync();
    }

  private:
    friend class Cluster;

    /**
     * A parked waitUntil(): polling, or waiting for the next delivery.
     * It lives on the waiting process's stack, which stays suspended
     * until the predicate holds.
     */
    struct Poller
    {
        const std::function<bool()> *cond = nullptr;
        Process *proc = nullptr; //!< cleared when it resumes
        std::uint64_t seen = 0;  //!< _deliveries at the last check
    };

    void onDeliver(const nic::Delivery &d);

    /**
     * Schedule a pollCheck for every parked poller, in parking order,
     * each where wake() would have scheduled that process's resume.
     */
    void wakePollers();

    /** Charge one poll's CPU cost; pollTimed runs when it ends. */
    void poll(Poller &w);

    /** Re-check @p w's predicate, then resume it or poll again. */
    void pollCheck(Poller &w);

    /** After a poll's cost: park @p w again unless a delivery came. */
    void pollTimed(Poller &w);

    Cluster &_cluster;
    node::Node &_node;
    nic::NicBase &_nic;

    // Interned per-endpoint statistics (lazy; see sim/stats.hh).
    CounterHandle stExports;
    CounterHandle stUnexports;
    CounterHandle stUnimports;
    CounterHandle stMessages;
    CounterHandle stMessageBytes;
    CounterHandle stAuBindings;
    CounterHandle stNotifications;

    struct Import
    {
        ExportRecord *record = nullptr;
        /** OPT entry of page 0; page i is firstProxy + i. */
        nic::OptIndex firstProxy = nic::kInvalidOpt;
        bool live = true; //!< cleared by unimport
    };

    std::vector<Import> imports;
    std::map<node::Frame, ExportRecord *> exportsByFrame;
    std::vector<std::unique_ptr<ExportRecord>> exports;
    std::deque<Poller *> pollers; //!< parked waitUntil()s, FIFO
    std::uint64_t _deliveries = 0;
};

/**
 * RAII owner of an export: unexports on destruction. Move-only, so a
 * buffer's lifetime follows the handle like any other resource.
 */
class ExportHandle
{
  public:
    ExportHandle() = default;

    /** Export @p bytes at @p base on @p ep (see exportBuffer). */
    ExportHandle(Endpoint &ep, void *base, std::size_t bytes,
                 ExportPermissions permissions = ExportPermissions::any())
        : ep(&ep),
          _id(ep.exportBuffer(base, bytes, std::move(permissions)))
    {
    }

    ~ExportHandle() { reset(); }

    ExportHandle(ExportHandle &&other) noexcept
        : ep(other.ep), _id(other._id)
    {
        other.ep = nullptr;
        other._id = kInvalidExport;
    }

    ExportHandle &
    operator=(ExportHandle &&other) noexcept
    {
        if (this != &other) {
            reset();
            ep = other.ep;
            _id = other._id;
            other.ep = nullptr;
            other._id = kInvalidExport;
        }
        return *this;
    }

    ExportHandle(const ExportHandle &) = delete;
    ExportHandle &operator=(const ExportHandle &) = delete;

    /** The underlying export id (valid while the handle owns one). */
    ExportId id() const { return _id; }

    explicit operator bool() const { return _id != kInvalidExport; }

    /** Give up ownership without unexporting. */
    ExportId
    release()
    {
        ExportId i = _id;
        ep = nullptr;
        _id = kInvalidExport;
        return i;
    }

    /** Unexport now (no-op on an empty handle). */
    void
    reset()
    {
        if (ep && _id != kInvalidExport)
            ep->unexport(_id);
        ep = nullptr;
        _id = kInvalidExport;
    }

  private:
    Endpoint *ep = nullptr;
    ExportId _id = kInvalidExport;
};

/**
 * RAII owner of an import: unimports on destruction. Move-only.
 */
class ImportHandle
{
  public:
    ImportHandle() = default;

    /** Import export @p id of node @p owner on @p ep (see import). */
    ImportHandle(Endpoint &ep, NodeId owner, ExportId id)
        : ep(&ep), _id(ep.import(owner, id))
    {
    }

    ~ImportHandle() { reset(); }

    ImportHandle(ImportHandle &&other) noexcept
        : ep(other.ep), _id(other._id)
    {
        other.ep = nullptr;
        other._id = kInvalidProxy;
    }

    ImportHandle &
    operator=(ImportHandle &&other) noexcept
    {
        if (this != &other) {
            reset();
            ep = other.ep;
            _id = other._id;
            other.ep = nullptr;
            other._id = kInvalidProxy;
        }
        return *this;
    }

    ImportHandle(const ImportHandle &) = delete;
    ImportHandle &operator=(const ImportHandle &) = delete;

    /** The underlying proxy id (valid while the handle owns one). */
    ProxyId id() const { return _id; }

    explicit operator bool() const { return _id != kInvalidProxy; }

    /** Give up ownership without unimporting. */
    ProxyId
    release()
    {
        ProxyId i = _id;
        ep = nullptr;
        _id = kInvalidProxy;
        return i;
    }

    /** Unimport now (no-op on an empty handle). */
    void
    reset()
    {
        if (ep && _id != kInvalidProxy)
            ep->unimport(_id);
        ep = nullptr;
        _id = kInvalidProxy;
    }

  private:
    Endpoint *ep = nullptr;
    ProxyId _id = kInvalidProxy;
};

} // namespace shrimp::core

#endif // SHRIMP_CORE_VMMC_HH

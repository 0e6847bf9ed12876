/**
 * @file
 * A small all-pairs mailbox on raw VMMC: one slot per (sender,
 * receiver) pair, written by deliberate update and stamped by the
 * message's last write (FIFO delivery makes the stamp an arrival
 * marker). The stamp is the header's first word, so a message of up
 * to a page minus the header touches one inbox page. The native-VMMC
 * applications use it for control exchanges (histograms, offsets,
 * gathered key runs) the way the paper's VMMC ports managed their own
 * receive buffers.
 */

#ifndef SHRIMP_APPS_MAILBOX_HH
#define SHRIMP_APPS_MAILBOX_HH

#include <cstdint>
#include <vector>

#include "core/vmmc.hh"

namespace shrimp::apps
{

/**
 * All-pairs single-slot mailboxes. Alternate send/recv per pair;
 * a second send to the same peer before its recv would overwrite.
 */
class Mailbox
{
  public:
    /**
     * @param cluster The cluster.
     * @param nprocs Participating ranks (on nodes 0..n-1).
     * @param slot_bytes Max payload per message.
     */
    Mailbox(core::Cluster &cluster, int nprocs, std::size_t slot_bytes)
        : cluster(cluster), nprocs(nprocs),
          slotBytes((slot_bytes + 15) / 16 * 16),
          setup(nprocs), state(nprocs)
    {
    }

    /** Per-rank setup; call from each rank's process before use. */
    void
    init(int rank)
    {
        core::Endpoint &ep = cluster.vmmc(rank);
        auto &mem = ep.node().mem();
        PerRank &r = state[rank];

        std::size_t stride = slotStride();
        r.inbox = static_cast<char *>(
            mem.alloc(stride * std::size_t(nprocs), true));
        r.exp = ep.exportBuffer(r.inbox, stride * std::size_t(nprocs));
        setup.arriveAndWait(ep.node().simulation());

        r.proxy.assign(nprocs, core::kInvalidProxy);
        r.sendSeq.assign(nprocs, 0);
        r.recvSeq.assign(nprocs, 0);
        for (int peer = 0; peer < nprocs; ++peer) {
            if (peer != rank)
                r.proxy[peer] =
                    ep.import(NodeId(peer), state[peer].exp);
        }
    }

    /**
     * Send @p bytes to @p to's slot for this rank. Blocking until
     * accepted by the NI.
     */
    void
    send(int rank, int to, const void *data, std::size_t bytes)
    {
        if (bytes > slotBytes)
            fatal("Mailbox: message of %zu bytes exceeds slot", bytes);
        PerRank &r = state[rank];
        core::Endpoint &ep = cluster.vmmc(rank);
        std::size_t base = slotStride() * std::size_t(rank);

        // The header carries the previous stamp, so it cannot signal
        // before the payload lands; the last write sets the new one.
        Header h{r.sendSeq[to], std::uint64_t(bytes)};
        ep.send(r.proxy[to], &h, sizeof(h), base);
        if (bytes > 0)
            ep.send(r.proxy[to], data, bytes, base + sizeof(Header));
        std::uint64_t stamp = ++r.sendSeq[to];
        ep.send(r.proxy[to], &stamp, sizeof(stamp), base);
    }

    /**
     * Wait for the next message from @p from; @return pointer to the
     * payload (valid until the peer's next send) and its size.
     */
    const void *
    recv(int rank, int from, std::size_t *bytes_out)
    {
        PerRank &r = state[rank];
        core::Endpoint &ep = cluster.vmmc(rank);
        std::size_t base = slotStride() * std::size_t(from);
        std::uint64_t want = ++r.recvSeq[from];

        volatile std::uint64_t *stamp =
            reinterpret_cast<volatile std::uint64_t *>(r.inbox + base);
        ep.waitUntil([stamp, want] { return *stamp >= want; });

        const Header *h =
            reinterpret_cast<const Header *>(r.inbox + base);
        if (bytes_out)
            *bytes_out = std::size_t(h->bytes);
        return r.inbox + base + sizeof(Header);
    }

    /** Payload capacity per message. */
    std::size_t capacity() const { return slotBytes; }

  private:
    struct Header
    {
        std::uint64_t stamp;
        std::uint64_t bytes;
    };

    std::size_t
    slotStride() const
    {
        // header + payload, page aligned.
        std::size_t raw = sizeof(Header) + slotBytes;
        return (raw + node::kPageBytes - 1) / node::kPageBytes *
               node::kPageBytes;
    }

    struct PerRank
    {
        char *inbox = nullptr;
        core::ExportId exp = core::kInvalidExport;
        std::vector<core::ProxyId> proxy;
        std::vector<std::uint64_t> sendSeq;
        std::vector<std::uint64_t> recvSeq;
    };

    core::Cluster &cluster;
    int nprocs;
    std::size_t slotBytes;
    Rendezvous setup; //!< every inbox is exported
    std::vector<PerRank> state;
};

} // namespace shrimp::apps

#endif // SHRIMP_APPS_MAILBOX_HH

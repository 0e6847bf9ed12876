/**
 * @file
 * The network interface's outgoing and incoming page tables.
 *
 * The OPT translates local sources to remote physical pages: imported
 * proxy pages get explicitly allocated entries (used by deliberate
 * update), and automatic update uses the one-to-one correspondence
 * between local physical pages and OPT entries (Sec 2.3). An import
 * maps one contiguous export, so the host stores its entries as one
 * range of consecutive indices.
 *
 * The IPT holds per-destination-page receive state, most importantly
 * the receiver-controlled interrupt-enable bit used by notifications.
 */

#ifndef SHRIMP_NIC_PAGE_TABLES_HH
#define SHRIMP_NIC_PAGE_TABLES_HH

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "node/memory.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace shrimp::nic
{

/** Index of an explicitly allocated OPT entry (proxy page). */
using OptIndex = std::uint32_t;

/** An invalid OPT index. */
inline constexpr OptIndex kInvalidOpt = ~OptIndex(0);

/**
 * One outgoing mapping: where writes/transfers through this entry go.
 */
struct OptEntry
{
    NodeId dstNode = kInvalidNode;
    node::Frame dstFrame = node::kInvalidFrame;
    bool auEnabled = false;        //!< automatic update on this page
    bool combining = false;        //!< AU combining enabled
    bool interruptRequest = false; //!< AU packets request an interrupt
};

/**
 * Outgoing page table.
 */
class OutgoingPageTable
{
  public:
    /**
     * Allocate entries for an imported proxy buffer: @p pages
     * consecutive indices, the i-th mapping (@p dst_node,
     * @p first_frame + i). @return the first index.
     */
    OptIndex
    allocate(NodeId dst_node, node::Frame first_frame, std::size_t pages)
    {
        OptIndex first = OptIndex(proxyCount());
        if (pages > kInvalidOpt - first)
            panic("OPT proxy indices exhausted (%u + %zu)", first, pages);
        proxyRanges.push_back(
            ProxyRange{first, OptIndex(pages), dst_node, first_frame});
        return first;
    }

    /** Look up a proxy entry; transfers through dead entries fault. */
    OptEntry
    proxy(OptIndex idx) const
    {
        if (idx >= proxyCount())
            panic("OPT proxy index %u out of range", idx);
        const ProxyRange &r = proxyRanges[rangeOf(idx)];
        if (!r.valid)
            fatal("OPT proxy entry %u is stale (unimported or "
                  "unexported buffer)", idx);
        return OptEntry{r.dstNode, r.firstFrame + (idx - r.first)};
    }

    /**
     * Invalidate the import that owns entry @p idx, every page of it,
     * when the import (or the underlying export) is torn down.
     * Indices are never reused, so stale sends hit the dead entry
     * instead of someone else's memory.
     */
    void
    invalidate(OptIndex idx)
    {
        if (idx >= proxyCount())
            panic("OPT invalidate: index %u out of range", idx);
        proxyRanges[rangeOf(idx)].valid = false;
    }

    /**
     * Configure the entry corresponding to local physical page
     * @p local for automatic update (the 1:1 physical-page binding).
     */
    void
    bindAu(node::Frame local, NodeId dst_node, node::Frame dst_frame,
           bool combining, bool interrupt_request)
    {
        if (local >= auBindings.size())
            auBindings.resize(std::size_t(local) + 1);
        OptEntry &e = auBindings[local];
        if (!e.auEnabled)
            ++liveAuBindings;
        e = OptEntry{dst_node, dst_frame, true, combining,
                     interrupt_request};
    }

    /** Disable automatic update on local page @p local. */
    void
    unbindAu(node::Frame local)
    {
        if (local < auBindings.size() && auBindings[local].auEnabled) {
            auBindings[local] = OptEntry{};
            --liveAuBindings;
        }
    }

    /**
     * @return the AU binding for local page @p local, or nullptr when
     * writes to the page are snooped but ignored.
     */
    const OptEntry *
    auBinding(node::Frame local) const
    {
        return local < auBindings.size() && auBindings[local].auEnabled
                   ? &auBindings[local]
                   : nullptr;
    }

    /** Number of live AU bindings. */
    std::size_t auBindingCount() const { return liveAuBindings; }

    /** Number of allocated proxy entries. */
    std::size_t
    proxyCount() const
    {
        return proxyRanges.empty()
                   ? 0
                   : std::size_t(proxyRanges.back().first) +
                         proxyRanges.back().pages;
    }

  private:
    /** The entries of one import, in index order. */
    struct ProxyRange
    {
        OptIndex first = 0;   //!< index of the first page
        OptIndex pages = 0;   //!< consecutive indices it owns
        NodeId dstNode = kInvalidNode;
        node::Frame firstFrame = node::kInvalidFrame; //!< of @c first
        bool valid = true;    //!< cleared when the import is torn down
    };

    /** Position of the range holding @p idx (< proxyCount()). */
    std::size_t
    rangeOf(OptIndex idx) const
    {
        auto it = std::upper_bound(
            proxyRanges.begin(), proxyRanges.end(), idx,
            [](OptIndex i, const ProxyRange &r) { return i < r.first; });
        return std::size_t(it - proxyRanges.begin()) - 1;
    }

    std::vector<ProxyRange> proxyRanges;

    /**
     * AU entries indexed by local frame, auEnabled marking the live
     * ones: the snoop path looks one up per store. Sized to the
     * highest frame bound so far, so a DU-only node holds none.
     */
    std::vector<OptEntry> auBindings;
    std::size_t liveAuBindings = 0;
};

/**
 * Incoming page table.
 */
class IncomingPageTable
{
  public:
    /** Set the receiver-side interrupt-enable bit for @p frame. */
    void
    setInterruptEnable(node::Frame frame, bool enable)
    {
        if (enable)
            interruptEnabled.insert(frame);
        else
            interruptEnabled.erase(frame);
    }

    /** @return the receiver-side interrupt-enable bit for @p frame. */
    bool
    interruptEnable(node::Frame frame) const
    {
        return interruptEnabled.count(frame) > 0;
    }

  private:
    std::unordered_set<node::Frame> interruptEnabled;
};

} // namespace shrimp::nic

#endif // SHRIMP_NIC_PAGE_TABLES_HH

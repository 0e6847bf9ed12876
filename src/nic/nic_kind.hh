/**
 * @file
 * NIC kind enumeration, the capability surface upper layers program
 * against, and the one shared spelling of `--nic` / SHRIMP_NIC
 * parsing used by tools, benches and tests.
 */

#ifndef SHRIMP_NIC_NIC_KIND_HH
#define SHRIMP_NIC_NIC_KIND_HH

#include <string_view>

namespace shrimp::nic
{

/** Which network interface a cluster is built with. */
enum class NicKind
{
    Shrimp,   //!< the custom SHRIMP NI (UDMA + automatic update)
    Baseline, //!< Myrinet-style firmware-mediated adapter (Sec 4.1)
    Modern,   //!< RDMA-style NIC: doorbells, CQs, notifiable writes
};

/**
 * What an adapter can do, as queried by VMMC, SVM, sockets and NX.
 * The library layers pick mechanisms from these bits instead of
 * switching on the concrete NIC type.
 */
struct NicCaps
{
    /** Memory-bus snooping: AU bindings and write-through update. */
    bool autoUpdate = false;

    /**
     * Posting a send is a cheap user-level doorbell write; the
     * adapter drains asynchronously from a deep queue.
     */
    bool doorbell = false;

    /**
     * Receiver-side completion queue with interrupt coalescing plus
     * notifiable remote writes: a send may carry a notification id
     * whose per-id arrival count the receiver can wait on without
     * taking an interrupt (NicBase::notifyWait).
     */
    bool batchedNotify = false;
};

/** Printable kind name ("shrimp" | "baseline" | "modern"). */
const char *nicKindName(NicKind kind);

/**
 * Parse a kind name as spelled on command lines and in SHRIMP_NIC.
 * @return false (leaving @p out untouched) on an unknown name.
 */
bool parseNicKind(std::string_view name, NicKind &out);

/**
 * Capability table by kind: what a cluster built with @p kind will
 * report from NicBase::caps(). Lets benches pick app variants (AU vs
 * DU, SVM protocol) before constructing a cluster.
 */
NicCaps nicKindCaps(NicKind kind);

} // namespace shrimp::nic

#endif // SHRIMP_NIC_NIC_KIND_HH

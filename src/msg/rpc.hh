/**
 * @file
 * Remote procedure call on VMMC (Sec 3, [7]): the paper's application
 * suite includes both a Sun-RPC-compatible library and a specialized
 * fast-RPC library built directly on virtual memory-mapped
 * communication (Bilas & Felten).
 *
 * The fast path follows the SHRIMP RPC design: each client thread
 * imports a per-server argument buffer and exports a reply buffer;
 * a call is one deliberate-update transfer of the marshalled
 * arguments plus a sequence stamp, and the reply comes back the same
 * way — two messages, no kernel, polling at both ends by default or
 * notification-driven dispatch at the server when requested.
 */

#ifndef SHRIMP_MSG_RPC_HH
#define SHRIMP_MSG_RPC_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/vmmc.hh"

namespace shrimp::msg
{

/** Configuration of an RPC domain. */
struct RpcConfig
{
    /** Maximum marshalled argument/reply size. */
    std::size_t maxPayloadBytes = 16 * 1024;

    /**
     * Server dispatch style: polling (the fast specialized library)
     * or notification-driven (the Sun-RPC-compatible layer, which
     * must coexist with an application that does other work).
     */
    bool notificationDispatch = false;

    /** Per-call marshalling cost model (Sun-RPC XDR vs fast path). */
    Tick marshalCost = microseconds(4.0);
};

/**
 * An RPC service handler: receives the request bytes, returns the
 * reply bytes.
 */
using RpcHandler = std::function<std::vector<char>(
    NodeId client, const void *args, std::size_t bytes)>;

/**
 * One RPC domain: servers register procedures; clients bind and call.
 *
 * Servers run their dispatch loop via serve() (polling mode) or
 * implicitly through notifications. All calls happen from node
 * processes.
 */
class RpcDomain
{
  public:
    RpcDomain(core::Cluster &cluster,
              const RpcConfig &config = RpcConfig());
    ~RpcDomain();

    /**
     * Register procedure @p proc at @p server_rank. Call before
     * binding clients. Model-level registry; the transport below is
     * fully simulated.
     */
    void registerProcedure(int server_rank, std::uint32_t proc,
                           RpcHandler handler);

    /**
     * Server setup: export the request area. Call once from the
     * server's process before clients bind.
     */
    void initServer(int server_rank);

    /**
     * Polling dispatch loop: serve until @p calls requests have been
     * handled. (Notification mode needs no loop.)
     */
    void serve(int server_rank, std::uint64_t calls);

    /** A bound client handle. */
    class Client
    {
      public:
        /**
         * Synchronous call: marshal, send, wait for the reply. The
         * wait is charged to Communication. @return the reply bytes.
         */
        std::vector<char> call(std::uint32_t proc, const void *args,
                               std::size_t bytes);

        /** Typed convenience: POD request/reply. */
        template <typename Reply, typename Args>
        Reply
        callTyped(std::uint32_t proc, const Args &args)
        {
            auto bytes = call(proc, &args, sizeof(Args));
            if (bytes.size() != sizeof(Reply))
                fatal("rpc: reply size mismatch");
            Reply r;
            std::memcpy(&r, bytes.data(), sizeof(Reply));
            return r;
        }

      private:
        friend class RpcDomain;
        RpcDomain *dom = nullptr;
        int rank = -1;
        int server = -1;
        int slot = -1; //!< per-client request slot at the server
        core::ProxyId reqProxy = core::kInvalidProxy;
        /** Server-side proxy for this client's reply buffer. */
        core::ProxyId serverReplyProxy = core::kInvalidProxy;
        char *replyBuf = nullptr;
        std::uint32_t seq = 0;
    };

    /**
     * Bind a client on @p client_rank to @p server_rank. Call from
     * the client's process after the server initialised.
     */
    Client *bind(int client_rank, int server_rank);

    /** Calls served so far by @p server_rank. */
    std::uint64_t served(int server_rank) const;

  private:
    struct ServerState;

    void dispatchSlot(int server_rank, int slot);

    core::Cluster &cluster;
    RpcConfig cfg;
    std::vector<std::unique_ptr<ServerState>> servers;
    std::vector<std::unique_ptr<Client>> clients;
};

} // namespace shrimp::msg

#endif // SHRIMP_MSG_RPC_HH

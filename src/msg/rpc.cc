#include "msg/rpc.hh"

#include <cstring>

#include "sim/logging.hh"
#include "sim/recorder.hh"

namespace shrimp::msg
{

namespace
{

/** Request slot framing: header, payload, trailing stamp. */
struct CallHeader
{
    std::uint32_t seq;
    std::uint32_t proc;
    std::uint32_t bytes;
    std::uint32_t client;
};

struct CallTrailer
{
    std::uint32_t seq;
    std::uint32_t pad;
};

/** Reply framing mirrors the request. */
struct ReplyHeader
{
    std::uint32_t seq;
    std::uint32_t bytes;
};

} // anonymous namespace

struct RpcDomain::ServerState
{
    int rank = -1;
    bool ready = false;
    char *reqArea = nullptr;                //!< one slot per client
    core::ExportId reqExp = core::kInvalidExport;
    std::map<std::uint32_t, RpcHandler> procedures;
    std::vector<Client *> slots;            //!< slot -> client
    std::vector<std::uint32_t> lastServed;  //!< per-slot seq served
    std::uint64_t servedCalls = 0;
    std::size_t slotStride = 0;
};

RpcDomain::RpcDomain(core::Cluster &cluster, const RpcConfig &config)
    : cluster(cluster), cfg(config)
{
    servers.resize(cluster.nodeCount());
}

RpcDomain::~RpcDomain() = default;

void
RpcDomain::registerProcedure(int server_rank, std::uint32_t proc,
                             RpcHandler handler)
{
    if (!servers[server_rank])
        servers[server_rank] = std::make_unique<ServerState>();
    servers[server_rank]->procedures[proc] = std::move(handler);
}

void
RpcDomain::initServer(int server_rank)
{
    if (!servers[server_rank])
        servers[server_rank] = std::make_unique<ServerState>();
    ServerState &s = *servers[server_rank];
    s.rank = server_rank;

    core::Endpoint &ep = cluster.vmmc(server_rank);
    auto &mem = ep.node().mem();

    // Slot stride: framing + payload, page aligned so a slot never
    // crosses another slot's pages.
    s.slotStride = (sizeof(CallHeader) + cfg.maxPayloadBytes +
                    sizeof(CallTrailer) + node::kPageBytes - 1) /
                   node::kPageBytes * node::kPageBytes;
    const int max_clients = cluster.nodeCount() * 2;
    std::size_t bytes = s.slotStride * std::size_t(max_clients);
    s.reqArea = static_cast<char *>(mem.alloc(bytes, true));
    s.reqExp = ep.exportBuffer(s.reqArea, bytes);
    s.slots.assign(max_clients, nullptr);
    s.lastServed.assign(max_clients, 0);

    if (cfg.notificationDispatch) {
        ep.enableNotifications(
            s.reqExp, [this, server_rank](NodeId, std::uint32_t offset,
                                          std::uint32_t) {
                ServerState &ss = *servers[server_rank];
                dispatchSlot(server_rank,
                             int(offset / ss.slotStride));
            });
    }
    s.ready = true;
}

RpcDomain::Client *
RpcDomain::bind(int client_rank, int server_rank)
{
    Simulation &sim = cluster.sim();
    while (!servers[server_rank] || !servers[server_rank]->ready)
        sim.delay(microseconds(20));
    ServerState &s = *servers[server_rank];

    auto c = std::unique_ptr<Client>(new Client());
    Client *raw = c.get();
    clients.push_back(std::move(c));

    raw->dom = this;
    raw->rank = client_rank;
    raw->server = server_rank;
    // Claim a slot.
    raw->slot = -1;
    for (std::size_t i = 0; i < s.slots.size(); ++i) {
        if (!s.slots[i]) {
            s.slots[i] = raw;
            raw->slot = int(i);
            break;
        }
    }
    if (raw->slot < 0)
        fatal("rpc: server %d out of client slots", server_rank);

    core::Endpoint &ep = cluster.vmmc(client_rank);
    raw->reqProxy = ep.import(NodeId(server_rank), s.reqExp);

    // Reply buffer: exported by the client, imported by... the server
    // writes replies by deliberate update through a per-client proxy;
    // model-level shortcut: the server imports on first reply.
    auto &mem = ep.node().mem();
    std::size_t reply_bytes =
        (sizeof(ReplyHeader) + cfg.maxPayloadBytes + 16 +
         node::kPageBytes - 1) /
        node::kPageBytes * node::kPageBytes;
    raw->replyBuf = static_cast<char *>(mem.alloc(reply_bytes, true));
    core::ExportId reply_exp =
        ep.exportBuffer(raw->replyBuf, reply_bytes);

    // The server-side proxy for this client's reply buffer.
    core::Endpoint &sep = cluster.vmmc(server_rank);
    core::ProxyId reply_proxy =
        sep.import(NodeId(client_rank), reply_exp);
    // Stash it in the slot table via a side map keyed by slot.
    s.slots[raw->slot] = raw;
    raw->serverReplyProxy = reply_proxy;
    return raw;
}

std::uint64_t
RpcDomain::served(int server_rank) const
{
    return servers[server_rank] ? servers[server_rank]->servedCalls
                                : 0;
}

void
RpcDomain::dispatchSlot(int server_rank, int slot)
{
    ServerState &s = *servers[server_rank];
    core::Endpoint &ep = cluster.vmmc(server_rank);
    auto &cpu = ep.node().cpu();

    char *base = s.reqArea + s.slotStride * std::size_t(slot);
    const auto *hdr = reinterpret_cast<const CallHeader *>(base);
    if (hdr->seq <= s.lastServed[slot])
        return; // stale or duplicate notification
    // The trailer lands right after the payload, which may leave it
    // unaligned; copy it out rather than dereference in place.
    CallTrailer trl;
    std::memcpy(&trl, base + sizeof(CallHeader) + hdr->bytes,
                sizeof(trl));
    if (trl.seq != hdr->seq)
        return; // payload still in flight; a later poll retries

    Client *client = s.slots[slot];
    auto it = s.procedures.find(hdr->proc);
    if (it == s.procedures.end())
        fatal("rpc: unknown procedure %u", hdr->proc);

    // Parented on the caller's packet context when dispatched from a
    // notification, or on the serving process's context when polled.
    causal::OpSpan span(cluster.sim().recorder(), server_rank,
                        "rpc.serve");

    // Unmarshal + handler + marshal reply.
    cpu.compute(cfg.marshalCost);
    std::vector<char> reply = it->second(
        NodeId(hdr->client), base + sizeof(CallHeader), hdr->bytes);
    if (reply.size() > cfg.maxPayloadBytes)
        fatal("rpc: reply exceeds payload limit");
    cpu.compute(cfg.marshalCost);
    cpu.sync();

    // Reply: header+payload then the stamp (FIFO orders them).
    std::vector<char> out(sizeof(ReplyHeader) + reply.size());
    ReplyHeader rh{hdr->seq, std::uint32_t(reply.size())};
    std::memcpy(out.data(), &rh, sizeof(rh));
    std::memcpy(out.data() + sizeof(rh), reply.data(), reply.size());
    ep.send(client->serverReplyProxy, out.data(), out.size(), 0);
    std::uint32_t stamp = hdr->seq;
    ep.send(client->serverReplyProxy, &stamp, sizeof(stamp),
            sizeof(ReplyHeader) + cfg.maxPayloadBytes);

    s.lastServed[slot] = hdr->seq;
    ++s.servedCalls;
}

void
RpcDomain::serve(int server_rank, std::uint64_t calls)
{
    ServerState &s = *servers[server_rank];
    core::Endpoint &ep = cluster.vmmc(server_rank);
    std::uint64_t target = s.servedCalls + calls;
    while (s.servedCalls < target) {
        std::uint64_t before_served = s.servedCalls;
        for (std::size_t slot = 0; slot < s.slots.size(); ++slot) {
            if (s.slots[slot])
                dispatchSlot(server_rank, int(slot));
        }
        if (s.servedCalls == before_served) {
            std::uint64_t seen = ep.deliveries();
            ep.waitUntil(
                [&ep, seen] { return ep.deliveries() != seen; });
        }
    }
}

std::vector<char>
RpcDomain::Client::call(std::uint32_t proc, const void *args,
                        std::size_t bytes)
{
    RpcDomain &d = *dom;
    if (bytes > d.cfg.maxPayloadBytes)
        fatal("rpc: arguments exceed payload limit");
    core::Endpoint &ep = d.cluster.vmmc(rank);
    auto &cpu = ep.node().cpu();
    cpu.sync();
    ScopedCategory cat(d.cluster.sim(), TimeCategory::Communication);
    causal::OpSpan span(d.cluster.sim().recorder(), rank, "rpc.call");

    ++seq;
    cpu.compute(d.cfg.marshalCost);

    // Request: header + args in one message, trailer stamp after.
    std::vector<char> msg(sizeof(CallHeader) + bytes);
    CallHeader h{seq, proc, std::uint32_t(bytes),
                 std::uint32_t(rank)};
    std::memcpy(msg.data(), &h, sizeof(h));
    std::memcpy(msg.data() + sizeof(h), args, bytes);
    ServerState &s = *d.servers[server];
    std::size_t slot_off = s.slotStride * std::size_t(slot);
    ep.send(reqProxy, msg.data(), msg.size(), slot_off);
    CallTrailer t{seq, 0};
    // In notification mode the trailer carries the interrupt request
    // so the server dispatches exactly once per complete call.
    ep.send(reqProxy, &t, sizeof(t),
            slot_off + sizeof(CallHeader) + bytes,
            /*notify=*/d.cfg.notificationDispatch);

    // Wait for the stamped reply.
    volatile std::uint32_t *stamp =
        reinterpret_cast<volatile std::uint32_t *>(
            replyBuf + sizeof(ReplyHeader) + d.cfg.maxPayloadBytes);
    std::uint32_t want = seq;
    ep.waitUntil([stamp, want] { return *stamp >= want; });

    const auto *rh = reinterpret_cast<const ReplyHeader *>(replyBuf);
    cpu.compute(d.cfg.marshalCost);
    std::vector<char> reply(rh->bytes);
    std::memcpy(reply.data(), replyBuf + sizeof(ReplyHeader),
                rh->bytes);
    return reply;
}

} // namespace shrimp::msg

#include "sockets/socket.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"
#include "sim/recorder.hh"

namespace shrimp::sock
{

// ---------------------------------------------------------------------
// SocketDomain
// ---------------------------------------------------------------------

SocketDomain::SocketDomain(core::Cluster &cluster,
                           const SocketConfig &config)
    : cluster(cluster), _config(config)
{
    if (config.bufBytes % node::kPageBytes != 0)
        fatal("SocketDomain: buffer size must be a page multiple");
}

Socket *
SocketDomain::makeHalf(int rank, int peer)
{
    auto s = std::unique_ptr<Socket>(new Socket(*this, rank, peer));
    Socket *raw = s.get();
    sockets.push_back(std::move(s));

    core::Endpoint &ep = cluster.vmmc(rank);
    auto &mem = ep.node().mem();
    raw->inRing = static_cast<char *>(mem.alloc(_config.bufBytes, true));
    raw->inCtl = static_cast<Socket::Ctl *>(
        mem.alloc(node::kPageBytes, true));
    raw->ringExp = ep.exportBuffer(raw->inRing, _config.bufBytes);
    raw->ctlExp = ep.exportBuffer(
        reinterpret_cast<char *>(raw->inCtl), node::kPageBytes);
    return raw;
}

void
SocketDomain::finishImport(Socket *s, Socket *peer_half)
{
    core::Endpoint &ep = cluster.vmmc(s->_rank);
    s->outRing = ep.import(NodeId(s->_peer), peer_half->ringExp);
    s->outCtl = ep.import(NodeId(s->_peer), peer_half->ctlExp);
    if (_config.useAutomaticUpdate) {
        if (!ep.auSupported())
            fatal("sockets AU variant needs an AU-capable NIC");
        auto &mem = ep.node().mem();
        s->auStage = static_cast<char *>(
            mem.alloc(_config.bufBytes, true));
        ep.bindAu(s->auStage, s->outRing, 0, _config.bufBytes);
    }
}

Socket *
SocketDomain::accept(int rank, int port)
{
    Simulation &sim = cluster.sim();
    auto key = std::make_pair(rank, port);

    // Wait for a connector to queue itself on this port. Claim the
    // entry *before* any blocking work so concurrent acceptors on the
    // same port never pair with the same connector.
    PendingConn *pc = nullptr;
    for (;;) {
        auto &q = ports[key];
        for (auto *cand : q) {
            if (cand->connectorReady && !cand->claimed) {
                pc = cand;
                pc->claimed = true;
                break;
            }
        }
        if (pc)
            break;
        sim.delay(microseconds(20));
    }

    Socket *mine = makeHalf(rank, pc->connectorSide->_rank);
    pc->listenerSide = mine;
    pc->listenerReady = true;

    finishImport(mine, pc->connectorSide);
    // Connection handshake costs one round trip of small messages.
    cluster.vmmc(rank).node().cpu().compute(microseconds(30));
    cluster.vmmc(rank).node().cpu().sync();
    return mine;
}

Socket *
SocketDomain::connect(int rank, int peer_rank, int port)
{
    Simulation &sim = cluster.sim();
    auto key = std::make_pair(peer_rank, port);

    Socket *mine = makeHalf(rank, peer_rank);
    auto pc = std::make_unique<PendingConn>();
    pc->connectorSide = mine;
    pc->connectorReady = true;
    PendingConn *raw = pc.get();
    conns.push_back(std::move(pc));
    ports[key].push_back(raw);

    while (!raw->listenerReady)
        sim.delay(microseconds(20));

    finishImport(mine, raw->listenerSide);
    cluster.vmmc(rank).node().cpu().compute(microseconds(30));
    cluster.vmmc(rank).node().cpu().sync();
    return mine;
}

// ---------------------------------------------------------------------
// Socket
// ---------------------------------------------------------------------

Socket::Socket(SocketDomain &dom, int rank, int peer)
    : dom(dom), _rank(rank), _peer(peer)
{
    node::Node &n = dom.cluster.vmmc(rank).node();
    auto &stats = n.simulation().stats();
    stSends = CounterHandle(stats, n.name() + ".sock.sends");
    stSendBytes = CounterHandle(stats, n.name() + ".sock.send_bytes");
}

void
Socket::pushCounter()
{
    core::Endpoint &ep = dom.cluster.vmmc(_rank);
    // The peer's inCtl.written mirrors our produced count; FIFO
    // delivery guarantees the data precedes the counter.
    ep.send(outCtl, &produced, sizeof(produced),
            offsetof(Ctl, written));
}

void
Socket::push(const void *buf, std::size_t len, bool staging_copy)
{
    core::Endpoint &ep = dom.cluster.vmmc(_rank);
    const std::size_t cap = dom._config.bufBytes;
    const char *src = static_cast<const char *>(buf);
    ep.node().cpu().sync(); // close out compute time first
    ScopedCategory cat(dom.cluster.sim(), TimeCategory::Communication);
    causal::OpSpan span(ep.node().simulation().recorder(), _rank,
                        "sock.send");

    stSendBytes.inc(len);
    stSends.inc();

    if (staging_copy)
        ep.node().cpu().chargeCopy(len);

    std::size_t remaining = len;
    while (remaining > 0) {
        // Wait for ring space (peer returns credits in inCtl->read...
        // no: credits for OUR production come back in OUR inCtl.read).
        volatile std::uint64_t *credit = &inCtl->read;
        ep.waitUntil(
            [this, credit, cap] { return produced - *credit < cap; });

        std::size_t space = cap - std::size_t(produced - *credit);
        std::size_t off = std::size_t(produced % cap);
        std::size_t chunk = std::min({remaining, space, cap - off});

        if (dom._config.useAutomaticUpdate) {
            ep.auWriteBlock(auStage + off, src, chunk);
        } else {
            ep.send(outRing, src, chunk, off);
        }
        produced += chunk;
        src += chunk;
        remaining -= chunk;

        if (dom._config.useAutomaticUpdate) {
            // Flush the AU train first: its injection slot precedes
            // the DU counter stamp, so the data stays ahead of the
            // stamp on the (FIFO) path to the peer.
            ep.auFlush();
        }
        pushCounter();
    }
}

void
Socket::send(const void *buf, std::size_t len)
{
    push(buf, len, /*staging_copy=*/true);
}

void
Socket::sendBlock(const void *buf, std::size_t len)
{
    push(buf, len, /*staging_copy=*/false);
}

std::size_t
Socket::recv(void *buf, std::size_t maxlen)
{
    core::Endpoint &ep = dom.cluster.vmmc(_rank);
    const std::size_t cap = dom._config.bufBytes;
    ep.node().cpu().sync(); // close out compute time first
    ScopedCategory cat(dom.cluster.sim(), TimeCategory::Communication);
    causal::OpSpan span(ep.node().simulation().recorder(), _rank,
                        "sock.recv");

    volatile std::uint64_t *written = &inCtl->written;
    ep.waitUntil([this, written] { return *written > consumed; });

    std::size_t avail = std::size_t(*written - consumed);
    std::size_t off = std::size_t(consumed % cap);
    std::size_t n = std::min({maxlen, avail, cap - off});
    std::memcpy(buf, inRing + off, n);
    ep.node().cpu().chargeCopy(n);
    consumed += n;

    if (consumed - creditsSent > cap / 4) {
        ep.send(outCtl, &consumed, sizeof(consumed),
                offsetof(Ctl, read));
        creditsSent = consumed;
    }
    return n;
}

void
Socket::recvExact(void *buf, std::size_t len)
{
    char *dst = static_cast<char *>(buf);
    while (len > 0) {
        std::size_t n = recv(dst, len);
        dst += n;
        len -= n;
    }
}

void
Socket::recvBlock(void *buf, std::size_t len)
{
    recvExact(buf, len);
}

} // namespace shrimp::sock

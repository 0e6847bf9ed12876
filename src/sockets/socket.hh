/**
 * @file
 * A stream-sockets-compatible library on VMMC (Sec 3, [17]).
 *
 * Each connection direction is a receiver-side byte ring written by
 * deliberate update (or, for the Sec 4.2/4.5.1 what-ifs, automatic
 * update): the producer pushes data then a written-counter stamp (the
 * per-pair FIFO makes the stamp trail the data), and the consumer
 * returns credits by writing its read counter back. Like the SHRIMP
 * sockets library, receives poll — no interrupts — and a non-standard
 * block-transfer extension lets bulk transfers skip the library's
 * staging copy (used by the DFS file system).
 */

#ifndef SHRIMP_SOCKETS_SOCKET_HH
#define SHRIMP_SOCKETS_SOCKET_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/vmmc.hh"

namespace shrimp::sock
{

/** Configuration of a socket domain. */
struct SocketConfig
{
    /** Per-direction ring capacity. */
    std::size_t bufBytes = 128 * 1024;

    /** Use AU instead of DU as the bulk-transfer mechanism. */
    bool useAutomaticUpdate = false;
};

class SocketDomain;

/**
 * One endpoint of an established connection. All calls must be made
 * from a process on the owning rank's node; sends and receives charge
 * that process's time account to Communication.
 */
class Socket
{
  public:
    /**
     * Stream send; blocks until the data is buffered for delivery.
     * Charges a staging copy (use sendBlock for the zero-copy path).
     */
    void send(const void *buf, std::size_t len);

    /**
     * Stream receive of at least one byte (blocking).
     * @return bytes received (<= maxlen).
     */
    std::size_t recv(void *buf, std::size_t maxlen);

    /** Receive exactly @p len bytes (blocking). */
    void recvExact(void *buf, std::size_t len);

    /** Block-transfer extension: send without the staging copy. */
    void sendBlock(const void *buf, std::size_t len);

    /** Block-transfer extension: receive exactly @p len bytes. */
    void recvBlock(void *buf, std::size_t len);

    /** Local rank. */
    int rank() const { return _rank; }

    /** Remote rank. */
    int peer() const { return _peer; }

  private:
    friend class SocketDomain;

    /** Control block exported next to each ring. */
    struct Ctl
    {
        std::uint64_t written; //!< producer's total byte count
        std::uint64_t read;    //!< consumer's total byte count
    };

    Socket(SocketDomain &dom, int rank, int peer);

    void push(const void *buf, std::size_t len, bool staging_copy);
    void pushCounter();

    SocketDomain &dom;
    int _rank;
    int _peer;

    // Interned per-socket statistics (lazy; see sim/stats.hh).
    CounterHandle stSends;
    CounterHandle stSendBytes;

    // Incoming (exported by this side).
    char *inRing = nullptr;
    Ctl *inCtl = nullptr;   //!< peer writes .written; we track .read
    std::uint64_t consumed = 0;
    std::uint64_t creditsSent = 0;

    // Outgoing (imported from the peer).
    core::ProxyId outRing = core::kInvalidProxy;
    core::ProxyId outCtl = core::kInvalidProxy;
    std::uint64_t produced = 0;
    char *auStage = nullptr; //!< AU-bound staging mirror of the ring

    core::ExportId ringExp = core::kInvalidExport;
    core::ExportId ctlExp = core::kInvalidExport;
};

/**
 * Connection management for one cluster: a model-level port table
 * provides the listen/connect rendezvous; data paths are fully
 * simulated.
 */
class SocketDomain
{
  public:
    SocketDomain(core::Cluster &cluster,
                 const SocketConfig &config = SocketConfig());

    /**
     * Block until a connector arrives at (this rank, @p port), then
     * complete the handshake. Call from the listener's process.
     */
    Socket *accept(int rank, int port);

    /**
     * Connect from @p rank to @p peer_rank:@p port (blocking).
     */
    Socket *connect(int rank, int peer_rank, int port);

    core::Cluster &clusterRef() { return cluster; }
    const SocketConfig &config() const { return _config; }

  private:
    friend class Socket;

    struct PendingConn
    {
        Socket *connectorSide = nullptr;
        bool connectorReady = false;
        bool claimed = false;        //!< an acceptor owns this entry
        bool listenerReady = false;  //!< listener half fully set up
        Socket *listenerSide = nullptr;
    };

    Socket *makeHalf(int rank, int peer);
    void finishImport(Socket *s, Socket *peer_half);

    core::Cluster &cluster;
    SocketConfig _config;
    std::map<std::pair<int, int>, std::vector<PendingConn *>> ports;
    std::vector<std::unique_ptr<Socket>> sockets;
    std::vector<std::unique_ptr<PendingConn>> conns;
};

} // namespace shrimp::sock

#endif // SHRIMP_SOCKETS_SOCKET_HH

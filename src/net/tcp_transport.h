#ifndef CHARIOTS_NET_TCP_TRANSPORT_H_
#define CHARIOTS_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/executor.h"
#include "common/status.h"
#include "net/transport.h"

namespace chariots::net {

/// Transport over real TCP sockets. Messages are length-prefixed frames
/// (u32 little-endian length + the EncodeMessageSlices bytes).
///
/// Execution model (DESIGN.md §10): a nonblocking epoll reactor. One or a
/// few I/O threads own the listener and, by default, every socket's reads
/// and queued writes — so the thread count is a constant, not one reader
/// per connection. Inbound *requests* run on a per-connection strand
/// (serial, FIFO) of the shared executor — except that a request the
/// destination's InlinePredicate accepts runs to completion inline on the
/// thread that read it when that strand is idle (inbox empty, no drain
/// scheduled or running). Inline requests go through the same gate as the
/// strand, so per-connection FIFO and the Shutdown() fence hold for both;
/// a request arriving behind a busy strand queues like any other. Inline
/// handlers must never block (see MessageHandler): a cold pread inside one
/// stalls every connection of that reactor, which more io_threads spread
/// out. Each inline request runs under an InlineHandlerScope, so a nested
/// RpcEndpoint::Call from it fails fast instead of parking the thread that
/// would read its reply. The predicate is evaluated under the registry
/// lock; it must not call back into the transport.
///
/// Who reads a socket: whoever holds the connection's *read side*, taken
/// with a try-lock. Normally the reactor. A Call (SendAwaitingReply) on the
/// sending node's own outbound connection takes it before its request
/// leaves, withdraws the reactor's EPOLLIN interest, and blocks in poll(2)
/// on the socket until its reply is delivered or its deadline passes — the
/// reply reaches the waiting caller with no reactor wake-up in between.
/// A reply is sent back on the connection its request arrived on (the
/// learned one, ahead of any static route), so it reaches that socket even
/// when the server also routes to the caller. Should it arrive on another
/// connection all the same (the caller's node reached one server process
/// over two addresses), whoever delivers it wakes the poll through the
/// connection's eventfd. Both readers run one frame reader (ReadFrames), so
/// inbound responses, inline requests and strand hand-offs behave the same
/// whoever reads. A caller that finds the read side held sends and waits on
/// its condition variable; the holder delivers its reply. Inbound responses
/// otherwise run inline on the reactor, so a worker blocked in a nested
/// Call is unblocked even when every worker is busy.
///
/// Connections are keyed by (local sending node, remote address): every
/// endpoint has its own socket and server strand, and FIFO per (from, to)
/// holds for requests and one-way messages; replies ride the connection of
/// their request. Only the reactor (or Shutdown(), after joining it) closes a
/// socket, and never while a caller holds its read side: shutdown(2)
/// first wakes the caller's poll. Unregister(node) shuts the node's own
/// connections down, which also ends any Call reading one; Shutdown()
/// does the same for all.
///
/// Sends try the socket inline on the caller's thread and fall back to a
/// bounded per-connection write queue flushed by the reactor on EPOLLOUT.
///
/// Counters: net.tcp.requests_inline / net.tcp.requests_queued count
/// inbound requests by path (queued = one executor handoff each);
/// net.tcp.responses_read_by_caller / net.tcp.responses_read_by_reactor
/// count inbound responses by the thread that read them;
/// net.tcp.read_events_skipped counts EPOLLIN events the reactor dropped
/// because a caller held the read side (0 when the withdrawal works);
/// net.tcp.connections_accepted counts accepted sockets.
///
/// Routing: local nodes are registered handlers; remote nodes are reached via
/// prefix routes installed with AddRoute("dc1", "127.0.0.1:7001"). Longest
/// matching prefix wins. A message whose destination resolves locally is
/// delivered without touching a socket. Additionally, the transport LEARNS
/// peers: a node id seen as the sender of a request on a connection becomes
/// reachable over that connection — so servers can answer clients they
/// have no static route to (clients connect from ephemeral addresses).
/// Responses prefer the learned connection; other messages use it only
/// when no static route matches.
class TcpTransport : public Transport {
 public:
  struct Options {
    /// Reactor (event-loop) threads. One is right for almost everything;
    /// raise it only when a single core cannot move the bytes.
    size_t io_threads = 1;
    /// Executor that runs inbound request handlers (null =
    /// Executor::Default()).
    Executor* executor = nullptr;
  };

  TcpTransport();  // default Options
  explicit TcpTransport(Options options);
  ~TcpTransport() override;

  /// Starts accepting connections on `port` (all interfaces). Pass 0 to let
  /// the OS choose; the bound port is then available via port().
  Status Listen(int port);

  int port() const { return port_; }

  /// Routes messages for node ids starting with `prefix` to `host:port`.
  void AddRoute(const std::string& prefix, const std::string& host,
                int port);

  Status Register(const NodeId& node, MessageHandler handler,
                  InlinePredicate may_run_inline = nullptr) override;
  /// Also shuts down the node's own outbound connections.
  Status Unregister(const NodeId& node) override;
  Status Send(Message msg) override;
  Status SendAwaitingReply(Message request,
                           std::chrono::steady_clock::time_point deadline,
                           const std::function<bool()>& done) override;

  /// Closes all sockets and joins the reactor threads. Later remote sends
  /// fail with Unavailable.
  void Shutdown();

 private:
  struct Conn;
  struct IoThread;
  struct LocalNode {
    MessageHandler handler;
    InlinePredicate may_run_inline;  // null: every request on the strand
  };

  /// Where a message goes: a local handler, or a connection.
  struct Route {
    MessageHandler local;
    std::shared_ptr<Conn> conn;
    /// `conn` is the sender's own outbound connection (keyed by msg.from),
    /// which a Call may read.
    bool owned = false;
  };

  void ReactorLoop(size_t index);
  /// Accept-ready on the listener (reactor thread 0 only).
  void AcceptReady();
  /// Reads the socket if no caller holds its read side (reactor only).
  void HandleReadable(IoThread* io, const std::shared_ptr<Conn>& conn);
  /// Flushes the write queue; disarms EPOLLOUT when drained (reactor only).
  void HandleWritable(IoThread* io, const std::shared_ptr<Conn>& conn);
  /// The one frame reader, run by the holder of the read side: drains the
  /// socket and dispatches every complete frame. False when the connection
  /// is finished (EOF, error, bad frame); the caller must not close it.
  bool ReadFrames(const std::shared_ptr<Conn>& conn, bool by_caller);
  /// One decoded inbound message: responses and idle-strand inline-eligible
  /// requests run on this thread; other requests go to the strand. Peers
  /// are learned from requests.
  void Dispatch(const std::shared_ptr<Conn>& conn, Message msg,
                bool by_caller);
  /// Wakes the caller polling one of `node`'s connections for reply
  /// `rpc_id`, if any: its reply was delivered by another reader.
  void WakeWaiter(const NodeId& node, uint64_t rpc_id);
  /// Per-connection strand body: delivers queued requests one at a time.
  void DrainInbox(const std::shared_ptr<Conn>& conn);
  void DeliverLocal(Message msg);
  /// Encodes into a slice chain (borrowing the payload, DESIGN.md §15) and
  /// writes it — inline via sendmsg if the queue is empty, else queued,
  /// arming EPOLLOUT. Thread-safe.
  Status WriteFrame(const std::shared_ptr<Conn>& conn, Message msg);
  Result<Route> RouteOf(const Message& msg);
  /// Removes the connection from its reactor and the routing tables and
  /// closes the socket (reactor only).
  void CloseConn(IoThread* io, const std::shared_ptr<Conn>& conn);
  /// Marks the connection closed, wakes and waits out a caller reading it,
  /// then closes the fd.
  static void CloseSocket(Conn* conn);
  /// Drops the connection from conns_, learned_ and accepted_, so the next
  /// send reconnects.
  void Unroute(const std::shared_ptr<Conn>& conn);
  /// The (from, addr) outbound connection, connecting it if needed.
  Result<std::shared_ptr<Conn>> GetOrConnect(const NodeId& from,
                                             const std::string& addr);
  /// Registers a socket with a reactor thread (round-robin for accepted
  /// and outbound connections alike).
  void AdoptConn(const std::shared_ptr<Conn>& conn);
  Status EnsureIoThreads();

  const Options options_;
  Executor* const executor_;
  std::atomic<bool> shutdown_{false};
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<uint64_t> next_io_{0};

  std::mutex io_mu_;  // guards io_threads_ creation
  std::vector<std::unique_ptr<IoThread>> io_threads_;

  std::mutex mu_;
  std::unordered_map<NodeId, LocalNode> local_;
  std::vector<std::pair<std::string, std::string>> routes_;  // prefix -> addr
  /// Outbound connections: local sending node -> remote address -> conn.
  std::unordered_map<NodeId,
                     std::unordered_map<std::string, std::shared_ptr<Conn>>>
      conns_;
  std::vector<std::shared_ptr<Conn>> accepted_;
  /// Closed connections whose strand was still draining when they closed;
  /// Shutdown() fences them with the live ones.
  std::vector<std::shared_ptr<Conn>> retired_;
  /// Peer learning: requesting node id -> connection it was last seen on.
  std::unordered_map<NodeId, std::weak_ptr<Conn>> learned_;
};

}  // namespace chariots::net

#endif  // CHARIOTS_NET_TCP_TRANSPORT_H_

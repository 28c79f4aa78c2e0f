#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "common/logging.h"
#include "common/metrics.h"

namespace chariots::net {

namespace {

constexpr size_t kMaxFrameBytes = 64u << 20;
/// Per-connection queued-write cap: past this, Send fails Unavailable
/// instead of buffering without bound against a stuck peer.
constexpr size_t kMaxWriteBacklog = 64u << 20;

metrics::Counter* BytesSentCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.tcp.bytes_sent");
  return c;
}

metrics::Counter* BytesReceivedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.tcp.bytes_received");
  return c;
}

metrics::Counter* FramesSentCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.tcp.frames_sent");
  return c;
}

metrics::Counter* FramesReceivedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.tcp.frames_received");
  return c;
}

metrics::Counter* RequestsInlineCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.tcp.requests_inline");
  return c;
}

metrics::Counter* RequestsQueuedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.tcp.requests_queued");
  return c;
}

metrics::Counter* ConnectionsAcceptedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.tcp.connections_accepted");
  return c;
}

metrics::Counter* ReadEventsSkippedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.tcp.read_events_skipped");
  return c;
}

metrics::Counter* ResponsesReadByCallerCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "net.tcp.responses_read_by_caller");
  return c;
}

metrics::Counter* ResponsesReadByReactorCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "net.tcp.responses_read_by_reactor");
  return c;
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

/// A frame chain is at most header + payload + trace trailer; 8 leaves
/// headroom without touching IOV_MAX.
constexpr size_t kMaxIovPerSend = 8;

/// Fills `iov` from the chain's slices, skipping the first `skip`
/// already-sent bytes. Returns the number of entries filled.
size_t BuildIovecs(const SliceChain& chain, size_t skip, iovec* iov,
                   size_t max_iov) {
  size_t n = 0;
  for (const IoSlice& s : chain.slices()) {
    if (n == max_iov) break;
    if (skip >= s.data.size()) {
      skip -= s.data.size();
      continue;
    }
    iov[n++] = iovec{const_cast<char*>(s.data.data() + skip),
                     s.data.size() - skip};
    skip = 0;
  }
  return n;
}

/// sendmsg over the unsent tail of a frame chain (writev has no flags
/// argument, and MSG_NOSIGNAL is non-negotiable).
ssize_t SendChain(int fd, const SliceChain& chain, size_t skip) {
  iovec iov[kMaxIovPerSend];
  msghdr mh{};
  mh.msg_iov = iov;
  mh.msg_iovlen = BuildIovecs(chain, skip, iov, kMaxIovPerSend);
  return ::sendmsg(fd, &mh, MSG_NOSIGNAL);
}

}  // namespace

/// One TCP connection. Reads belong to whoever holds the *read side*
/// (`reading`, taken with a try-lock): the reactor, or a Call waiting on
/// the connection (SendAwaitingReply), which withdraws EPOLLIN while it
/// reads and also polls `wake_fd`, so a reply delivered by another reader
/// still ends its wait. Only the holder touches `rbuf` and dispatches
/// frames. Senders on
/// any thread append to the write queue under `write_mu` (trying the
/// socket inline first), and the reactor flushes it on EPOLLOUT. Only the
/// reactor closes the fd, after setting `closed` and taking the read side
/// for good (CloseSocket). Inbound requests queue in `inbox` and are
/// delivered one at a time by a strand task under `gate`, or run inline by
/// the reader under the same gate when the strand is idle; the gate also
/// fences the transport: Shutdown() closes it, after which no handler runs
/// for this connection again.
struct TcpTransport::Conn {
  int fd = -1;
  /// Outbound connections: the conns_ key (sending node, remote address).
  NodeId owner;
  std::string addr;

  std::atomic<bool> reading{false};  // the read side is held
  std::string rbuf;  // partial inbound frame (read-side holder only)
  /// Outbound connections: an eventfd written (under write_mu, while open)
  /// for the caller awaiting reply `awaited_rpc` (0: no caller reads).
  int wake_fd = -1;
  std::atomic<uint64_t> awaited_rpc{0};

  std::mutex write_mu;
  IoThread* io = nullptr;  // set at adoption
  /// Encoded frames as slice chains — large payloads are borrowed via
  /// refcounted Buffers, never copied into the queue. Front may be partly
  /// sent.
  std::deque<SliceChain> wq;
  size_t woff = 0;    // bytes of wq.front() already sent
  size_t wbytes = 0;  // unsent bytes across the whole queue
  bool want_write = false;      // EPOLLOUT armed (or will be at adoption)
  bool caller_reading = false;  // EPOLLIN withdrawn: a caller reads
  bool closed = false;

  std::mutex in_mu;
  std::deque<Message> inbox;
  bool drain_scheduled = false;
  SerialGate gate;

  bool TryAcquireRead() {
    return !reading.exchange(true, std::memory_order_acquire);
  }
  void ReleaseRead() {
    reading.store(false, std::memory_order_release);
    reading.notify_all();
  }

  /// Re-registers the epoll interest after want_write or caller_reading
  /// changed. Caller holds write_mu; a no-op before adoption (AdoptConn
  /// registers the current interest) and once closed (deregistered).
  void ArmLocked();
  /// The epoll events this connection wants now. Caller holds write_mu.
  uint32_t InterestLocked() const {
    return (caller_reading ? 0u : static_cast<uint32_t>(EPOLLIN)) |
           (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  }
};

/// One reactor: an epoll instance plus the connections registered with it.
/// `conns` maps the raw pointer stored in epoll_event.data back to an
/// owning reference; erased on close, so a stale event (connection closed
/// earlier in the same batch) simply fails the lookup.
struct TcpTransport::IoThread {
  size_t index = 0;
  int epfd = -1;
  int wakeup_fd = -1;
  std::atomic<bool> stop{false};
  std::mutex conns_mu;
  std::unordered_map<Conn*, std::shared_ptr<Conn>> conns;
  std::thread thread;
};

void TcpTransport::Conn::ArmLocked() {
  if (io == nullptr || closed) return;
  epoll_event ev{};
  ev.events = InterestLocked();
  ev.data.ptr = this;
  ::epoll_ctl(io->epfd, EPOLL_CTL_MOD, fd, &ev);
}

TcpTransport::TcpTransport() : TcpTransport(Options{}) {}

TcpTransport::TcpTransport(Options options)
    : options_(options),
      executor_(options.executor != nullptr ? options.executor
                                            : Executor::Default()) {}

TcpTransport::~TcpTransport() { Shutdown(); }

Status TcpTransport::EnsureIoThreads() {
  std::lock_guard<std::mutex> lock(io_mu_);
  if (!io_threads_.empty()) return Status::OK();
  size_t n = options_.io_threads > 0 ? options_.io_threads : 1;
  for (size_t i = 0; i < n; ++i) {
    auto io = std::make_unique<IoThread>();
    io->index = i;
    io->epfd = ::epoll_create1(0);
    if (io->epfd < 0) {
      return Status::IOError(std::string("epoll_create1: ") +
                             std::strerror(errno));
    }
    io->wakeup_fd = ::eventfd(0, EFD_NONBLOCK);
    if (io->wakeup_fd < 0) {
      ::close(io->epfd);
      return Status::IOError(std::string("eventfd: ") +
                             std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = io.get();
    ::epoll_ctl(io->epfd, EPOLL_CTL_ADD, io->wakeup_fd, &ev);
    io_threads_.push_back(std::move(io));
  }
  for (size_t i = 0; i < io_threads_.size(); ++i) {
    io_threads_[i]->thread = std::thread([this, i] { ReactorLoop(i); });
  }
  return Status::OK();
}

Status TcpTransport::Listen(int port) {
  CHARIOTS_RETURN_IF_ERROR(EnsureIoThreads());
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  listen_fd_.store(fd, std::memory_order_relaxed);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(fd, 128) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  // The listener lives on reactor 0; accepted sockets are spread
  // round-robin over every reactor.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = this;
  if (::epoll_ctl(io_threads_[0]->epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl listen: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void TcpTransport::AddRoute(const std::string& prefix, const std::string& host,
                            int port) {
  std::lock_guard<std::mutex> lock(mu_);
  routes_.emplace_back(prefix, host + ":" + std::to_string(port));
}

Status TcpTransport::Register(const NodeId& node, MessageHandler handler,
                              InlinePredicate may_run_inline) {
  std::lock_guard<std::mutex> lock(mu_);
  if (local_.count(node) != 0) {
    return Status::AlreadyExists("node already registered: " + node);
  }
  local_[node] = LocalNode{std::move(handler), std::move(may_run_inline)};
  return Status::OK();
}

Status TcpTransport::Unregister(const NodeId& node) {
  std::unordered_map<std::string, std::shared_ptr<Conn>> owned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (local_.erase(node) == 0) return Status::NotFound("node: " + node);
    auto it = conns_.find(node);
    if (it != conns_.end()) {
      owned = std::move(it->second);
      conns_.erase(it);
    }
  }
  // The node's own connections go with it: shutdown(2) wakes a Call
  // reading one, and the reactor closes them on the EPOLLHUP it raises.
  for (auto& [_, conn] : owned) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (!conn->closed) ::shutdown(conn->fd, SHUT_RDWR);
  }
  return Status::OK();
}

void TcpTransport::DeliverLocal(Message msg) {
  MessageHandler handler;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = local_.find(msg.to);
    if (it == local_.end()) {
      LOG_WARN << "tcp: dropping message for unknown local node " << msg.to;
      return;
    }
    handler = it->second.handler;
  }
  handler(std::move(msg));
}

Result<TcpTransport::Route> TcpTransport::RouteOf(const Message& msg) {
  std::string addr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto local = local_.find(msg.to);
    // Local shortcut: delivered on the caller thread, outside the lock
    // (the handler copy keeps it alive).
    if (local != local_.end()) return Route{local->second.handler, {}, false};
    // The connection the peer was learned on, dropping a dead entry.
    auto learned = [&]() -> std::shared_ptr<Conn> {
      auto it = learned_.find(msg.to);
      if (it == learned_.end()) return nullptr;
      std::shared_ptr<Conn> conn = it->second.lock();
      if (conn == nullptr) learned_.erase(it);
      return conn;
    };
    // A reply goes back on the connection its request arrived on, where
    // the caller may be reading it (SendAwaitingReply) — even when a static
    // route to the caller's prefix would open another one.
    if (msg.is_response) {
      if (std::shared_ptr<Conn> conn = learned()) {
        return Route{{}, std::move(conn), false};
      }
    }
    const std::string* best = nullptr;
    size_t best_len = 0;
    for (const auto& [prefix, a] : routes_) {
      if (msg.to.rfind(prefix, 0) == 0 &&
          (best == nullptr || prefix.size() >= best_len)) {
        best_len = prefix.size();
        best = &a;
      }
    }
    if (best == nullptr) {
      // No static route: try the connection the peer was learned on.
      if (std::shared_ptr<Conn> conn = learned()) {
        return Route{{}, std::move(conn), false};
      }
      return Status::NotFound("no route to " + msg.to);
    }
    auto node = conns_.find(msg.from);
    if (node != conns_.end()) {
      auto it = node->second.find(*best);
      if (it != node->second.end()) return Route{{}, it->second, true};
    }
    addr = *best;
  }
  CHARIOTS_ASSIGN_OR_RETURN(std::shared_ptr<Conn> conn,
                            GetOrConnect(msg.from, addr));
  return Route{{}, std::move(conn), true};
}

Status TcpTransport::Send(Message msg) {
  CHARIOTS_ASSIGN_OR_RETURN(Route route, RouteOf(msg));
  if (route.local) {
    route.local(std::move(msg));
    return Status::OK();
  }
  return WriteFrame(route.conn, std::move(msg));
}

Status TcpTransport::SendAwaitingReply(
    Message request, std::chrono::steady_clock::time_point deadline,
    const std::function<bool()>& done) {
  CHARIOTS_ASSIGN_OR_RETURN(Route route, RouteOf(request));
  if (route.local) {
    route.local(std::move(request));
    return Status::OK();
  }
  // Only the sender's own connection is read here: a learned connection
  // belongs to the peer that opened it, and one whose read side is held
  // is already being read — its holder delivers this reply too.
  const std::shared_ptr<Conn>& conn = route.conn;
  if (!route.owned || !conn->TryAcquireRead()) {
    return WriteFrame(conn, std::move(request));
  }
  // The read side is taken before the request leaves, so the reply cannot
  // reach the reactor first.
  conn->awaited_rpc.store(request.rpc_id, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (!conn->closed) {
      conn->caller_reading = true;
      conn->ArmLocked();
    }
  }
  Status s = WriteFrame(conn, std::move(request));
  bool open = true;
  while (s.ok() && !done()) {
    auto left = deadline - std::chrono::steady_clock::now();
    if (left <= std::chrono::steady_clock::duration::zero()) break;
    // Rounded up, so the deadline has passed when poll times out.
    const auto ms = std::chrono::ceil<std::chrono::milliseconds>(left);
    pollfd pfds[2] = {{conn->fd, POLLIN, 0}, {conn->wake_fd, POLLIN, 0}};
    int n = ::poll(pfds, 2,
                   static_cast<int>(std::min<int64_t>(ms.count(), INT32_MAX)));
    if (n < 0 && errno != EINTR) open = false;
    if (n > 0 && pfds[1].revents != 0) {
      uint64_t v;
      (void)!::read(conn->wake_fd, &v, sizeof(v));  // done() is re-checked
    }
    if (n > 0 && pfds[0].revents != 0) {
      open = ReadFrames(conn, /*by_caller=*/true);
    }
    if (!open) {
      if (!done()) s = Status::Unavailable("connection closed");
      break;
    }
  }
  if (!open) {
    // Only the reactor closes a socket: shutdown(2) raises EPOLLHUP for it,
    // and the next send to this peer reconnects.
    ::shutdown(conn->fd, SHUT_RDWR);
    Unroute(conn);
  }
  conn->awaited_rpc.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->caller_reading = false;
    conn->ArmLocked();
  }
  conn->ReleaseRead();
  return s;
}

Result<std::shared_ptr<TcpTransport::Conn>> TcpTransport::GetOrConnect(
    const NodeId& from, const std::string& addr) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::Unavailable("tcp transport shut down");
  }
  CHARIOTS_RETURN_IF_ERROR(EnsureIoThreads());
  // Parse host:port.
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("bad address: " + addr);
  }
  std::string host = addr.substr(0, colon);
  int port = std::atoi(addr.c_str() + colon + 1);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host: " + host);
  }
  // Blocking connect (bounded by the kernel's SYN timeout), then the socket
  // goes nonblocking for its life on the reactor.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return Status::Unavailable("connect " + addr + ": " +
                               std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  int wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd < 0) {
    ::close(fd);
    return Status::IOError(std::string("eventfd: ") + std::strerror(errno));
  }

  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->wake_fd = wake_fd;
  conn->owner = from;
  conn->addr = addr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = conns_[from].emplace(addr, conn);
    if (!inserted) {
      // Lost a race; use the existing connection.
      ::close(fd);
      ::close(wake_fd);
      return it->second;
    }
  }
  AdoptConn(conn);
  return conn;
}

void TcpTransport::AdoptConn(const std::shared_ptr<Conn>& conn) {
  IoThread* io;
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    io = io_threads_[next_io_.fetch_add(1, std::memory_order_relaxed) %
                     io_threads_.size()]
             .get();
  }
  {
    std::lock_guard<std::mutex> lock(io->conns_mu);
    io->conns[conn.get()] = conn;
  }
  // A frame may already be queued, or a caller already reading (both
  // before adoption finished): fold them into the initial registration
  // instead of racing a MOD.
  std::lock_guard<std::mutex> lock(conn->write_mu);
  conn->io = io;
  epoll_event ev{};
  ev.events = conn->InterestLocked();
  ev.data.ptr = conn.get();
  ::epoll_ctl(io->epfd, EPOLL_CTL_ADD, conn->fd, &ev);
}

Status TcpTransport::WriteFrame(const std::shared_ptr<Conn>& conn,
                                Message msg) {
  // The 4-byte length prefix rides inside the chain's header buffer:
  // WireSize() is exact (net_test pins it to the codec), so the frame
  // length is known before a single byte is encoded.
  const uint32_t body = static_cast<uint32_t>(msg.WireSize());
  char prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((body >> (8 * i)) & 0xff);
  }
  SliceChain chain =
      EncodeMessageSlices(std::move(msg), std::string_view(prefix, 4));
  const size_t frame_bytes = chain.size();

  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed) return Status::Unavailable("connection closed");
  if (conn->wbytes > kMaxWriteBacklog) {
    return Status::Unavailable("tcp: write backlog full");
  }
  size_t off = 0;
  if (conn->wq.empty()) {
    // Queue empty: try the socket inline on the caller's thread — the
    // common case finishes here without waking the reactor, gathering the
    // header and borrowed payload slices in one sendmsg.
    while (off < frame_bytes) {
      ssize_t w = SendChain(conn->fd, chain, off);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return Status::IOError(std::string("sendmsg: ") +
                               std::strerror(errno));
      }
      off += static_cast<size_t>(w);
    }
  }
  FramesSentCounter()->Add();
  BytesSentCounter()->Add(frame_bytes);
  if (off == frame_bytes) return Status::OK();
  conn->wbytes += frame_bytes - off;
  if (conn->wq.empty()) conn->woff = off;  // else off == 0
  conn->wq.push_back(std::move(chain));
  if (!conn->want_write) {
    conn->want_write = true;
    conn->ArmLocked();  // before adoption: AdoptConn arms EPOLLOUT
  }
  return Status::OK();
}

void TcpTransport::ReactorLoop(size_t index) {
  IoThread* io;
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    io = io_threads_[index].get();
  }
  ScopedRuntimeThread census("tcp/io" + std::to_string(index));
  std::vector<epoll_event> events(64);
  // Connections closed during the current batch are parked here so a stale
  // event later in the same batch cannot dereference freed memory.
  std::vector<std::shared_ptr<Conn>> dying;
  while (!io->stop.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(io->epfd, events.data(),
                         static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      LOG_ERROR << "tcp: epoll_wait: " << std::strerror(errno);
      return;
    }
    for (int i = 0; i < n; ++i) {
      void* p = events[i].data.ptr;
      if (p == io) {
        uint64_t v;
        while (::read(io->wakeup_fd, &v, sizeof(v)) > 0) {
        }
        continue;  // stop flag re-checked at loop top
      }
      if (p == this) {
        AcceptReady();
        continue;
      }
      Conn* raw = static_cast<Conn*>(p);
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lock(io->conns_mu);
        auto it = io->conns.find(raw);
        if (it == io->conns.end()) continue;  // closed earlier this batch
        conn = it->second;
      }
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(io, conn);
        dying.push_back(std::move(conn));
        continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(io, conn);
      if (events[i].events & EPOLLIN) HandleReadable(io, conn);
      dying.push_back(std::move(conn));
    }
    dying.clear();
  }
}

void TcpTransport::AcceptReady() {
  for (;;) {
    int fd = ::accept4(listen_fd_.load(std::memory_order_relaxed), nullptr,
                       nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listener closed
    }
    ConnectionsAcceptedCounter()->Add();
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      accepted_.push_back(conn);
    }
    AdoptConn(conn);
  }
}

void TcpTransport::HandleReadable(IoThread* io,
                                  const std::shared_ptr<Conn>& conn) {
  // A caller holding the read side withdrew EPOLLIN and reads what
  // arrives; this event predates that.
  if (!conn->TryAcquireRead()) {
    ReadEventsSkippedCounter()->Add();
    return;
  }
  const bool open = ReadFrames(conn, /*by_caller=*/false);
  conn->ReleaseRead();
  if (!open) CloseConn(io, conn);
}

bool TcpTransport::ReadFrames(const std::shared_ptr<Conn>& conn,
                              bool by_caller) {
  char buf[65536];
  for (;;) {
    ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      conn->rbuf.append(buf, static_cast<size_t>(r));
      continue;
    }
    if (r == 0) return false;  // clean EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  // Parse every complete frame out of the buffer.
  size_t pos = 0;
  std::string& rbuf = conn->rbuf;
  while (rbuf.size() - pos >= 4) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<uint8_t>(rbuf[pos + i]))
             << (8 * i);
    }
    if (len > kMaxFrameBytes) {
      LOG_ERROR << "tcp: oversized frame (" << len << " bytes); closing";
      return false;
    }
    if (rbuf.size() - pos - 4 < len) break;
    FramesReceivedCounter()->Add();
    BytesReceivedCounter()->Add(len + 4);
    Result<Message> msg =
        DecodeMessage(std::string_view(rbuf.data() + pos + 4, len));
    pos += 4 + len;
    if (!msg.ok()) {
      LOG_ERROR << "tcp: undecodable frame; closing: "
                << msg.status().ToString();
      return false;
    }
    Dispatch(conn, std::move(msg).value(), by_caller);
  }
  rbuf.erase(0, pos);
  return true;
}

void TcpTransport::Dispatch(const std::shared_ptr<Conn>& conn, Message msg,
                            bool by_caller) {
  if (msg.is_response) {
    // On the reading thread: response handlers only complete pending calls
    // and never block, and this path must not depend on a free worker.
    (by_caller ? ResponsesReadByCallerCounter()
               : ResponsesReadByReactorCounter())
        ->Add();
    if (by_caller && conn->awaited_rpc.load(std::memory_order_acquire) ==
                         msg.rpc_id) {
      DeliverLocal(std::move(msg));  // this thread's own reply
      return;
    }
    // Someone else's reply: its caller may be polling another connection.
    const NodeId to = msg.to;
    const uint64_t rpc_id = msg.rpc_id;
    DeliverLocal(std::move(msg));
    WakeWaiter(to, rpc_id);
    return;
  }
  bool may_run_inline = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Peer learning: the requester is reachable over this connection.
    // Learned from requests only, so a peer's replies arriving on several
    // endpoints' connections cannot flip its entry between them.
    if (!msg.from.empty()) {
      std::weak_ptr<Conn>& seen = learned_[msg.from];
      if (seen.lock() != conn) seen = conn;
    }
    auto it = local_.find(msg.to);
    may_run_inline = it != local_.end() && it->second.may_run_inline &&
                     it->second.may_run_inline(msg);
  }
  bool run_inline;
  {
    std::lock_guard<std::mutex> lock(conn->in_mu);
    // Only the read-side holder schedules drains for `conn`, so an idle
    // strand stays idle until an inline request returns: running it here
    // keeps the connection's FIFO.
    run_inline =
        may_run_inline && conn->inbox.empty() && !conn->drain_scheduled;
    if (!run_inline) {
      RequestsQueuedCounter()->Add();
      conn->inbox.push_back(std::move(msg));
      if (conn->drain_scheduled) return;
      conn->drain_scheduled = true;
    }
  }
  if (run_inline) {
    // Run to completion: no executor handoff, no worker wake-up.
    RequestsInlineCounter()->Add();
    conn->gate.Run([&] {
      InlineHandlerScope inline_handler;
      DeliverLocal(std::move(msg));
    });
    return;
  }
  if (!executor_->Submit(
          conn->gate.Wrap([this, conn] { DrainInbox(conn); }))) {
    std::lock_guard<std::mutex> lock(conn->in_mu);
    conn->drain_scheduled = false;
  }
}

void TcpTransport::WakeWaiter(const NodeId& node, uint64_t rpc_id) {
  std::shared_ptr<Conn> waiter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(node);
    if (it == conns_.end()) return;
    for (const auto& [_, conn] : it->second) {
      if (conn->awaited_rpc.load(std::memory_order_acquire) == rpc_id) {
        waiter = conn;
        break;
      }
    }
  }
  if (waiter == nullptr) return;
  // Under write_mu while open: CloseSocket marks the connection closed
  // under it before closing wake_fd.
  std::lock_guard<std::mutex> lock(waiter->write_mu);
  if (waiter->closed) return;
  const uint64_t one = 1;
  (void)!::write(waiter->wake_fd, &one, sizeof(one));
}

void TcpTransport::DrainInbox(const std::shared_ptr<Conn>& conn) {
  // Runs under conn->gate (the strand): requests from one connection are
  // delivered one at a time, like the per-connection reader they replace.
  for (;;) {
    Message msg;
    {
      std::lock_guard<std::mutex> lock(conn->in_mu);
      if (conn->inbox.empty()) {
        conn->drain_scheduled = false;
        return;
      }
      msg = std::move(conn->inbox.front());
      conn->inbox.pop_front();
    }
    DeliverLocal(std::move(msg));
  }
}

void TcpTransport::HandleWritable(IoThread* io,
                                  const std::shared_ptr<Conn>& conn) {
  bool fatal = false;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    while (!conn->wq.empty()) {
      const SliceChain& f = conn->wq.front();
      ssize_t w = SendChain(conn->fd, f, conn->woff);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // still armed
        fatal = true;
        break;
      }
      conn->woff += static_cast<size_t>(w);
      conn->wbytes -= static_cast<size_t>(w);
      if (conn->woff == f.size()) {
        conn->woff = 0;
        conn->wq.pop_front();
      }
    }
    if (!fatal) {
      conn->want_write = false;
      conn->ArmLocked();  // keeps EPOLLIN withdrawn while a caller reads
      return;
    }
  }
  CloseConn(io, conn);
}

void TcpTransport::CloseConn(IoThread* io,
                             const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(io->conns_mu);
    if (io->conns.erase(conn.get()) == 0) return;  // already closed
  }
  ::epoll_ctl(io->epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
  CloseSocket(conn.get());
  Unroute(conn);
  // Its strand may still be delivering a request: keep it for Shutdown()
  // to fence until the drain ends. (Inline bodies run under the read side,
  // which CloseSocket has waited out.)
  std::lock_guard<std::mutex> lock(mu_);
  retired_.push_back(conn);
  std::erase_if(retired_, [](const std::shared_ptr<Conn>& c) {
    std::lock_guard<std::mutex> in(c->in_mu);
    return !c->drain_scheduled;
  });
}

void TcpTransport::CloseSocket(Conn* conn) {
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->closed = true;
    conn->wq.clear();
    conn->wbytes = 0;
  }
  // Wake a caller polling the socket, wait until it lets go of the read
  // side, and keep it: nobody reads this connection again, so the fd can
  // be closed without a poller on it.
  ::shutdown(conn->fd, SHUT_RDWR);
  while (!conn->TryAcquireRead()) {
    conn->reading.wait(true, std::memory_order_acquire);
  }
  ::close(conn->fd);
  if (conn->wake_fd >= 0) ::close(conn->wake_fd);
}

void TcpTransport::Unroute(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto node = conns_.find(conn->owner);
  if (node != conns_.end()) {
    auto it = node->second.find(conn->addr);
    if (it != node->second.end() && it->second == conn) {
      node->second.erase(it);
      if (node->second.empty()) conns_.erase(node);
    }
  }
  for (auto it = learned_.begin(); it != learned_.end();) {
    std::shared_ptr<Conn> target = it->second.lock();
    if (target == nullptr || target == conn) {
      it = learned_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = accepted_.begin(); it != accepted_.end();) {
    it = (*it == conn) ? accepted_.erase(it) : std::next(it);
  }
}

void TcpTransport::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) return;
  int lfd = listen_fd_.exchange(-1);
  if (lfd >= 0) ::close(lfd);  // close also deregisters it from epoll

  std::vector<std::shared_ptr<Conn>> all;
  std::vector<IoThread*> ios;
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    for (auto& io : io_threads_) {
      io->stop.store(true, std::memory_order_release);
      uint64_t one = 1;
      (void)!::write(io->wakeup_fd, &one, sizeof(one));
      ios.push_back(io.get());
    }
  }
  // Joined without io_mu_: a reactor takes it on start-up and when it
  // adopts an accepted connection, so joining under it could deadlock.
  for (IoThread* io : ios) {
    if (io->thread.joinable()) io->thread.join();
  }
  for (IoThread* io : ios) {
    std::lock_guard<std::mutex> lock(io->conns_mu);
    for (auto& [_, conn] : io->conns) all.push_back(conn);
    io->conns.clear();
  }
  // With the reactors gone this thread is the closer. A caller reading a
  // connection may be delivering a message (its handler may send, so may
  // take io_mu_): no lock is held while waiting it out.
  for (auto& conn : all) CloseSocket(conn.get());
  for (IoThread* io : ios) {
    ::close(io->epfd);
    ::close(io->wakeup_fd);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns_.clear();
    accepted_.clear();
    learned_.clear();
    all.insert(all.end(), retired_.begin(), retired_.end());
    retired_.clear();
  }
  // Fence the strands, of connections closed earlier too: after Close() no
  // queued DrainInbox body will touch this transport again (undelivered
  // requests are dropped, like the in-flight messages a real crash loses).
  for (auto& conn : all) conn->gate.Close();
}

}  // namespace chariots::net

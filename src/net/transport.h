#ifndef CHARIOTS_NET_TRANSPORT_H_
#define CHARIOTS_NET_TRANSPORT_H_

#include <functional>

#include "common/status.h"
#include "net/message.h"

namespace chariots::net {

/// Callback invoked on a transport delivery thread for each inbound message.
/// Requests normally run on a per-sender strand of the transport's executor
/// (one at a time, FIFO), where a handler may block for bounded durations:
/// a nested Call, an fsync. Responses, and requests the node's
/// InlinePredicate accepts, may instead run inline on the transport's I/O
/// thread (TcpTransport, DESIGN.md §10); such a handler must never block —
/// no nested Call, no fsync, no wait on another node — or it stalls every
/// connection that thread serves. A nested RpcEndpoint::Call from an inline
/// request handler fails fast (see InlineHandlerScope).
using MessageHandler = std::function<void(Message)>;

/// Tells a transport that `msg` (an inbound request, never a response) may
/// run to completion inline on the I/O thread that read it. Must be cheap,
/// thread-safe and non-blocking: it is consulted on the I/O thread for
/// every request, and may read state that decides whether the handler
/// could wait (RpcEndpoint's per-opcode conditions do). A transport is free
/// to ignore it (InProcTransport does).
using InlinePredicate = std::function<bool(const Message& msg)>;

/// Marks the calling thread, for the scope's lifetime, as running a request
/// handler inline on a transport's I/O thread. TcpTransport sets it around
/// exactly that call. RpcEndpoint::Call refuses to wait under it: the reply
/// could need this very thread to be read, so a wrong inline pick fails
/// fast with kUnavailable instead of stalling the reactor until the call
/// times out. Responses and one-way sends are unaffected.
class InlineHandlerScope {
 public:
  InlineHandlerScope() : outer_(active_) { active_ = true; }
  ~InlineHandlerScope() { active_ = outer_; }

  InlineHandlerScope(const InlineHandlerScope&) = delete;
  InlineHandlerScope& operator=(const InlineHandlerScope&) = delete;

  /// True while the calling thread runs an inline request handler.
  static bool active() { return active_; }

 private:
  static inline thread_local bool active_ = false;
  const bool outer_;
};

/// Abstract point-to-point message fabric. Implementations: InProcTransport
/// (simulated latency/bandwidth inside one process) and TcpTransport (real
/// sockets). Delivery is at-most-once and FIFO per (from, to) pair unless a
/// fault model says otherwise.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Binds `node` to `handler`. Fails with AlreadyExists if bound. A null
  /// `may_run_inline` keeps every request on the strand.
  virtual Status Register(const NodeId& node, MessageHandler handler,
                          InlinePredicate may_run_inline = nullptr) = 0;

  /// Removes a binding; in-flight messages to the node are dropped.
  virtual Status Unregister(const NodeId& node) = 0;

  /// Queues `msg` for delivery to `msg.to`. Returns NotFound if the
  /// destination was never registered (delivery failures after a successful
  /// Send are silent, like a real network).
  virtual Status Send(Message msg) = 0;
};

}  // namespace chariots::net

#endif  // CHARIOTS_NET_TRANSPORT_H_

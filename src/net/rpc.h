#ifndef CHARIOTS_NET_RPC_H_
#define CHARIOTS_NET_RPC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/result.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/trace.h"
#include "net/transport.h"

namespace chariots::metrics {
class Histogram;
}  // namespace chariots::metrics

namespace chariots::net {

/// Per-call options: a per-attempt timeout plus an optional overall
/// Deadline. The effective wait is the smaller of the two, so one Deadline
/// can budget a whole retry loop across attempts (see RetryingChannel).
struct CallOptions {
  std::chrono::milliseconds timeout{5000};
  Deadline deadline;  ///< infinite by default
  /// When active, rides in the request message header so the server can
  /// continue the trace (see CurrentRpcTrace()).
  trace::TraceContext trace;
};

/// Trace context of the RPC request currently being handled on this thread.
/// Handlers run on a transport delivery thread (a strand worker, or the I/O
/// thread for inline handlers), synchronously, so a handler (or code it
/// calls synchronously) reads the inbound trace here; inactive when the
/// request carried none.
const trace::TraceContext& CurrentRpcTrace();

/// Request/response layer over a Transport. One endpoint per logical node.
///
/// Server side: register per-opcode handlers, then Start(). Handlers return
/// the response payload or an error Status (which travels back as an error
/// response). Handle() handlers run on the transport's per-connection
/// strand and may block for bounded durations (nested Calls, fsync).
/// HandleInline() handlers promise never to block — unconditionally, or
/// whenever their condition holds at dispatch — so a transport may run
/// them to completion on its I/O thread (TcpTransport does when the
/// connection's strand is idle), saving the executor handoff. It is the
/// same handler either way; only the thread that runs it changes.
///
/// Client side: Call() blocks for the response with a timeout; Notify() is
/// fire-and-forget. Over TcpTransport the calling thread reads its own
/// reply from the endpoint's connection (Transport::SendAwaitingReply), so
/// no I/O-thread wake-up sits between the reply and the caller. A Call()
/// from a request handler running inline on an I/O thread fails at once
/// with kUnavailable (InlineHandlerScope).
class RpcEndpoint {
 public:
  using RpcHandler =
      std::function<Result<std::string>(const NodeId& from,
                                        const std::string& payload)>;
  /// One-way message handler (no response is sent).
  using OneWayHandler =
      std::function<void(const NodeId& from, std::string payload)>;

  RpcEndpoint(Transport* transport, NodeId node);
  ~RpcEndpoint();

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  /// Registers a request handler for `type`. Must precede Start().
  void Handle(uint16_t type, RpcHandler handler);

  /// Predicate evaluated on the transport's I/O thread for each request of
  /// an inline opcode: true when the handler cannot block right now. Must
  /// be cheap, thread-safe and non-blocking itself.
  using InlineCondition = std::function<bool()>;

  /// Registers a request handler for `type` that makes no nested Call,
  /// does no fsync and never waits on another node — always (null
  /// `condition`) or whenever `condition` holds. A request whose condition
  /// fails runs the same handler on the strand. Must precede Start(),
  /// which freezes the inline opcode set.
  void HandleInline(uint16_t type, RpcHandler handler,
                    InlineCondition condition = nullptr);

  /// Registers a one-way handler for `type`. Must precede Start().
  void HandleOneWay(uint16_t type, OneWayHandler handler);

  /// Binds to the transport and begins serving.
  Status Start();

  /// Unbinds; outstanding Calls fail with Unavailable. Every handler that
  /// returned before Stop() happens-before Stop() returns.
  void Stop();

  /// Sends a request and blocks for the response (bounded by the per-call
  /// timeout and deadline). An unreachable destination surfaces as
  /// kUnavailable and an expired budget as kTimedOut — both retryable; all
  /// other codes come from the remote handler. The request goes out through
  /// the transport's await-reply hook, which may read the reply on this
  /// thread (a connection lost meanwhile fails the call with kUnavailable
  /// at once); the wait on the call's condition variable is the only
  /// blocking step otherwise, and returns at once when the hook already
  /// delivered the reply. Under an InlineHandlerScope it sends nothing and
  /// returns kUnavailable.
  Result<std::string> Call(const NodeId& to, uint16_t type,
                           std::string payload, const CallOptions& options);

  Result<std::string> Call(const NodeId& to, uint16_t type,
                           std::string payload,
                           std::chrono::milliseconds timeout =
                               std::chrono::milliseconds(5000)) {
    CallOptions options;
    options.timeout = timeout;
    return Call(to, type, std::move(payload), options);
  }

  /// Fire-and-forget notification.
  Status Notify(const NodeId& to, uint16_t type, std::string payload);

  const NodeId& node() const { return node_; }

 private:
  struct PendingCall {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    std::string response;
  };

  void OnMessage(Message msg);
  /// Ends a handler invocation under mu_, which orders it before a later
  /// Stop(): the owner may then destroy what the handler touched.
  void EndHandler();
  /// net.rpc.call_latency_ns.<channel of `to`>, resolved once per channel.
  /// Caller holds mu_.
  metrics::Histogram* CallLatencyHistogram(const NodeId& to);

  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  Transport* const transport_;
  const NodeId node_;

  std::mutex mu_;
  bool started_ = false;
  std::unordered_map<uint16_t, RpcHandler> handlers_;
  std::unordered_map<uint16_t, InlineCondition> inline_types_;
  std::unordered_map<uint16_t, OneWayHandler> oneway_handlers_;
  std::unordered_map<uint64_t, std::shared_ptr<PendingCall>> pending_;
  std::unordered_map<std::string, metrics::Histogram*, StringHash,
                     std::equal_to<>>
      call_latency_;
  std::atomic<uint64_t> next_rpc_id_{1};
};

}  // namespace chariots::net

#endif  // CHARIOTS_NET_RPC_H_

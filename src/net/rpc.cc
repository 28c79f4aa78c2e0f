#include "net/rpc.h"

#include <algorithm>

#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace chariots::net {

namespace {

thread_local trace::TraceContext t_current_rpc_trace;

// Sets the delivery thread's current-request trace for the duration of a
// handler invocation.
class ScopedRpcTrace {
 public:
  explicit ScopedRpcTrace(trace::TraceContext ctx) {
    t_current_rpc_trace = std::move(ctx);
  }
  ~ScopedRpcTrace() { t_current_rpc_trace = trace::TraceContext{}; }
};

// Channel label for per-channel RPC metrics: the first path component of
// the destination node id ("geo/dc0/api" -> "geo", "m3" -> "m3" — flat ids
// are their own channel).
std::string ChannelOf(const NodeId& to) {
  size_t slash = to.find('/');
  return slash == std::string::npos ? to : to.substr(0, slash);
}

metrics::Counter* CallCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.rpc.calls");
  return c;
}

metrics::Counter* CallErrorCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.rpc.call_errors");
  return c;
}

metrics::Counter* CallTimeoutCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.rpc.call_timeouts");
  return c;
}

metrics::Counter* HandledCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.rpc.requests_handled");
  return c;
}

metrics::Counter* HandlerErrorCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.rpc.handler_errors");
  return c;
}

}  // namespace

const trace::TraceContext& CurrentRpcTrace() { return t_current_rpc_trace; }

RpcEndpoint::RpcEndpoint(Transport* transport, NodeId node)
    : transport_(transport), node_(std::move(node)) {}

RpcEndpoint::~RpcEndpoint() { Stop(); }

void RpcEndpoint::Handle(uint16_t type, RpcHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[type] = std::move(handler);
  inline_types_.erase(type);
}

void RpcEndpoint::HandleInline(uint16_t type, RpcHandler handler,
                               InlineCondition condition) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[type] = std::move(handler);
  inline_types_[type] = std::move(condition);
}

void RpcEndpoint::HandleOneWay(uint16_t type, OneWayHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  oneway_handlers_[type] = std::move(handler);
}

Status RpcEndpoint::Start() {
  std::unordered_map<uint16_t, InlineCondition> inline_types;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::FailedPrecondition("endpoint started");
    started_ = true;
    inline_types = inline_types_;
  }
  InlinePredicate may_run_inline;
  if (!inline_types.empty()) {
    // A frozen copy of the opcode set, consulted on the transport's I/O
    // thread without this endpoint's lock; the opcode's condition (if any)
    // is evaluated per request. One-way messages (rpc_id 0) share opcodes
    // with requests and stay on the strand.
    may_run_inline = [types = std::move(inline_types)](const Message& msg) {
      if (msg.rpc_id == 0) return false;
      auto it = types.find(msg.type);
      return it != types.end() && (!it->second || it->second());
    };
  }
  return transport_->Register(
      node_, [this](Message msg) { OnMessage(std::move(msg)); },
      std::move(may_run_inline));
}

void RpcEndpoint::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    started_ = false;
    for (auto& [_, call] : pending_) {
      std::lock_guard<std::mutex> cl(call->mu);
      call->done = true;
      call->status = Status::Unavailable("endpoint stopped");
      call->cv.notify_all();
    }
    pending_.clear();
  }
  (void)transport_->Unregister(node_);
}

void RpcEndpoint::OnMessage(Message msg) {
  if (msg.is_response) {
    std::shared_ptr<PendingCall> call;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(msg.rpc_id);
      if (it == pending_.end()) return;  // late response; already timed out
      call = it->second;
      pending_.erase(it);
    }
    std::lock_guard<std::mutex> cl(call->mu);
    call->done = true;
    if (msg.error_code != 0) {
      call->status =
          Status(static_cast<StatusCode>(msg.error_code), msg.payload);
    } else {
      call->response = std::move(msg.payload);
    }
    call->cv.notify_all();
    return;
  }

  if (msg.rpc_id == 0) {
    OneWayHandler handler;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = oneway_handlers_.find(msg.type);
      if (it != oneway_handlers_.end()) handler = it->second;
    }
    if (handler) {
      handler(msg.from, std::move(msg.payload));
      EndHandler();
    } else {
      LOG_WARN << node_ << ": no one-way handler for type " << msg.type;
    }
    return;
  }

  RpcHandler handler;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = handlers_.find(msg.type);
    if (it != handlers_.end()) handler = it->second;
  }

  Message reply;
  reply.from = node_;
  reply.to = msg.from;
  reply.type = msg.type;
  reply.rpc_id = msg.rpc_id;
  reply.is_response = true;
  if (!handler) {
    reply.error_code = static_cast<uint8_t>(StatusCode::kNotSupported);
    reply.payload = "no handler for opcode";
  } else {
    HandledCounter()->Add();
    flightrec::Record(flightrec::EventType::kRpcStart, msg.type, 0, msg.rpc_id,
                      msg.payload.size());
    ScopedRpcTrace scoped_trace(std::move(msg.trace));
    Result<std::string> result = handler(msg.from, msg.payload);
    if (result.ok()) {
      reply.payload = std::move(result).value();
    } else {
      HandlerErrorCounter()->Add();
      reply.error_code = static_cast<uint8_t>(result.status().code());
      reply.payload = result.status().message();
    }
    flightrec::Record(flightrec::EventType::kRpcEnd, msg.type,
                      reply.error_code, msg.rpc_id, reply.payload.size());
  }
  (void)transport_->Send(std::move(reply));
  EndHandler();
}

void RpcEndpoint::EndHandler() { std::lock_guard<std::mutex> lock(mu_); }

Result<std::string> RpcEndpoint::Call(const NodeId& to, uint16_t type,
                                      std::string payload,
                                      const CallOptions& options) {
  if (options.deadline.Expired()) {
    return Deadline::ExceededError("rpc to " + to);
  }
  CallCounter()->Add();
  if (InlineHandlerScope::active()) {
    // The reply could need this I/O thread to be read: waiting would stall
    // the reactor until the timeout. Fail fast, retryable, like an
    // unreachable peer — the caller's own failure path takes over.
    CallErrorCounter()->Add();
    LOG_EVERY_N_SEC(kWarn, 5)
        << node_ << ": refused rpc to " << to
        << " from a request handler running inline on an I/O thread";
    return Status::Unavailable("rpc to " + to +
                               " from an inline handler refused");
  }
  metrics::ScopedLatencyTimer latency(metrics::Registry::Default().GetHistogram(
      "net.rpc.call_latency_ns." + ChannelOf(to)));
  auto call = std::make_shared<PendingCall>();
  uint64_t rpc_id = next_rpc_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return Status::FailedPrecondition("endpoint not started");
    pending_.emplace(rpc_id, call);
  }

  Message msg;
  msg.from = node_;
  msg.to = to;
  msg.type = type;
  msg.rpc_id = rpc_id;
  msg.payload = std::move(payload);
  msg.trace = options.trace;
  Status send_status = transport_->Send(std::move(msg));
  if (!send_status.ok()) {
    CallErrorCounter()->Add();
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(rpc_id);
    }
    if (send_status.IsNotFound()) {
      // The destination has no binding right now (crashed, restarting, or
      // not yet up). To the caller that is a transient reachability
      // failure, not a data-level NotFound — report it retryable.
      return Status::Unavailable("destination not reachable: " + to);
    }
    return send_status;
  }

  auto wait = std::chrono::nanoseconds(options.timeout);
  if (!options.deadline.IsInfinite()) {
    wait = std::min(
        wait, std::chrono::nanoseconds(options.deadline.RemainingNanos()));
  }
  std::unique_lock<std::mutex> cl(call->mu);
  if (!call->cv.wait_for(cl, wait, [&] { return call->done; })) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(rpc_id);
    }
    CallTimeoutCounter()->Add();
    if (options.deadline.Expired()) {
      return Deadline::ExceededError("rpc to " + to);
    }
    return Status::TimedOut("rpc to " + to + " timed out");
  }
  if (!call->status.ok()) {
    CallErrorCounter()->Add();
    return call->status;
  }
  return std::move(call->response);
}

Status RpcEndpoint::Notify(const NodeId& to, uint16_t type,
                           std::string payload) {
  Message msg;
  msg.from = node_;
  msg.to = to;
  msg.type = type;
  msg.rpc_id = 0;
  msg.payload = std::move(payload);
  return transport_->Send(std::move(msg));
}

}  // namespace chariots::net

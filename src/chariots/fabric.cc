#include "chariots/fabric.h"

#include "common/codec.h"

namespace chariots::geo {

// ---------------------------------------------------------------- direct

Status DirectFabric::RegisterReceiver(DatacenterId dc, Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!handlers_.emplace(dc, std::move(handler)).second) {
    return Status::AlreadyExists("datacenter already registered");
  }
  return Status::OK();
}

Status DirectFabric::Unregister(DatacenterId dc) {
  std::lock_guard<std::mutex> lock(mu_);
  if (handlers_.erase(dc) == 0) return Status::NotFound("datacenter");
  return Status::OK();
}

Status DirectFabric::Send(DatacenterId from, DatacenterId to,
                          std::string payload) {
  Handler handler;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = handlers_.find(to);
    if (it == handlers_.end()) return Status::NotFound("datacenter");
    handler = it->second;
  }
  handler(from, std::move(payload));
  return Status::OK();
}

// ------------------------------------------------------------- transport

namespace {
constexpr uint16_t kReplicationOpcode = 100;
}  // namespace

TransportFabric::TransportFabric(net::Transport* transport)
    : transport_(transport) {}

TransportFabric::~TransportFabric() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [dc, _] : registered_) {
    (void)transport_->Unregister(NodeFor(dc));
  }
}

std::string TransportFabric::NodeFor(DatacenterId dc) {
  return "geo/dc" + std::to_string(dc) + "/receiver";
}

Status TransportFabric::RegisterReceiver(DatacenterId dc, Handler handler) {
  // Inline: the receiver never blocks (it sheds when the pipeline is
  // congested), so a replication batch runs to completion on the
  // transport's I/O thread when the connection's strand is idle.
  CHARIOTS_RETURN_IF_ERROR(transport_->Register(
      NodeFor(dc),
      [handler = std::move(handler)](net::Message msg) {
        // Sender id travels in the first 4 payload bytes.
        BinaryReader r(msg.payload);
        uint32_t from = 0;
        if (!r.GetU32(&from).ok()) return;
        handler(from, msg.payload.substr(4));
      },
      [](const net::Message&) { return true; }));
  std::lock_guard<std::mutex> lock(mu_);
  registered_[dc] = true;
  return Status::OK();
}

Status TransportFabric::Unregister(DatacenterId dc) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    registered_.erase(dc);
  }
  return transport_->Unregister(NodeFor(dc));
}

Status TransportFabric::Send(DatacenterId from, DatacenterId to,
                             std::string payload) {
  net::Message msg;
  msg.from = NodeFor(from);
  msg.to = NodeFor(to);
  msg.type = kReplicationOpcode;
  BinaryWriter w;
  w.PutU32(from);
  w.PutRaw(payload);
  msg.payload = std::move(w).data();
  return transport_->Send(std::move(msg));
}

}  // namespace chariots::geo

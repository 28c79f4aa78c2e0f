#ifndef CHARIOTS_CHARIOTS_FABRIC_H_
#define CHARIOTS_CHARIOTS_FABRIC_H_

#include <functional>
#include <mutex>
#include <unordered_map>

#include "chariots/record.h"
#include "common/status.h"
#include "net/rpc.h"
#include "net/transport.h"

namespace chariots::geo {

/// Inter-datacenter message fabric: moves opaque replication payloads
/// between datacenters. Implementations differ in realism; the Chariots
/// logic above is identical.
class ReplicationFabric {
 public:
  using Handler = std::function<void(DatacenterId from, std::string payload)>;

  virtual ~ReplicationFabric() = default;

  /// Binds the receiving side of datacenter `dc`. `handler` must never
  /// block: TransportFabric may run it on the transport's I/O thread.
  virtual Status RegisterReceiver(DatacenterId dc, Handler handler) = 0;
  virtual Status Unregister(DatacenterId dc) = 0;

  /// Ships `payload` from `from` to `to`. Best-effort: loss surfaces as a
  /// missing delivery, not an error.
  virtual Status Send(DatacenterId from, DatacenterId to,
                      std::string payload) = 0;
};

/// Synchronous in-process fabric: Send() invokes the destination handler on
/// the caller thread. Zero latency; useful for unit tests and benches where
/// WAN behaviour is out of scope.
class DirectFabric : public ReplicationFabric {
 public:
  Status RegisterReceiver(DatacenterId dc, Handler handler) override;
  Status Unregister(DatacenterId dc) override;
  Status Send(DatacenterId from, DatacenterId to,
              std::string payload) override;

 private:
  std::mutex mu_;
  std::unordered_map<DatacenterId, Handler> handlers_;
};

/// Fabric over a net::Transport (in-process simulated WAN or TCP): each
/// datacenter is the node "geo/dc<N>"; payloads travel as one-way messages,
/// so latency, bandwidth caps, partitions and message loss configured on the
/// transport all apply to replication traffic.
class TransportFabric : public ReplicationFabric {
 public:
  explicit TransportFabric(net::Transport* transport);
  ~TransportFabric() override;

  Status RegisterReceiver(DatacenterId dc, Handler handler) override;
  Status Unregister(DatacenterId dc) override;
  Status Send(DatacenterId from, DatacenterId to,
              std::string payload) override;

  /// The transport node id used for datacenter `dc`.
  static std::string NodeFor(DatacenterId dc);

 private:
  net::Transport* const transport_;
  std::mutex mu_;
  std::unordered_map<DatacenterId, bool> registered_;
};

}  // namespace chariots::geo

#endif  // CHARIOTS_CHARIOTS_FABRIC_H_

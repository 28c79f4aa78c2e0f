#ifndef CHARIOTS_CHARIOTS_GEO_SERVICE_H_
#define CHARIOTS_CHARIOTS_GEO_SERVICE_H_

#include <atomic>
#include <string>
#include <vector>

#include "chariots/datacenter.h"
#include "common/watchdog.h"
#include "net/rpc.h"

namespace chariots::geo {

/// RPC opcodes for the datacenter's client-facing service. (Replication
/// between datacenters uses the fabric directly; these opcodes are for
/// application clients running outside the datacenter process.) The same
/// endpoint also serves the admin opcodes of net/admin.h.
enum GeoOpcode : uint16_t {
  kGeoAppend = 50,     ///< body + tags + deps -> toid + lid (waits durable)
  kGeoRead = 51,       ///< u64 lid -> encoded GeoRecord + lid
  kGeoHead = 52,       ///< () -> u64 head lid
  kGeoLookup = 53,     ///< IndexQuery -> postings
  kGeoReadByToid = 54, ///< u32 host + u64 toid -> encoded GeoRecord + lid
  /// Batched range read: u64 from + u32 limit -> u32 n + n × (record +
  /// lid). N sequential reads cost one round trip instead of N.
  kGeoReadRange = 57,
};

/// Observability knobs for GeoServer (all default-off, preserving existing
/// deployments byte for byte).
struct GeoServerOptions {
  /// Health-watchdog tick period (0 = on-demand via the admin health RPC
  /// only). The watchdog's probes cover the datacenter's pipeline (filter
  /// inboxes, pending backlog).
  int64_t watchdog_interval_nanos = 0;
  /// Executor for the periodic watchdog tick (null = Executor::Default()).
  Executor* executor = nullptr;
  /// Clock for health-report timestamps (null = system).
  Clock* clock = nullptr;
  /// Breach-snapshot file ("" = in-memory snapshot only).
  std::string breach_dump_path;
};

/// Hosts a Datacenter's client API on the RPC fabric, so application
/// clients can run as separate processes (see tools/chariots_node
/// --role=datacenter).
class GeoServer {
 public:
  /// `node` is this server's address (e.g. "geo/dc0/api").
  GeoServer(net::Transport* transport, net::NodeId node, Datacenter* dc,
            GeoServerOptions options = {});
  ~GeoServer();

  Status Start();
  void Stop();

  Watchdog& watchdog() { return watchdog_; }

 private:
  Datacenter* const dc_;
  GeoServerOptions options_;
  net::RpcEndpoint endpoint_;
  Watchdog watchdog_;
};

/// Remote-process counterpart of ChariotsClient: the same append/read
/// interface with causal dependency tracking, over RPC.
class GeoRpcClient {
 public:
  GeoRpcClient(net::Transport* transport, net::NodeId node,
               net::NodeId server);
  ~GeoRpcClient();

  Status Start();
  void Stop();

  /// Appends and waits until durable at the datacenter; returns
  /// (toid, lid). The session's causal dependencies ride along.
  Result<std::pair<TOId, flstore::LId>> Append(
      std::string body, std::vector<flstore::Tag> tags = {});

  /// Reads by local position, absorbing causal dependencies.
  Result<GeoRecord> Read(flstore::LId lid);

  /// Reads by replication identity.
  Result<GeoRecord> ReadByToid(DatacenterId host, TOId toid);

  Result<flstore::LId> Head();

  Result<std::vector<flstore::Posting>> Lookup(
      const flstore::IndexQuery& query);

  /// Batched range read: up to `limit` records in [from, head), in one
  /// round trip, absorbing causal dependencies from every record returned.
  Result<std::vector<GeoRecord>> ReadRange(flstore::LId from, size_t limit);

  /// Most recent record with `tag_key` as of `before_lid` (kInvalidLId =
  /// current head), absorbing causal dependencies.
  Result<GeoRecord> ReadMostRecent(const std::string& tag_key,
                                   flstore::LId before_lid =
                                       flstore::kInvalidLId);

 private:
  void Absorb(const GeoRecord& record);

  net::RpcEndpoint endpoint_;
  const net::NodeId server_;
  std::mutex mu_;
  DepVector deps_;
  /// Client-side append sequence, used only to decide which appends start a
  /// sampled trace (every 1024th, plus the first).
  std::atomic<uint64_t> append_seq_{0};
};

}  // namespace chariots::geo

#endif  // CHARIOTS_CHARIOTS_GEO_SERVICE_H_

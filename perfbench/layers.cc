// Direct per-layer probes of the traced run. Each drives one layer's public
// entry point with the workload's record shape and keeps one span per call;
// the reported value is the median span.
#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "chariots/fabric.h"
#include "chariots/record.h"
#include "flstore/maintainer.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"
#include "storage/io_engine.h"
#include "storage/log_store.h"
#include "workloads.h"

namespace perfbench {

namespace fl = chariots::flstore;
namespace geo = chariots::geo;
namespace net = chariots::net;
namespace storage = chariots::storage;

namespace {

/// Session ids stamped into probe bodies (distinct from the workloads').
constexpr uint32_t kProbeSession = 200;

storage::LogStoreOptions StoreOptions(const LayerShape& shape,
                                      const std::string& name) {
  storage::LogStoreOptions so;
  so.dir = shape.work_dir + "/" + name;
  std::filesystem::remove_all(so.dir);
  std::filesystem::create_directories(so.dir);
  so.mode = storage::SyncMode::kBuffered;
  so.io_engine = storage::ResolveIoEngine("sync");
  return so;
}

/// Each probe times calls for this long.
constexpr int64_t kProbeNanos = 300'000'000;

int64_t ProbeEnd() { return NowNanos() + kProbeNanos; }

/// Index of the next read among `n` written records, drawn as the workload
/// draws its reads.
uint64_t ReadIndex(Rng* rng, uint64_t n) {
  return n - 1 - ReadDistance(rng->Uniform(), n);
}

/// A replicated record as the geo pipeline stores and ships it.
std::string EncodedGeoRecord(const LayerShape& shape, uint64_t i) {
  geo::GeoRecord r;
  r.host = 0;
  r.toid = i + 1;
  r.deps = {i, i};
  r.body = MakeBody(shape.seed, kProbeSession, i, shape.record_bytes);
  return geo::EncodeGeoRecord(r);
}

}  // namespace

void ProbeRpc(const LayerShape& shape, Outcome* out) {
  net::TcpTransport server;
  net::TcpTransport client;
  if (!server.Listen(0).ok() || !client.Listen(0).ok()) {
    out->Violation("rpc probe: listen failed");
    return;
  }
  client.AddRoute("echo", "127.0.0.1", server.port());
  const std::string reply(shape.reply_bytes, 'r');
  net::RpcEndpoint echo(&server, "echo/node");
  echo.Handle(1, [&reply](const net::NodeId&, const std::string&)
                     -> chariots::Result<std::string> { return reply; });
  net::RpcEndpoint caller(&client, "caller/node");
  if (!echo.Start().ok() || !caller.Start().ok()) {
    out->Violation("rpc probe: endpoint start failed");
    return;
  }
  Samples spans;
  int64_t end = ProbeEnd();
  for (uint64_t i = 0; NowNanos() < end; ++i) {
    std::string request =
        MakeBody(shape.seed, kProbeSession, i, shape.request_bytes);
    int64_t t0 = NowNanos();
    auto r = caller.Call("echo/node", 1, std::move(request));
    spans.Add(NowNanos() - t0);
    if (!r.ok() || r->size() != reply.size()) {
      out->Violation("rpc probe: call failed: " + r.status().ToString());
      break;
    }
  }
  caller.Stop();
  echo.Stop();
  out->Add("net.rpc_rtt_us", spans.PercentileUs(0.5), "us", spans.count());
}

void ProbeStorage(const LayerShape& shape, Outcome* out) {
  storage::LogStore store(StoreOptions(shape, "log_store"));
  if (!store.Open().ok()) {
    out->Violation("storage probe: open failed");
    return;
  }
  Samples appends;
  uint64_t n = 0;
  for (int64_t end = ProbeEnd(); NowNanos() < end; ++n) {
    std::string body = MakeBody(shape.seed, kProbeSession, n, shape.record_bytes);
    storage::AppendEntry entry{n, body};
    int64_t t0 = NowNanos();
    chariots::Status s = store.AppendBatch({&entry, 1});
    appends.Add(NowNanos() - t0);
    if (!s.ok()) {
      out->Violation("storage probe: append failed: " + s.ToString());
      return;
    }
  }
  out->Add("storage.append_us", appends.PercentileUs(0.5), "us",
           appends.count());
  if (!shape.reads) {
    out->Add("storage.read_us", 0.0, "us", 0);
    return;
  }
  Samples reads;
  Rng rng(DeriveSeed(shape.seed, "probe/storage"));
  for (int64_t end = ProbeEnd(); NowNanos() < end;) {
    uint64_t lid = ReadIndex(&rng, n);
    int64_t t0 = NowNanos();
    auto got = store.Get(lid);
    reads.Add(NowNanos() - t0);
    if (!got.ok() ||
        *got != MakeBody(shape.seed, kProbeSession, lid, shape.record_bytes)) {
      out->Violation("storage probe: read of " + std::to_string(lid) +
                     " wrong");
      return;
    }
  }
  out->Add("storage.read_us", reads.PercentileUs(0.5), "us", reads.count());
}

void ProbeMaintainer(const LayerShape& shape, Outcome* out) {
  fl::MaintainerOptions mo;
  mo.index = 0;
  mo.journal = fl::EpochJournal(3, 1000);
  mo.store = StoreOptions(shape, "maintainer");
  fl::LogMaintainer m(mo);
  if (!m.Open().ok()) {
    out->Violation("maintainer probe: open failed");
    return;
  }
  Samples appends;
  std::vector<fl::LId> lids;
  for (int64_t end = ProbeEnd(); NowNanos() < end;) {
    fl::LogRecord record;
    record.body =
        MakeBody(shape.seed, kProbeSession, lids.size(), shape.record_bytes);
    int64_t t0 = NowNanos();
    auto lid = m.Append(record);
    appends.Add(NowNanos() - t0);
    if (!lid.ok()) {
      out->Violation("maintainer probe: append failed");
      return;
    }
    lids.push_back(*lid);
  }
  out->Add("flstore.maintainer_append_us", appends.PercentileUs(0.5), "us",
           appends.count());
  if (!shape.reads) {
    out->Add("flstore.maintainer_read_us", 0.0, "us", 0);
    return;
  }
  Samples reads;
  Rng rng(DeriveSeed(shape.seed, "probe/maintainer"));
  for (int64_t end = ProbeEnd(); NowNanos() < end;) {
    uint64_t k = ReadIndex(&rng, lids.size());
    int64_t t0 = NowNanos();
    auto got = m.Read(lids[k]);
    reads.Add(NowNanos() - t0);
    if (!got.ok() ||
        got->body != MakeBody(shape.seed, kProbeSession, k, shape.record_bytes)) {
      out->Violation("maintainer probe: read wrong");
      return;
    }
  }
  out->Add("flstore.maintainer_read_us", reads.PercentileUs(0.5), "us",
           reads.count());
}

void ProbeMaintainerAppendAt(const LayerShape& shape, Outcome* out) {
  // The geo default: one maintainer per datacenter, LIds assigned by the
  // token in order.
  fl::MaintainerOptions mo;
  mo.journal = fl::EpochJournal(1, 1000);
  mo.store = StoreOptions(shape, "maintainer_at");
  fl::LogMaintainer m(mo);
  if (!m.Open().ok()) {
    out->Violation("maintainer probe: open failed");
    return;
  }
  Samples spans;
  int64_t end = ProbeEnd();
  for (uint64_t i = 0; NowNanos() < end; ++i) {
    fl::LogRecord record;
    record.body = EncodedGeoRecord(shape, i);
    int64_t t0 = NowNanos();
    chariots::Status s = m.AppendAt(i, record);
    spans.Add(NowNanos() - t0);
    if (!s.ok()) {
      out->Violation("maintainer probe: AppendAt failed: " + s.ToString());
      return;
    }
  }
  (void)m.Close();
  out->Add("chariots.maintainer_append_us", spans.PercentileUs(0.5), "us",
           spans.count());
}

void ProbeFabricSend(const LayerShape& shape, Outcome* out) {
  net::TcpTransport n0;
  net::TcpTransport n1;
  if (!n0.Listen(0).ok() || !n1.Listen(0).ok()) {
    out->Violation("fabric probe: listen failed");
    return;
  }
  n0.AddRoute("geo/dc1", "127.0.0.1", n1.port());
  geo::TransportFabric f0(&n0);
  geo::TransportFabric f1(&n1);
  std::atomic<uint64_t> arrivals{0};
  std::atomic<int64_t> arrived_at{0};
  if (!f1.RegisterReceiver(1, [&](geo::DatacenterId, std::string) {
            arrived_at.store(NowNanos(), std::memory_order_relaxed);
            arrivals.fetch_add(1, std::memory_order_release);
          }).ok()) {
    out->Violation("fabric probe: register failed");
    return;
  }
  Samples spans;
  int64_t end = ProbeEnd();
  for (uint64_t i = 0; NowNanos() < end; ++i) {
    std::string payload = EncodedGeoRecord(shape, i);
    int64_t t0 = NowNanos();
    if (!f0.Send(0, 1, std::move(payload)).ok() ||
        !WaitFor([&] { return arrivals.load(std::memory_order_acquire) > i; },
                 5'000'000'000)) {
      out->Violation("fabric probe: message lost");
      break;
    }
    spans.Add(arrived_at.load(std::memory_order_relaxed) - t0);
  }
  (void)f1.Unregister(1);
  out->Add("chariots.fabric_send_us", spans.PercentileUs(0.5), "us",
           spans.count());
}

}  // namespace perfbench

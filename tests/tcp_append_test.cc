// FLStore appends over TCP loopback: which appends run to completion on the
// reactor and which hand off to a strand (DESIGN.md §10), and that the
// choice never stalls a replicated stripe or loses exactly-once.
//
// Handoffs are read from the process-wide net.tcp.requests_inline /
// net.tcp.requests_queued counters, so the gates hold on any host.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "common/latch.h"
#include "common/metrics.h"
#include "flstore/client.h"
#include "flstore/service.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"
#include "storage/io_engine.h"

namespace chariots::flstore {
namespace {

using namespace std::chrono_literals;
namespace fs = std::filesystem;

constexpr char kController[] = "ctrl/node";
constexpr char kCoordinator[] = "m0/node";
constexpr char kReplica[] = "r0/node";

uint64_t CounterValue(const char* name) {
  return metrics::Registry::Default().GetCounter(name)->Value();
}

/// Request handoffs on the server side since construction.
struct HandoffDelta {
  uint64_t inline0 = CounterValue("net.tcp.requests_inline");
  uint64_t queued0 = CounterValue("net.tcp.requests_queued");
  uint64_t inlined() const {
    return CounterValue("net.tcp.requests_inline") - inline0;
  }
  uint64_t queued() const {
    return CounterValue("net.tcp.requests_queued") - queued0;
  }
};

LogRecord Rec(const std::string& body) {
  LogRecord rec;
  rec.body = body;
  return rec;
}

/// Lets a test hold one store write mid-append: the next Appendv after
/// Arm() blocks until Release(), then writes through the sync engine.
class GatedIoEngine : public storage::IoEngine {
 public:
  const char* name() const override { return "gated"; }

  Status Appendv(int fd, std::span<const std::string_view> parts,
                 bool sync) override {
    if (armed_.exchange(false)) {
      entered_.CountDown();
      release_.WaitFor(10s);
    }
    return storage::SyncIoEngine()->Appendv(fd, parts, sync);
  }

  Status Fsync(int fd) override { return storage::SyncIoEngine()->Fsync(fd); }

  void Arm() { armed_ = true; }
  bool WaitEntered() { return entered_.WaitFor(5s); }
  void Release() { release_.CountDown(); }

 private:
  std::atomic<bool> armed_{false};
  CountDownLatch entered_{1};
  CountDownLatch release_{1};
};

/// Wiring for one stripe over TCP loopback.
struct StripeConfig {
  storage::SyncMode mode = storage::SyncMode::kBuffered;
  /// Run a replica (RF=2) on its own transport from the start.
  bool replicated = false;
  /// Start the replica process even for a solo stripe, so a reconfigure
  /// can add it later.
  bool spare_replica = false;
  storage::IoEngine* io_engine = nullptr;
};

/// A controller and a stripe coordinator on one server TcpTransport, an
/// optional replica on a second TcpTransport, and a client session on a
/// third — every append and INV round crosses a real socket.
class TcpStripe {
 public:
  explicit TcpStripe(const std::string& name, StripeConfig config = {})
      : dir_(fs::temp_directory_path() /
             ("chariots_tcp_append_" + name + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    EXPECT_TRUE(server_side_.Listen(0).ok());
    EXPECT_TRUE(replica_side_.Listen(0).ok());
    server_side_.AddRoute("r0", "127.0.0.1", replica_side_.port());
    client_side_.AddRoute("ctrl", "127.0.0.1", server_side_.port());
    client_side_.AddRoute("m0", "127.0.0.1", server_side_.port());
    client_side_.AddRoute("r0", "127.0.0.1", replica_side_.port());

    ClusterInfo info;
    info.journal = EpochJournal(1, 4);
    info.maintainers = {kCoordinator};
    info.fence_epochs = {1};
    if (config.replicated) info.replicas = {{kReplica}};
    controller_ =
        std::make_unique<ControllerServer>(&server_side_, kController, info);
    EXPECT_TRUE(controller_->Start().ok());

    if (config.replicated || config.spare_replica) {
      MaintainerOptions mo;
      mo.journal = info.journal;
      mo.store.mode = storage::SyncMode::kMemoryOnly;
      MaintainerServer::Options so;
      so.node = kReplica;
      so.peers = {kCoordinator};
      so.replica.role = ReplicaRole::kReplica;
      replica_ =
          std::make_unique<MaintainerServer>(&replica_side_, mo, so);
      EXPECT_TRUE(replica_->Start().ok());
    }

    MaintainerOptions mo;
    mo.journal = info.journal;
    mo.store.mode = config.mode;
    mo.store.dir = (dir_ / "m0").string();
    mo.store.io_engine = config.io_engine != nullptr
                             ? config.io_engine
                             : storage::SyncIoEngine();
    MaintainerServer::Options so;
    so.node = kCoordinator;
    so.peers = {kCoordinator};
    if (config.replicated) {
      so.replica.role = ReplicaRole::kCoordinator;
      so.replica.peers = {kReplica};
      so.replica.invalidate_timeout = 1000ms;
    }
    coordinator_ =
        std::make_unique<MaintainerServer>(&server_side_, mo, so);
    EXPECT_TRUE(coordinator_->Start().ok());

    client_ = std::make_unique<FLStoreClient>(&client_side_, "client/a",
                                              kController);
    EXPECT_TRUE(client_->Start().ok());
  }

  ~TcpStripe() {
    client_->Stop();
    coordinator_->Stop();
    if (replica_) replica_->Stop();
    controller_->Stop();
    client_side_.Shutdown();
    replica_side_.Shutdown();
    server_side_.Shutdown();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Appends until one runs inline; returns how many it took. The
  /// session's Start() ran a strand RPC (kGetClusterInfo) on this
  /// connection, and until that strand task has wound down a request
  /// arriving on the connection queues behind it; once a request ran
  /// inline, the strand is idle and stays idle while only inline requests
  /// arrive.
  uint64_t SettleInline() {
    for (uint64_t n = 1; n <= 100; ++n) {
      HandoffDelta delta;
      auto lid = client_->Append(Rec("warm"));
      EXPECT_TRUE(lid.ok()) << lid.status();
      if (delta.inlined() == 1) return n;
    }
    ADD_FAILURE() << "no append ran inline";
    return 0;
  }

  /// One Append, one AppendBatch of `batch` and one AppendOrdered.
  void AppendEachKind(int i, size_t batch) {
    auto lid = client_->Append(Rec("a" + std::to_string(i)));
    ASSERT_TRUE(lid.ok()) << lid.status();
    std::vector<LogRecord> records(batch, Rec("b" + std::to_string(i)));
    auto lids = client_->AppendBatch(records);
    ASSERT_TRUE(lids.ok()) << lids.status();
    ASSERT_EQ(lids->size(), batch);
    auto ordered = client_->AppendOrdered(Rec("o" + std::to_string(i)),
                                          lids->back());
    ASSERT_TRUE(ordered.ok()) << ordered.status();
    EXPECT_GT(*ordered, lids->back());
  }

  net::TcpTransport server_side_;
  net::TcpTransport replica_side_;
  net::TcpTransport client_side_;
  std::unique_ptr<ControllerServer> controller_;
  std::unique_ptr<MaintainerServer> replica_;
  std::unique_ptr<MaintainerServer> coordinator_;
  std::unique_ptr<FLStoreClient> client_;

 private:
  const fs::path dir_;
};

// The handoffs-per-append gate: on a solo stripe whose store never fsyncs
// inside an append, every client append runs inline on the server's
// reactor — zero executor handoffs.
TEST(TcpAppendTest, SoloBufferedAppendsCostNoExecutorHandoff) {
  TcpStripe stripe("solo");
  const uint64_t warm = stripe.SettleInline();
  constexpr int kRounds = 10;
  HandoffDelta delta;
  for (int i = 0; i < kRounds; ++i) stripe.AppendEachKind(i, 3);
  EXPECT_EQ(delta.inlined(), 3u * kRounds);
  EXPECT_EQ(delta.queued(), 0u);
  EXPECT_EQ(stripe.coordinator_->maintainer().count(), warm + 5u * kRounds);
  EXPECT_EQ(stripe.client_->retries(), 0u);
}

// An append that fsyncs could park the reactor on the disk: it hands off.
TEST(TcpAppendTest, FsyncEachAppendsRunOnTheStrand) {
  TcpStripe stripe("fsync", {.mode = storage::SyncMode::kFsyncEach});
  constexpr int kRounds = 3;
  HandoffDelta delta;
  for (int i = 0; i < kRounds; ++i) stripe.AppendEachKind(i, 2);
  EXPECT_EQ(delta.inlined(), 0u);
  EXPECT_EQ(delta.queued(), 3u * kRounds);
  EXPECT_EQ(stripe.coordinator_->maintainer().count(), 4u * kRounds);
}

// A replicated append waits on its INV round, whose reply the server's
// reactor must read: it runs on the strand, and acks at loopback speed
// with no retry. Run inline, its INV round could not complete.
TEST(TcpAppendTest, ReplicatedAppendsAckOverTcpWithoutRetries) {
  TcpStripe stripe("rf2", {.replicated = true});
  constexpr int kAppends = 20;
  HandoffDelta delta;
  for (int i = 0; i < kAppends; ++i) {
    auto start = std::chrono::steady_clock::now();
    auto lid = stripe.client_->Append(Rec("r" + std::to_string(i)));
    auto took = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(lid.ok()) << lid.status();
    // Well under the 1 s invalidate_timeout: no round waited one out.
    EXPECT_LT(took, 500ms) << "append " << i;
    auto mirrored = stripe.replica_->maintainer().Read(*lid);
    ASSERT_TRUE(mirrored.ok()) << mirrored.status();
    EXPECT_EQ(mirrored->body, "r" + std::to_string(i));
  }
  EXPECT_EQ(stripe.client_->retries(), 0u);
  // Every request here (client appends at the coordinator, INVs and VALs
  // at the replica) took the strand.
  EXPECT_EQ(delta.inlined(), 0u);
  EXPECT_GE(delta.queued(), static_cast<uint64_t>(2 * kAppends));
}

// The race the inline condition cannot close: a solo stripe gains a peer
// after its append was dispatched inline. The append's INV round trips the
// inline Call guard, the write parks like one against an unreachable peer,
// and the client's sticky retry — on the strand now — replays the round
// and acks the same LId exactly once.
TEST(TcpAppendTest, PeerAddedDuringInlineAppendParksThenAcksOnce) {
  GatedIoEngine gate;
  TcpStripe stripe("race", {.spare_replica = true, .io_engine = &gate});
  const uint64_t warm = stripe.SettleInline();

  HandoffDelta delta;
  gate.Arm();
  Result<LId> raced = Status::Unavailable("not run");
  std::thread appender(
      [&] { raced = stripe.client_->Append(Rec("raced")); });
  // The append now holds the server's reactor inside its store write.
  ASSERT_TRUE(gate.WaitEntered());
  EXPECT_EQ(delta.inlined(), 1u);

  // The reconfigure is delivered on this process's own thread (local
  // shortcut), since the reactor that would read it is busy.
  net::RpcEndpoint ctrl(&stripe.server_side_, "test/ctrl");
  ASSERT_TRUE(ctrl.Start().ok());
  Result<std::string> reconfigured = Status::Unavailable("not run");
  std::thread reconfigurer([&] {
    BinaryWriter w;
    w.PutU64(1);  // controller epoch
    w.PutU64(2);  // stripe fencing epoch
    w.PutU32(1);
    w.PutBytes(kReplica);
    reconfigured =
        ctrl.Call(kCoordinator, kReconfigure, std::move(w).data(), 5000ms);
  });
  for (int i = 0; i < 5000 && !stripe.coordinator_->replica().replicates();
       ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(stripe.coordinator_->replica().replicates());
  gate.Release();
  const auto released = std::chrono::steady_clock::now();
  appender.join();
  // The parked round failed fast: nothing waited out the 1 s
  // invalidate_timeout on a reactor that could not read the reply.
  EXPECT_LT(std::chrono::steady_clock::now() - released, 500ms);
  reconfigurer.join();
  ctrl.Stop();

  ASSERT_TRUE(reconfigured.ok()) << reconfigured.status();
  ASSERT_TRUE(raced.ok()) << raced.status();
  // The inline attempt failed and was retried on the strand.
  EXPECT_GE(stripe.client_->retries(), 1u);
  EXPECT_EQ(delta.inlined(), 1u);
  EXPECT_GE(delta.queued(), 1u);
  // Exactly once: one new record, at the acked LId, valid on the
  // coordinator and mirrored to the new peer.
  LogMaintainer& coordinator = stripe.coordinator_->maintainer();
  EXPECT_EQ(coordinator.count(), warm + 1);
  EXPECT_FALSE(coordinator.IsInvalid(*raced));
  auto local = coordinator.Read(*raced);
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_EQ(local->body, "raced");
  auto mirrored = stripe.replica_->maintainer().Read(*raced);
  ASSERT_TRUE(mirrored.ok()) << mirrored.status();
  EXPECT_EQ(mirrored->body, "raced");
  EXPECT_EQ(stripe.replica_->maintainer().count(), 1u);
}

}  // namespace
}  // namespace chariots::flstore

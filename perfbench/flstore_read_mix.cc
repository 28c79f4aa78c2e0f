// flstore_read_mix: one controller and three maintainers on one
// TcpTransport, client sessions on a second one, so every call crosses a
// loopback socket as it does between chariots_node processes. Storage is
// the chariots_node --store-dir default (kBuffered: writes go through the
// page cache, no fsync).
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flstore/client.h"
#include "flstore/service.h"
#include "net/tcp_transport.h"
#include "storage/io_engine.h"
#include "workloads.h"

namespace perfbench {

namespace fl = chariots::flstore;
namespace net = chariots::net;
namespace storage = chariots::storage;
using chariots::Status;

namespace {

constexpr uint32_t kMaintainers = 3;
constexpr uint64_t kStripeBatch = 1000;  // chariots_node --batch default
constexpr int kSessions = 2;
constexpr size_t kRecordBytes = 1024;
constexpr double kAppendFraction = 0.1;
/// Offered load of the open loop, both sessions together: a few percent of
/// the two sessions' closed-loop capacity on a 4-core VM (about 70 K ops/s),
/// so the open loop times an unloaded cluster.
constexpr double kOpenRate = 2000.0;
constexpr double kLatencyLimitUs = 10'000.0;
/// Session id stamped into preloaded bodies.
constexpr uint32_t kLoaderSession = 100;
constexpr const char* kController = "ctrl/0";

/// A whole FLStore deployment inside the process.
class Cluster {
 public:
  explicit Cluster(std::string dir) : dir_(std::move(dir)) {}
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() {
    for (auto& c : sessions_) c->Stop();
    for (auto& m : maintainers_) m->Stop();
    if (controller_) controller_->Stop();
  }

  Status Start() {
    std::filesystem::create_directories(dir_);
    if (Status s = server_.Listen(0); !s.ok()) return s;
    if (Status s = clients_.Listen(0); !s.ok()) return s;
    clients_.AddRoute("ctrl", "127.0.0.1", server_.port());
    clients_.AddRoute("m", "127.0.0.1", server_.port());
    fl::ClusterInfo info;
    info.journal = fl::EpochJournal(kMaintainers, kStripeBatch);
    for (uint32_t i = 0; i < kMaintainers; ++i) {
      // Appended piecewise: GCC 12 misreports `"m" + to_string(i) + ...`
      // under -Wrestrict.
      std::string node = "m";
      node += std::to_string(i);
      node += "/node";
      info.maintainers.push_back(std::move(node));
    }
    controller_ =
        std::make_unique<fl::ControllerServer>(&server_, kController, info);
    if (Status s = controller_->Start(); !s.ok()) return s;
    for (uint32_t i = 0; i < kMaintainers; ++i) {
      fl::MaintainerOptions mo;
      mo.index = i;
      mo.journal = info.journal;
      mo.store.dir = dir_ + "/m" + std::to_string(i);
      mo.store.mode = storage::SyncMode::kBuffered;
      mo.store.io_engine = storage::ResolveIoEngine("sync");
      fl::MaintainerServer::Options so;
      so.node = info.maintainers[i];
      so.peers = info.maintainers;
      so.controllers = {kController};
      maintainers_.push_back(
          std::make_unique<fl::MaintainerServer>(&server_, mo, so));
      if (Status s = maintainers_.back()->Start(); !s.ok()) return s;
    }
    return Status::OK();
  }

  /// A new client session on the client transport.
  chariots::Result<fl::FLStoreClient*> AddSession(const std::string& name) {
    sessions_.push_back(std::make_unique<fl::FLStoreClient>(
        &clients_, "client/" + name, kController));
    if (Status s = sessions_.back()->Start(); !s.ok()) return s;
    return sessions_.back().get();
  }

 private:
  const std::string dir_;
  net::TcpTransport server_;
  net::TcpTransport clients_;
  std::unique_ptr<fl::ControllerServer> controller_;
  std::vector<std::unique_ptr<fl::MaintainerServer>> maintainers_;
  std::vector<std::unique_ptr<fl::FLStoreClient>> sessions_;
};

/// Identity of one acked append.
struct Acked {
  fl::LId lid = fl::kInvalidLId;
  uint32_t session = 0;
  uint64_t seq = 0;
};

/// Append-only list of acked appends, readable without a lock: readers only
/// pick LIds that an append has already returned.
class AckedLog {
 public:
  explicit AckedLog(size_t capacity) : entries_(capacity) {}
  bool Push(const Acked& a) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = size_.load(std::memory_order_relaxed);
    if (n == entries_.size()) return false;
    entries_[n] = a;
    size_.store(n + 1, std::memory_order_release);
    return true;
  }
  size_t size() const { return size_.load(std::memory_order_acquire); }
  const Acked& at(size_t i) const { return entries_[i]; }

 private:
  std::mutex mu_;
  std::vector<Acked> entries_;
  std::atomic<size_t> size_{0};
};

/// What the sessions did in one phase.
struct PhaseResult {
  Samples append;
  Samples read;
  Samples late;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t appends = 0;
  int64_t elapsed_nanos = 0;

  void Merge(const PhaseResult& other) {
    append.Merge(other.append);
    read.Merge(other.read);
    late.Merge(other.late);
    attempted += other.attempted;
    ok += other.ok;
    appends += other.appends;
    elapsed_nanos += other.elapsed_nanos;
  }
};

/// One measured session: its client and its body sequence.
struct Session {
  fl::FLStoreClient* client = nullptr;
  uint32_t id = 0;
  uint64_t next_seq = 0;
};

/// State of one cluster set-up: the deployment plus everything it acked.
struct Deployment {
  std::unique_ptr<Cluster> cluster;
  std::vector<Session> sessions;
  std::unique_ptr<AckedLog> acked;
};

/// One append or read by `session`; records latency from `intended`.
void DoOp(const Options& o, Session* session, Rng* ops, AckedLog* acked,
          int64_t intended, PhaseResult* r, Outcome* out,
          std::mutex* out_mu) {
  // Every op draws both numbers, so the input stream does not depend on
  // which ops turned out to be appends.
  bool append = ops->Uniform() < kAppendFraction;
  double u_distance = ops->Uniform();
  ++r->attempted;
  if (append || acked->size() == 0) {
    uint64_t seq = session->next_seq++;
    fl::LogRecord record;
    record.body = MakeBody(o.seed, session->id, seq, kRecordBytes);
    auto lid = session->client->Append(record);
    int64_t done = NowNanos();
    if (!lid.ok() || !acked->Push({*lid, session->id, seq})) {
      std::lock_guard<std::mutex> lock(*out_mu);
      out->Violation("append failed: " + lid.status().ToString());
      return;
    }
    r->append.Add(done - intended);
    ++r->appends;
    ++r->ok;
    return;
  }
  size_t n = acked->size();
  const Acked& want = acked->at(n - 1 - ReadDistance(u_distance, n));
  auto rec = session->client->Read(want.lid);
  int64_t done = NowNanos();
  BodyId id;
  if (!rec.ok() || !ParseBody(rec->body, &id) || id.session != want.session ||
      id.seq != want.seq || id.seed != o.seed) {
    std::lock_guard<std::mutex> lock(*out_mu);
    out->Violation("read of lid " + std::to_string(want.lid) + " wrong: " +
                   rec.status().ToString());
    return;
  }
  r->read.Add(done - intended);
  ++r->ok;
}

/// Runs both sessions for `seconds`, open loop at kOpenRate when `open`,
/// else back to back.
PhaseResult RunPhase(const Options& o, Deployment* d,
                     const std::string& label, bool open, double seconds,
                     Outcome* out) {
  std::vector<PhaseResult> per(kSessions);
  std::mutex out_mu;
  int64_t start = NowNanos() + 1'000'000;
  int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  RunThreads(kSessions, [&](int s) {
    Rng ops(DeriveSeed(o.seed, label + "/ops", s));
    PoissonArrivals arrivals(DeriveSeed(o.seed, label, s),
                             kOpenRate / kSessions, start);
    WaitUntil(start);
    for (;;) {
      int64_t intended = open ? arrivals.Next() : NowNanos();
      if (intended >= end) break;
      int64_t sent = open ? WaitUntil(intended) : intended;
      per[s].late.Add(sent - intended);
      DoOp(o, &d->sessions[s], &ops, d->acked.get(), intended, &per[s], out,
           &out_mu);
    }
  });
  PhaseResult total;
  for (auto& p : per) total.Merge(p);
  total.elapsed_nanos = std::max<int64_t>(NowNanos() - start, 1);
  return total;
}

/// Pooled rounds plus per-round medians, trimmed means and throughputs.
struct Measured {
  PhaseResult all;
  std::vector<double> append_p50;
  std::vector<double> visible_p50;
  std::vector<double> visible_tmean;
  std::vector<double> tput;
};

/// One-second rounds for `seconds`, open loop at kOpenRate when `open`,
/// else back to back. Loopback RPC latency on a VM swings by tens of percent
/// from one second to the next; medians over rounds keep one bad second from
/// moving a run's result. Writeback is flushed first, so the preload's or an
/// earlier block's writes do not land in this block's latencies.
Measured Measure(const Options& o, Deployment* d, const std::string& label,
                 bool open, double seconds, Outcome* out) {
  Measured m;
  FlushWriteback(o.work_dir);
  int rounds = std::max(1, static_cast<int>(seconds + 0.5));
  for (int r = 0; r < rounds; ++r) {
    std::string round = label + "/" + std::to_string(r);
    PhaseResult phase = RunPhase(o, d, round, open, seconds / rounds, out);
    m.append_p50.push_back(phase.append.PercentileUs(0.5));
    m.visible_p50.push_back(phase.read.PercentileUs(0.5));
    m.visible_tmean.push_back(phase.read.TrimmedMeanUs());
    m.tput.push_back(static_cast<double>(phase.ok) * 1e9 /
                     static_cast<double>(phase.elapsed_nanos));
    m.all.Merge(phase);
  }
  return m;
}

/// Starts a cluster, preloads it and warms it up.
std::unique_ptr<Deployment> SetUp(const Options& o, const std::string& dir,
                                  Outcome* out) {
  auto d = std::make_unique<Deployment>();
  size_t capacity = 70'000 + static_cast<size_t>(o.seconds * 40'000);
  d->acked = std::make_unique<AckedLog>(capacity);
  d->cluster = std::make_unique<Cluster>(dir);
  if (Status s = d->cluster->Start(); !s.ok()) {
    out->Violation("cluster start: " + s.ToString());
    return nullptr;
  }
  for (int i = 0; i < kSessions; ++i) {
    auto c = d->cluster->AddSession(std::string("s") + std::to_string(i));
    if (!c.ok()) {
      out->Violation("session start: " + c.status().ToString());
      return nullptr;
    }
    d->sessions.push_back(Session{*c, static_cast<uint32_t>(i), 0});
  }
  // 64 Ki x 1 KiB: at least 4x the client cache plus the three tail caches,
  // so the log's cold part lives only in the store files.
  auto loader = d->cluster->AddSession("loader");
  if (!loader.ok()) {
    out->Violation("loader start: " + loader.status().ToString());
    return nullptr;
  }
  constexpr uint64_t kPreload = 64 * 1024;
  constexpr uint64_t kBatch = 256;
  for (uint64_t base = 0; base < kPreload; base += kBatch) {
    std::vector<fl::LogRecord> batch(kBatch);
    for (uint64_t i = 0; i < kBatch; ++i) {
      batch[i].body = MakeBody(o.seed, kLoaderSession, base + i, kRecordBytes);
    }
    auto lids = (*loader)->AppendBatch(batch);
    if (!lids.ok() || lids->size() != kBatch) {
      out->Violation("preload failed: " + lids.status().ToString());
      return nullptr;
    }
    for (uint64_t i = 0; i < kBatch; ++i) {
      d->acked->Push({(*lids)[i], kLoaderSession, base + i});
    }
  }
  // Warm-up: a fixed amount of closed-loop work per session.
  std::mutex out_mu;
  RunThreads(kSessions, [&](int s) {
    Rng ops(DeriveSeed(o.seed, "warmup/ops", s));
    PhaseResult mine;
    for (int i = 0; i < 300; ++i) {
      DoOp(o, &d->sessions[s], &ops, d->acked.get(), NowNanos(), &mine, out,
           &out_mu);
    }
  });
  return d;
}

/// Reads every acked append back through a fresh session (cold client
/// cache) and compares it byte for byte with the body that was sent.
void CheckReadBack(const Options& o, Deployment* d, Outcome* out) {
  auto checker = d->cluster->AddSession("checker");
  if (!checker.ok()) {
    out->Violation("checker start: " + checker.status().ToString());
    return;
  }
  size_t n = d->acked->size();
  std::vector<fl::LId> lids;
  lids.reserve(n);
  for (size_t i = 0; i < n; ++i) lids.push_back(d->acked->at(i).lid);
  std::vector<fl::LId> sorted = lids;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    out->Violation("two acked appends share one LId");
  }
  constexpr size_t kChunk = 512;
  for (size_t base = 0; base < n; base += kChunk) {
    size_t m = std::min(kChunk, n - base);
    std::vector<fl::LId> chunk(lids.begin() + base, lids.begin() + base + m);
    auto recs = (*checker)->ReadMany(chunk);
    if (!recs.ok() || recs->size() != m) {
      out->Violation("read-back failed: " + recs.status().ToString());
      return;
    }
    for (size_t i = 0; i < m; ++i) {
      const Acked& a = d->acked->at(base + i);
      if ((*recs)[i].body !=
          MakeBody(o.seed, a.session, a.seq, kRecordBytes)) {
        out->Violation("lid " + std::to_string(a.lid) +
                       " reads back different bytes");
      }
    }
  }
}

}  // namespace

void RunFlstoreReadMix(const Options& o, Outcome* out) {
  std::unique_ptr<Deployment> d;
  double setup_s = 0;
  {
    IdleSpinners spinners;  // set-up waits on wake-ups as open loops do
    std::string dir = o.work_dir + "/cluster";
    std::filesystem::remove_all(dir);
    int64_t t0 = NowNanos();
    d = SetUp(o, dir, out);
    if (!d) return;
    setup_s = static_cast<double>(NowNanos() - t0) / 1e9;
  }

  // Untraced closed-loop rounds: both sessions back to back. Their
  // latencies are the end-to-end figures. An open loop at a few percent of
  // capacity leaves the cluster idle between requests, so on a shared VM its
  // medians track how fast halted vCPUs and sleeping threads wake (over ten
  // runs on a shared 4-vCPU VM their quartiles spread by 0.7-0.85 of the
  // median). With requests always in flight a host stall delays only the op
  // of each session it hits, and the medians repeat within a few percent
  // with no CPUs held out of idle.
  RegistryDelta delta;
  delta.Begin();
  Measured m = Measure(o, d.get(), "closed", false,
                       o.trace ? o.seconds / 2 : o.seconds, out);
  delta.End();
  PhaseResult& closed = m.all;
  out->attempted += closed.attempted;
  Samples& visible = closed.read;

  if (!o.trace) {
    out->Add("setup_s", setup_s, "s", 1);
    out->Add("append_p50_us", Median(m.append_p50), "us",
             closed.append.count());
    out->Add("visible_p50_us", Median(m.visible_p50), "us", visible.count());
    out->Add("visible_tmean_us", Median(m.visible_tmean), "us",
             visible.count());
    uint64_t user_bytes = closed.appends * kRecordBytes;
    out->Add("bytes_per_user_byte",
             user_bytes == 0
                 ? 0.0
                 : static_cast<double>(
                       delta.Counter("chariots.storage.io.bytes_written")) /
                       static_cast<double>(user_bytes),
             "count", closed.appends);
  } else {
    // FLStore has no program-side spans yet: the traced phase is the same
    // closed loop, whose per-call spans are the harness's own timestamps.
    Measured traced = Measure(o, d.get(), "traced", false, o.seconds / 4, out);
    out->attempted += traced.all.attempted;
    // The seeded Poisson open loop, timed from the intended send time, with
    // the vCPUs free to halt as on a host running nothing else.
    Measured halting = Measure(o, d.get(), "open", true, o.seconds / 4, out);
    PhaseResult& open = halting.all;
    out->attempted += open.attempted;
    double late_p99 = open.late.PercentileUs(0.99);
    NoteLateness("open", late_p99, kLatencyLimitUs, out);
    out->Add("e2e.append_p50_halting_us", Median(halting.append_p50), "us",
             open.append.count());
    out->Add("e2e.visible_p50_halting_us", Median(halting.visible_p50), "us",
             open.read.count());
    double untraced_p50 = Median(m.visible_p50);
    out->Add("trace_overhead",
             untraced_p50 > 0 ? Median(traced.visible_p50) / untraced_p50 : 0.0,
             "ratio", traced.all.read.count());
    out->Add("gen.late_p99_us", late_p99, "us", open.late.count());
    out->Add("e2e.append_p99_us", closed.append.PercentileUs(0.99), "us",
             closed.append.count());
    out->Add("e2e.visible_p99_us", visible.PercentileUs(0.99), "us",
             visible.count());
    out->Add("e2e.tput", Median(m.tput), "1/s", closed.ok);
    AddRegistryLayers(delta, closed.attempted, closed.appends, out);
    uint64_t retries = 0;
    for (const Session& s : d->sessions) retries += s.client->retries();
    out->Add("flstore.client_retries", static_cast<double>(retries), "count",
             out->attempted);

    // The direct probes time single calls, which wait on wake-ups as the
    // open loop does.
    IdleSpinners spinners;
    // Client span: one session appending back to back.
    Samples client;
    Session& s0 = d->sessions[0];
    int64_t probe_end = NowNanos() + 300'000'000;
    while (NowNanos() < probe_end) {
      uint64_t seq = s0.next_seq++;
      fl::LogRecord record;
      record.body = MakeBody(o.seed, s0.id, seq, kRecordBytes);
      int64_t t0 = NowNanos();
      auto lid = s0.client->Append(record);
      client.Add(NowNanos() - t0);
      if (!lid.ok() || !d->acked->Push({*lid, s0.id, seq})) {
        out->Violation("probe append failed: " + lid.status().ToString());
        break;
      }
    }
    out->Add("flstore.client_append_us", client.PercentileUs(0.5), "us",
             client.count());

    LayerShape shape;
    shape.seed = o.seed;
    shape.record_bytes = kRecordBytes;
    // A remote read: an LId out, epoch + HL + encoded record back.
    shape.request_bytes = 8;
    shape.reply_bytes = kRecordBytes + 32;
    shape.reads = true;
    shape.work_dir = o.work_dir + "/probe";
    ProbeRpc(shape, out);
    ProbeStorage(shape, out);
    ProbeMaintainer(shape, out);
    // The client library plus executor handoffs: what an append costs
    // beyond one RPC round trip and the maintainer's own work.
    out->Add("flstore.client_self_us",
             out->metrics["flstore.client_append_us"].value -
                 out->metrics["net.rpc_rtt_us"].value -
                 out->metrics["flstore.maintainer_append_us"].value,
             "us", client.count());
    NotOnPath({{"chariots.hop.client_us", "us"},
               {"chariots.hop.batcher_us", "us"},
               {"chariots.hop.filter_us", "us"},
               {"chariots.hop.queue_us", "us"},
               {"chariots.hop.maintainer_us", "us"},
               {"chariots.hop.sender_us", "us"},
               {"chariots.hop.remote_receiver_us", "us"},
               {"chariots.hop.remote_incorporated_us", "us"},
               {"chariots.hop_coverage", "ratio"},
               {"chariots.maintainer_append_us", "us"},
               {"chariots.fabric_send_us", "us"},
               {"chariots.admission_refusals_frac", "ratio"}},
              out);
  }
  CheckReadBack(o, d.get(), out);
}

}  // namespace perfbench

// geo_replicate: two Chariots datacenters, each on its own TcpTransport, so
// replication crosses real sockets. Both use the default ChariotsConfig (its
// trace sampling rate too, except in the traced phase) and the chariots_node
// storage default (kBuffered in a store directory).
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chariots/datacenter.h"
#include "chariots/fabric.h"
#include "common/trace.h"
#include "net/tcp_transport.h"
#include "storage/io_engine.h"
#include "workloads.h"

namespace perfbench {

namespace geo = chariots::geo;
namespace net = chariots::net;
namespace trace = chariots::trace;
using chariots::Status;

namespace {

constexpr int kDcs = 2;
constexpr size_t kRecordBytes = 128;
/// Offered load of the open-loop phase, both datacenters together.
constexpr double kOpenRate = 4000.0;
constexpr double kLatencyLimitUs = 50'000.0;
/// Unreplicated records allowed per host during a burst.
constexpr uint64_t kBurstWindow = 8192;
/// Records of one burst round, both hosts together.
constexpr uint64_t kBurstRecords = 40'000;
/// Bursts per traced run: one per two seconds of run length.
int BurstCount(double seconds) {
  return std::max(1, static_cast<int>(seconds / 2 + 0.5));
}
constexpr int64_t kReplicationTimeoutNanos = 30'000'000'000;
/// Enough warm-up that the pipeline has replicated in bulk before timing.
constexpr int kWarmupRecords = 30'000;
/// Traced records kept for the hop breakdown.
constexpr size_t kMaxTraces = 20'000;

/// Everything the datacenters' callbacks report back.
struct GeoState {
  GeoState(uint64_t seed, size_t capacity) : seed(seed) {
    for (auto& v : intended) v = std::vector<std::atomic<int64_t>>(capacity);
  }
  const uint64_t seed;
  /// Intended send time per (host, seq); 0 = untimed (warm-up, burst).
  std::vector<std::atomic<int64_t>> intended[kDcs];
  std::atomic<uint64_t> committed[kDcs] = {};
  bool keep_traces = false;

  std::mutex mu;  // guards the samples and traces below
  Samples commit;
  Samples remote;
  /// Hop trace of each traced record as it reached the other datacenter.
  std::vector<trace::TraceContext> traces;
};

/// Two datacenters replicating to each other over loopback TCP.
class GeoPair {
 public:
  GeoPair(const std::string& dir, uint32_t trace_sample_every,
          GeoState* state) {
    std::filesystem::create_directories(dir);
    for (int d = 0; d < kDcs; ++d) {
      fabric_[d] = std::make_unique<geo::TransportFabric>(&net_[d]);
      geo::ChariotsConfig c;
      c.dc_id = d;
      c.num_datacenters = kDcs;
      c.store_mode = chariots::storage::SyncMode::kBuffered;
      c.store_dir = dir + "/dc" + std::to_string(d);
      c.io_engine = chariots::storage::ResolveIoEngine("sync");
      c.trace_sample_every = trace_sample_every;
      dc_[d] = std::make_unique<geo::Datacenter>(c, fabric_[d].get());
      dc_[d]->Subscribe([state, d](const geo::GeoRecord& r) {
        if (static_cast<int>(r.host) == d) return;  // on_committed times it
        int64_t now = NowNanos();
        BodyId id;
        if (!ParseBody(r.body, &id) || id.seq >= state->intended[r.host].size()) {
          return;  // the log check reports damaged bodies
        }
        int64_t t = state->intended[r.host][id.seq].load(
            std::memory_order_acquire);
        if (t == 0) return;
        std::lock_guard<std::mutex> lock(state->mu);
        state->remote.Add(now - t);
        if (state->keep_traces && r.trace.active() &&
            state->traces.size() < kMaxTraces) {
          state->traces.push_back(r.trace);
        }
      });
    }
  }
  GeoPair(const GeoPair&) = delete;
  GeoPair& operator=(const GeoPair&) = delete;
  ~GeoPair() {
    for (auto& dc : dc_) dc->Stop();
  }

  Status Start() {
    for (auto& n : net_) {
      if (Status s = n.Listen(0); !s.ok()) return s;
    }
    net_[0].AddRoute("geo/dc1", "127.0.0.1", net_[1].port());
    net_[1].AddRoute("geo/dc0", "127.0.0.1", net_[0].port());
    for (auto& dc : dc_) {
      if (Status s = dc->Start(); !s.ok()) return s;
    }
    return Status::OK();
  }

  geo::Datacenter& dc(int d) { return *dc_[d]; }

 private:
  net::TcpTransport net_[kDcs];
  std::unique_ptr<geo::TransportFabric> fabric_[kDcs];
  std::unique_ptr<geo::Datacenter> dc_[kDcs];
};

/// One set-up: the datacenters plus the generator's bookkeeping.
struct Deployment {
  std::unique_ptr<GeoState> state;
  std::unique_ptr<GeoPair> pair;
  uint64_t next_seq[kDcs] = {};
  /// TryAppend successes per host (each must commit and replicate once).
  uint64_t acked[kDcs] = {};
};

/// Appends one record at `host`, depending on the newest record of the other
/// datacenter that `host` has incorporated. Returns false when refused.
bool AppendOne(Deployment* d, int host, int64_t intended) {
  GeoState* st = d->state.get();
  uint64_t seq = d->next_seq[host];
  if (intended != 0 && seq < st->intended[host].size()) {
    st->intended[host][seq].store(intended, std::memory_order_release);
  }
  geo::Datacenter& dc = d->pair->dc(host);
  geo::DepVector deps(kDcs, 0);
  deps[1 - host] = dc.IncorporatedVector()[1 - host];
  auto toid = dc.TryAppend(
      MakeBody(st->seed, host, seq, kRecordBytes), {}, std::move(deps),
      [st, host, intended](geo::TOId, chariots::flstore::LId) {
        if (intended != 0) {
          int64_t now = NowNanos();
          std::lock_guard<std::mutex> lock(st->mu);
          st->commit.Add(now - intended);
        }
        st->committed[host].fetch_add(1, std::memory_order_release);
      });
  if (!toid.ok()) {
    if (intended != 0 && seq < st->intended[host].size()) {
      st->intended[host][seq].store(0, std::memory_order_release);
    }
    return false;
  }
  ++d->next_seq[host];
  ++d->acked[host];
  return true;
}

/// True once every acked append committed and both logs hold it.
bool Replicated(Deployment* d) {
  for (int h = 0; h < kDcs; ++h) {
    if (d->state->committed[h].load(std::memory_order_acquire) !=
        d->acked[h]) {
      return false;
    }
    for (int o = 0; o < kDcs; ++o) {
      if (d->pair->dc(o).IncorporatedVector()[h] < d->acked[h]) return false;
    }
  }
  return true;
}

bool WaitReplicated(Deployment* d, Outcome* out, const char* phase) {
  if (WaitFor([d] { return Replicated(d); }, kReplicationTimeoutNanos)) {
    return true;
  }
  out->Violation(std::string(phase) + ": records not replicated in time");
  return false;
}

std::unique_ptr<Deployment> SetUp(const Options& o, const std::string& dir,
                                  uint32_t trace_every, Outcome* out) {
  auto d = std::make_unique<Deployment>();
  // Every record of a host takes a seq; only open-loop ones are timed.
  size_t capacity = kWarmupRecords + 10'000 +
                    static_cast<size_t>(BurstCount(o.seconds)) * kBurstRecords +
                    static_cast<size_t>(2 * o.seconds * kOpenRate);
  d->state = std::make_unique<GeoState>(o.seed, capacity);
  d->pair = std::make_unique<GeoPair>(dir, trace_every, d->state.get());
  if (Status s = d->pair->Start(); !s.ok()) {
    out->Violation("datacenter start: " + s.ToString());
    return nullptr;
  }
  for (int i = 0; i < kWarmupRecords; ++i) {
    while (!AppendOne(d.get(), i % kDcs, 0)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  if (!WaitReplicated(d.get(), out, "warm-up")) return nullptr;
  return d;
}

struct OpenResult {
  Samples late;
  uint64_t attempted = 0;
  uint64_t refused = 0;

  void Merge(const OpenResult& other) {
    late.Merge(other.late);
    attempted += other.attempted;
    refused += other.refused;
  }
};

/// One generator thread, seeded Poisson arrivals, host picked per arrival.
OpenResult RunOpen(const Options& o, Deployment* d, const std::string& label,
                   double seconds, Outcome* out) {
  OpenResult r;
  Rng hosts(DeriveSeed(o.seed, label + "/host"));
  int64_t start = NowNanos() + 1'000'000;
  int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  PoissonArrivals arrivals(DeriveSeed(o.seed, label), kOpenRate, start);
  for (int64_t t = arrivals.Next(); t < end; t = arrivals.Next()) {
    int host = static_cast<int>(hosts.Next() & 1);
    if (d->next_seq[host] >= d->state->intended[host].size()) {
      out->Violation("open loop outran its timestamp table");
      break;
    }
    r.late.Add(WaitUntil(t) - t);
    ++r.attempted;
    if (!AppendOne(d, host, t)) ++r.refused;
  }
  WaitReplicated(d, out, label.c_str());
  return r;
}

struct BurstResult {
  uint64_t appended = 0;
  uint64_t refusals = 0;
  double tput = 0;
};

/// Closed loop: kBurstRecords appends alternate between the datacenters as
/// fast as admission and the window allow; throughput counts a record once
/// both datacenters hold it.
BurstResult RunBurst(Deployment* d, Outcome* out) {
  BurstResult r;
  int64_t start = NowNanos();
  for (uint64_t i = 0; i < kBurstRecords; ++i) {
    int host = static_cast<int>(i & 1);
    if ((i & 255) == 0) {
      for (;;) {
        uint64_t floor = d->acked[host];
        for (int o = 0; o < kDcs; ++o) {
          floor = std::min(floor, d->pair->dc(o).IncorporatedVector()[host]);
        }
        if (d->acked[host] - floor < kBurstWindow) break;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    while (!AppendOne(d, host, 0)) {
      ++r.refusals;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  WaitReplicated(d, out, "burst");
  r.appended = kBurstRecords;
  r.tput = static_cast<double>(kBurstRecords) * 1e9 /
           static_cast<double>(NowNanos() - start);
  return r;
}

/// Pooled results plus per-round medians and trimmed means.
struct Measured {
  OpenResult open;
  Samples commit;
  Samples remote;
  std::vector<double> commit_p50;
  std::vector<double> remote_p50;
  std::vector<double> remote_tmean;
  std::vector<double> tput;
  uint64_t burst_appended = 0;
  uint64_t burst_refusals = 0;
};

/// One-second open-loop rounds for `open_seconds` (CPUs held out of idle
/// when `hold_cpus`), then `bursts` bursts. Medians over rounds keep one bad
/// second on the VM from moving a run's result. The bursts come last and
/// writeback is flushed before each block, so a burst's writes do not land
/// in the open-loop latencies.
Measured Measure(const Options& o, Deployment* d, const std::string& label,
                 double open_seconds, int bursts, bool hold_cpus,
                 Outcome* out) {
  Measured m;
  GeoState* st = d->state.get();
  FlushWriteback(o.work_dir);
  int rounds = std::max(1, static_cast<int>(open_seconds + 0.5));
  {
    std::optional<IdleSpinners> spinners;
    if (hold_cpus) spinners.emplace();
    for (int r = 0; r < rounds; ++r) {
      std::string round = label + "/" + std::to_string(r);
      m.open.Merge(RunOpen(o, d, round, open_seconds / rounds, out));
      Samples commit;
      Samples remote;
      {
        std::lock_guard<std::mutex> lock(st->mu);
        std::swap(commit, st->commit);
        std::swap(remote, st->remote);
      }
      m.commit_p50.push_back(commit.PercentileUs(0.5));
      m.remote_p50.push_back(remote.PercentileUs(0.5));
      m.remote_tmean.push_back(remote.TrimmedMeanUs());
      m.commit.Merge(commit);
      m.remote.Merge(remote);
    }
  }
  if (bursts > 0) FlushWriteback(o.work_dir);
  for (int b = 0; b < bursts; ++b) {
    BurstResult burst = RunBurst(d, out);
    m.tput.push_back(burst.tput);
    m.burst_appended += burst.appended;
    m.burst_refusals += burst.refusals;
  }
  return m;
}

/// Each log must hold every acked record of each host exactly once, with
/// gap-free increasing TOIds per host, each after its declared dependencies
/// (a causal linear extension), and with the bytes that were sent.
void CheckLogs(const Options& o, Deployment* d, Outcome* out) {
  for (int dc = 0; dc < kDcs; ++dc) {
    geo::Datacenter& log = d->pair->dc(dc);
    geo::TOId seen[kDcs] = {};
    std::vector<bool> seq_seen[kDcs];
    for (int h = 0; h < kDcs; ++h) seq_seen[h].assign(d->next_seq[h], false);
    chariots::flstore::LId head = log.HeadLid();
    std::string where = "dc" + std::to_string(dc) + ": ";
    for (chariots::flstore::LId from = 0; from < head;) {
      std::vector<geo::GeoRecord> chunk = log.ReadRange(from, 4096);
      if (chunk.empty()) {
        out->Violation(where + "log unreadable at " + std::to_string(from));
        break;
      }
      for (const geo::GeoRecord& r : chunk) {
        from = r.lid + 1;
        BodyId id;
        if (r.host >= kDcs || !ParseBody(r.body, &id) || id.seed != o.seed ||
            id.session != r.host || id.seq >= seq_seen[r.host].size() ||
            seq_seen[r.host][id.seq] ||
            r.body != MakeBody(o.seed, r.host, id.seq, kRecordBytes)) {
          out->Violation(where + "bad or duplicate record at lid " +
                         std::to_string(r.lid));
          continue;
        }
        seq_seen[r.host][id.seq] = true;
        if (r.toid != seen[r.host] + 1) {
          out->Violation(where + "TOId gap for host " +
                         std::to_string(r.host) + " at lid " +
                         std::to_string(r.lid));
        }
        for (int h = 0; h < kDcs; ++h) {
          if (h != static_cast<int>(r.host) && h < static_cast<int>(r.deps.size()) &&
              r.deps[h] > seen[h]) {
            out->Violation(where + "lid " + std::to_string(r.lid) +
                           " precedes a dependency");
          }
        }
        seen[r.host] = r.toid;
      }
    }
    for (int h = 0; h < kDcs; ++h) {
      if (seen[h] != d->acked[h]) {
        out->Violation(where + "holds " + std::to_string(seen[h]) +
                       " records of host " + std::to_string(h) + ", " +
                       std::to_string(d->acked[h]) + " acked");
      }
    }
  }
  for (int h = 0; h < kDcs; ++h) {
    if (d->state->committed[h].load() != d->acked[h]) {
      out->Violation("host " + std::to_string(h) +
                     ": on_committed count differs from acked appends");
    }
  }
}

/// Per-stage medians of the traced records' critical paths, named as
/// `chariots_cli trace` names them; stages at the receiving datacenter
/// after its receiver fold into remote_incorporated.
void AddHopMetrics(GeoState* st, double traced_p50_us, Outcome* out) {
  static const char* kLocal[] = {"client", "batcher", "filter",
                                 "queue",  "maintainer", "sender"};
  std::map<std::string, Samples> stages;
  Samples sums;
  for (const trace::TraceContext& ctx : st->traces) {
    std::map<std::string, int64_t> per;
    int64_t sum = 0;
    uint32_t host = ctx.hops.empty() ? 0 : ctx.hops.front().dc;
    for (const trace::CriticalPathEntry& e : trace::CriticalPath(ctx)) {
      std::string name = e.stage;
      if (e.dc != host) {
        name = e.stage == "receiver" ? "remote_receiver" : "remote_incorporated";
      }
      per[name] += e.duration_nanos;
      sum += e.duration_nanos;
    }
    for (auto& [name, nanos] : per) stages[name].Add(nanos);
    sums.Add(sum);
  }
  uint64_t n = st->traces.size();
  for (const char* stage : kLocal) {
    out->Add(std::string("chariots.hop.") + stage + "_us",
             stages[stage].PercentileUs(0.5), "us", n);
  }
  out->Add("chariots.hop.remote_receiver_us",
           stages["remote_receiver"].PercentileUs(0.5), "us", n);
  out->Add("chariots.hop.remote_incorporated_us",
           stages["remote_incorporated"].PercentileUs(0.5), "us", n);
  out->Add("chariots.hop_coverage",
           traced_p50_us > 0 ? sums.PercentileUs(0.5) / traced_p50_us : 0.0,
           "ratio", n);
}

}  // namespace

void RunGeoReplicate(const Options& o, Outcome* out) {
  std::unique_ptr<Deployment> d;
  double setup_s = 0;
  {
    IdleSpinners spinners;  // set-up waits on wake-ups as open loops do
    std::string dir = o.work_dir + "/pair";
    std::filesystem::remove_all(dir);
    int64_t t0 = NowNanos();
    d = SetUp(o, dir, geo::ChariotsConfig{}.trace_sample_every, out);
    if (!d) return;
    setup_s = static_cast<double>(NowNanos() - t0) / 1e9;
  }
  // Untraced phases: open-loop rounds, and in the traced run bursts too
  // (throughput is a per-layer figure: the mix workload's swung 4x between
  // runs). The default trace sampling rate stays on, as deployed.
  RegistryDelta delta;
  delta.Begin();
  Measured m =
      o.trace ? Measure(o, d.get(), "untraced", o.seconds * 0.6,
                        BurstCount(o.seconds), true, out)
              : Measure(o, d.get(), "untraced", o.seconds, 0, true, out);
  delta.End();
  OpenResult& open = m.open;
  out->attempted += open.attempted + m.burst_appended;
  out->failed += open.refused;  // a refusal in the open loop is a failure
  uint64_t appends = open.attempted - open.refused + m.burst_appended;
  double late_p99 = open.late.PercentileUs(0.99);
  NoteLateness("open", late_p99, kLatencyLimitUs, out);

  if (!o.trace) {
    out->Add("setup_s", setup_s, "s", 1);
    out->Add("append_p50_us", Median(m.commit_p50), "us", m.commit.count());
    out->Add("visible_p50_us", Median(m.remote_p50), "us", m.remote.count());
    out->Add("visible_tmean_us", Median(m.remote_tmean), "us",
             m.remote.count());
    uint64_t user_bytes = appends * kRecordBytes;
    out->Add("bytes_per_user_byte",
             user_bytes == 0
                 ? 0.0
                 : static_cast<double>(
                       delta.Counter("chariots.storage.io.bytes_written")) /
                       static_cast<double>(user_bytes),
             "count", appends);
    CheckLogs(o, d.get(), out);
    return;
  }

  out->Add("gen.late_p99_us", late_p99, "us", open.late.count());
  out->Add("e2e.append_p99_us", m.commit.PercentileUs(0.99), "us",
           m.commit.count());
  out->Add("e2e.visible_p99_us", m.remote.PercentileUs(0.99), "us",
           m.remote.count());
  out->Add("e2e.tput", Median(m.tput), "1/s", m.burst_appended);
  AddRegistryLayers(delta, open.attempted + m.burst_appended, appends, out);
  uint64_t tries = open.attempted + m.burst_appended + m.burst_refusals;
  out->Add("chariots.admission_refusals_frac",
           static_cast<double>(open.refused + m.burst_refusals) /
               static_cast<double>(tries),
           "ratio", tries);

  // The open loop again with the vCPUs free to halt, as on a host running
  // nothing else: the difference to the e2e medians is the wake-up cost
  // that the spinners keep out of them.
  Measured halting =
      Measure(o, d.get(), "halting", o.seconds / 4, 0, false, out);
  out->attempted += halting.open.attempted;
  out->failed += halting.open.refused;
  out->Add("e2e.append_p50_halting_us", Median(halting.commit_p50), "us",
           halting.commit.count());
  out->Add("e2e.visible_p50_halting_us", Median(halting.remote_p50), "us",
           halting.remote.count());
  CheckLogs(o, d.get(), out);
  d.reset();

  // Traced run: every record carries its hop stamps.
  std::string dir = o.work_dir + "/traced";
  std::filesystem::remove_all(dir);
  d = SetUp(o, dir, 1, out);
  if (!d) return;
  d->state->keep_traces = true;
  Measured traced =
      Measure(o, d.get(), "traced", o.seconds / 4, 0, true, out);
  out->attempted += traced.open.attempted;
  out->failed += traced.open.refused;
  double untraced_p50 = Median(m.remote_p50);
  double traced_p50 = Median(traced.remote_p50);
  out->Add("trace_overhead",
           untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0.0, "ratio",
           traced.remote.count());
  AddHopMetrics(d->state.get(), traced.remote.PercentileUs(0.5), out);
  CheckLogs(o, d.get(), out);
  d.reset();

  LayerShape shape;
  shape.seed = o.seed;
  shape.record_bytes = kRecordBytes;
  // A replication message: one encoded GeoRecord (body + host, toid,
  // deps) out, a small ack back.
  shape.request_bytes = kRecordBytes + 48;
  shape.reply_bytes = 16;
  shape.work_dir = o.work_dir + "/probe";
  IdleSpinners spinners;  // the probes time single calls, as open loops do
  ProbeRpc(shape, out);
  ProbeStorage(shape, out);
  ProbeMaintainerAppendAt(shape, out);
  ProbeFabricSend(shape, out);
  // The datacenter hosts its maintainers in process and places records with
  // AppendAt: no FLStore client, no post-assigned append, no reads.
  NotOnPath({{"flstore.client_append_us", "us"},
             {"flstore.client_self_us", "us"},
             {"flstore.client_retries", "count"},
             {"flstore.maintainer_append_us", "us"},
             {"flstore.maintainer_read_us", "us"}},
            out);
}

}  // namespace perfbench

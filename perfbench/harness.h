// Shared pieces of the benchmark: clocks, seeded arrivals, latency samples,
// registry deltas, the record-body codec and the result report.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

/// Steady-clock nanoseconds (the clock the program's trace hops use).
int64_t NowNanos();

/// Derives an independent stream seed from a parent seed and a label.
uint64_t DeriveSeed(uint64_t seed, std::string_view label, uint64_t index = 0);

/// Deterministic random stream: mt19937_64's output sequence is fixed by the
/// standard, and the conversions below are spelled out, so a seed gives the
/// same inputs on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  uint64_t Next() { return gen_(); }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  /// Exponential inter-arrival gap in nanoseconds at `rate_per_s`.
  int64_t ExponentialNanos(double rate_per_s);

 private:
  std::mt19937_64 gen_;
};

/// Distance from the tail of a log of `n` entries for a uniform draw `u`:
/// Zipf-like, with density proportional to (d + 1)^-0.8. The hot head fits
/// the caches and most of the log does not. The exponent keeps the
/// client-cache hit ratio near 0.22, so the read median is a remote read
/// clear of the ~3 µs cache hits: at exponent 1 the ratio was 0.47, and a
/// median at the edge of the hits jumps 15x when a host stall makes some
/// of them late.
uint64_t ReadDistance(double u, uint64_t n);

/// Seeded Poisson arrival times. Fixed-period arrivals would phase-lock with
/// the pipeline's 1 ms timers and bias the medians.
class PoissonArrivals {
 public:
  PoissonArrivals(uint64_t seed, double rate_per_s, int64_t start_nanos)
      : rng_(seed), rate_(rate_per_s), next_(start_nanos) {}
  /// The next intended send time.
  int64_t Next() {
    next_ += rng_.ExponentialNanos(rate_);
    return next_;
  }

 private:
  Rng rng_;
  double rate_;
  int64_t next_;
};

/// Sleeps, then spins, until `deadline`; returns the time it woke. Spinning
/// the last stretch keeps the generator's own lateness well below the
/// latencies it measures.
int64_t WaitUntil(int64_t deadline);

/// Latency samples in nanoseconds.
class Samples {
 public:
  void Add(int64_t nanos) { ns_.push_back(nanos); }
  void Merge(const Samples& other);
  size_t count() const { return ns_.size(); }
  /// Nearest-rank percentile in microseconds (q in [0, 1]); 0 when empty.
  double PercentileUs(double q);
  /// Mean of the fastest 90 % in microseconds; 0 when empty. Unlike the
  /// median it moves with the share of fast operations (cache hits), and
  /// unlike the plain mean a stall's queue of late requests leaves it be.
  double TrimmedMeanUs();

 private:
  std::vector<int64_t> ns_;
  bool sorted_ = false;
};

/// Difference of two registry snapshots: what one phase added.
class RegistryDelta {
 public:
  void Begin();
  void End();
  uint64_t Counter(const std::string& name) const;
  /// Count and percentile of the samples a histogram gained in the phase,
  /// from the difference of its cumulative bucket counts.
  uint64_t HistogramCount(const std::string& name) const;
  double HistogramPercentile(const std::string& name, double q) const;
  /// A gauge's value at End().
  int64_t Gauge(const std::string& name) const;

 private:
  chariots::metrics::MetricsSnapshot begin_;
  chariots::metrics::MetricsSnapshot end_;
};

/// Record bodies carry their own identity and a checksum, so every read can
/// be checked without a side table:
///   "PBv1" | u64 seed | u32 session | u64 seq | u32 crc32c(fill) | fill
/// The fill bytes are a pseudo-random stream keyed by (seed, session, seq).
constexpr size_t kBodyHeaderBytes = 28;
std::string MakeBody(uint64_t seed, uint32_t session, uint64_t seq,
                     size_t size);
struct BodyId {
  uint64_t seed = 0;
  uint32_t session = 0;
  uint64_t seq = 0;
};
/// Parses the header and verifies the checksum; false on any damage.
bool ParseBody(std::string_view body, BodyId* id);

/// One metric of the result.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// What one run measured and checked.
struct Outcome {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output-check violations (each also counts as a failed op).
  std::vector<std::string> violations;
  /// Phases where the generator ran later than the phase's latency limit.
  std::vector<std::string> late_phases;

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Violation(std::string what);
};

/// Command-line options.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for store files (inside the checkout).
  std::string work_dir;
};

/// Host record printed with every result: numbers are only compared within
/// one host class.
std::string HostRecordJson(const Options& options);

/// Flushes dirty pages of the filesystem holding `dir` (syncfs), so
/// writeback left by set-up or an earlier phase does not stall the next.
void FlushWriteback(const std::string& dir);

/// While alive, keeps every CPU the process may use out of its idle halt:
/// one SCHED_IDLE thread spinning on each, preempted at once by any real
/// thread (the effect of booting with idle=poll). On a VM a halted vCPU
/// costs a VM exit and a host reschedule on every wake-up, tens of
/// microseconds that swing by several times with other tenants' load;
/// open-loop phases leave the cluster idle between requests and would
/// measure mostly that. Closed-loop phases run without it.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Runs `fn(i)` on `n` threads and joins them.
void RunThreads(int n, const std::function<void(int)>& fn);

/// Polls `done` every 200 µs until it holds or `timeout_nanos` passes.
bool WaitFor(const std::function<bool()>& done, int64_t timeout_nanos);

/// Per-layer probes shared by the workloads (layers.cc). Each replays the
/// workload's own record shape into one layer's public entry point and
/// reports the median span in microseconds.
struct LayerShape {
  uint64_t seed = 0;
  size_t record_bytes = 0;
  /// Bytes of an RPC request and its reply on this workload's hot path.
  size_t request_bytes = 0;
  size_t reply_bytes = 0;
  /// The workload reads (tail-skewed); else the read probes report 0.
  bool reads = false;
  std::string work_dir;
};
void ProbeRpc(const LayerShape& shape, Outcome* out);
void ProbeStorage(const LayerShape& shape, Outcome* out);
void ProbeMaintainer(const LayerShape& shape, Outcome* out);
void ProbeMaintainerAppendAt(const LayerShape& shape, Outcome* out);
void ProbeFabricSend(const LayerShape& shape, Outcome* out);

/// Reports 0 for per-layer metrics of layers the workload does not drive.
void NotOnPath(const std::vector<std::pair<const char*, const char*>>& metrics,
               Outcome* out);

/// Registry-derived per-layer metrics every workload reports.
void AddRegistryLayers(const RegistryDelta& delta, uint64_t ops,
                       uint64_t appends, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

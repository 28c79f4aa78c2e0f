#include "harness.h"

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/crc32c.h"
#include "storage/io_engine.h"
#include "workloads.h"

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void PutU32(char* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU64(char* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

constexpr char kMagic[4] = {'P', 'B', 'v', '1'};

}  // namespace

uint64_t DeriveSeed(uint64_t seed, std::string_view label, uint64_t index) {
  uint64_t h = SplitMix(seed);
  for (char c : label) h = SplitMix(h ^ static_cast<uint8_t>(c));
  return SplitMix(h ^ index);
}

int64_t Rng::ExponentialNanos(double rate_per_s) {
  double gap_s = -std::log1p(-Uniform()) / rate_per_s;
  return static_cast<int64_t>(gap_s * 1e9);
}

uint64_t ReadDistance(double u, uint64_t n) {
  if (n <= 1) return 0;
  // Inverse of the CDF ((d + 1)^a - 1) / ((n + 1)^a - 1), a = 1 - 0.8.
  constexpr double a = 0.2;
  double span = std::pow(static_cast<double>(n) + 1.0, a) - 1.0;
  double d = std::pow(1.0 + u * span, 1.0 / a) - 1.0;
  return std::min(static_cast<uint64_t>(d), n - 1);
}

int64_t WaitUntil(int64_t deadline) {
  // Waking from a sleep takes tens of microseconds on a VM (more with the
  // default 50 µs timer slack); spinning the last 200 µs keeps that out of
  // the latencies, which run from the intended send time.
  static thread_local bool slack_set = prctl(PR_SET_TIMERSLACK, 1UL) == 0;
  (void)slack_set;
  constexpr int64_t kSpinNanos = 200'000;
  int64_t now = NowNanos();
  if (deadline - now > kSpinNanos) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline - now - kSpinNanos));
  }
  while ((now = NowNanos()) < deadline) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  return now;
}

void Samples::Merge(const Samples& other) {
  ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  sorted_ = false;
}

double Samples::PercentileUs(double q) {
  if (ns_.empty()) return 0;
  if (!sorted_) {
    std::sort(ns_.begin(), ns_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * ns_.size()));
  rank = std::clamp<size_t>(rank, 1, ns_.size());
  return static_cast<double>(ns_[rank - 1]) / 1000.0;
}

double Samples::TrimmedMeanUs() {
  if (ns_.empty()) return 0;
  if (!sorted_) {
    std::sort(ns_.begin(), ns_.end());
    sorted_ = true;
  }
  size_t keep = std::max<size_t>(1, ns_.size() * 9 / 10);
  double sum = 0;
  for (size_t i = 0; i < keep; ++i) sum += static_cast<double>(ns_[i]);
  return sum / static_cast<double>(keep) / 1000.0;
}

void RegistryDelta::Begin() {
  begin_ = chariots::metrics::Registry::Default().Snapshot();
}

void RegistryDelta::End() {
  end_ = chariots::metrics::Registry::Default().Snapshot();
}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  auto e = end_.counters.find(name);
  if (e == end_.counters.end()) return 0;
  auto b = begin_.counters.find(name);
  return e->second - (b == begin_.counters.end() ? 0 : b->second);
}

namespace {

// Cumulative count at or below `bound` in a bucket list of (upper bound,
// cumulative count) pairs.
uint64_t CumulativeAt(
    const std::vector<std::pair<uint64_t, uint64_t>>& buckets,
    uint64_t bound) {
  uint64_t cum = 0;
  for (const auto& [upper, count] : buckets) {
    if (upper > bound) break;
    cum = count;
  }
  return cum;
}

}  // namespace

uint64_t RegistryDelta::HistogramCount(const std::string& name) const {
  auto e = end_.histograms.find(name);
  if (e == end_.histograms.end()) return 0;
  auto b = begin_.histograms.find(name);
  return e->second.count - (b == begin_.histograms.end() ? 0 : b->second.count);
}

double RegistryDelta::HistogramPercentile(const std::string& name,
                                          double q) const {
  auto e = end_.histograms.find(name);
  if (e == end_.histograms.end()) return 0;
  static const std::vector<std::pair<uint64_t, uint64_t>> kEmpty;
  auto b = begin_.histograms.find(name);
  const auto& before =
      b == begin_.histograms.end() ? kEmpty : b->second.buckets;
  uint64_t total = HistogramCount(name);
  if (total == 0) return 0;
  double target = q * static_cast<double>(total);
  uint64_t prev_bound = 0;
  uint64_t prev_cum = 0;
  for (const auto& [upper, count] : e->second.buckets) {
    uint64_t cum = count - CumulativeAt(before, upper);
    if (static_cast<double>(cum) >= target && cum > prev_cum) {
      // Linear interpolation inside the bucket that holds the target rank.
      double frac = (target - static_cast<double>(prev_cum)) /
                    static_cast<double>(cum - prev_cum);
      return static_cast<double>(prev_bound) +
             frac * static_cast<double>(upper - prev_bound);
    }
    prev_bound = upper;
    prev_cum = cum;
  }
  return static_cast<double>(prev_bound);
}

int64_t RegistryDelta::Gauge(const std::string& name) const {
  auto e = end_.gauges.find(name);
  return e == end_.gauges.end() ? 0 : e->second;
}

std::string MakeBody(uint64_t seed, uint32_t session, uint64_t seq,
                     size_t size) {
  size = std::max(size, kBodyHeaderBytes);
  std::string body(size, '\0');
  char* p = body.data();
  std::memcpy(p, kMagic, 4);
  PutU64(p + 4, seed);
  PutU32(p + 12, session);
  PutU64(p + 16, seq);
  uint64_t x = SplitMix(seed ^ SplitMix(session) ^ SplitMix(seq + 1));
  for (size_t i = kBodyHeaderBytes; i < size; i += 8) {
    x = SplitMix(x);
    std::memcpy(p + i, &x, std::min<size_t>(8, size - i));
  }
  PutU32(p + 24, chariots::crc32c::Value(std::string_view(
                     p + kBodyHeaderBytes, size - kBodyHeaderBytes)));
  return body;
}

bool ParseBody(std::string_view body, BodyId* id) {
  if (body.size() < kBodyHeaderBytes ||
      std::memcmp(body.data(), kMagic, 4) != 0) {
    return false;
  }
  const char* p = body.data();
  if (GetU32(p + 24) != chariots::crc32c::Value(body.substr(kBodyHeaderBytes))) {
    return false;
  }
  id->seed = GetU64(p + 4);
  id->session = GetU32(p + 12);
  id->seq = GetU64(p + 16);
  return true;
}

void Outcome::Violation(std::string what) {
  ++failed;
  if (violations.size() < 20) violations.push_back(std::move(what));
}

std::string HostRecordJson(const Options& options) {
  struct utsname u;
  std::string kernel = uname(&u) == 0 ? u.release : "unknown";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"host\": {\"nproc\": %u, \"kernel\": \"%s\", \"io_engine\": \"%s\", "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}}",
      std::thread::hardware_concurrency(), kernel.c_str(),
      chariots::storage::ResolveIoEngine("sync")->name(), PERFBENCH_BUILD_TYPE,
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0);
  return buf;
}

void FlushWriteback(const std::string& dir) {
  int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)syncfs(fd);
  close(fd);
}

IdleSpinners::IdleSpinners() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    threads_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

void RunThreads(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (auto& t : threads) t.join();
}

bool WaitFor(const std::function<bool()>& done, int64_t timeout_nanos) {
  int64_t deadline = NowNanos() + timeout_nanos;
  while (!done()) {
    if (NowNanos() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

namespace {

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void NoteLateness(const std::string& phase, double late_p99_us,
                  double limit_us, Outcome* out) {
  if (late_p99_us > limit_us) out->late_phases.push_back(phase);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void NotOnPath(const std::vector<std::pair<const char*, const char*>>& metrics,
               Outcome* out) {
  for (const auto& [name, unit] : metrics) out->Add(name, 0.0, unit, 0);
}

void AddRegistryLayers(const RegistryDelta& d, uint64_t ops, uint64_t appends,
                       Outcome* out) {
  out->Add("net.frames_per_op", Ratio(d.Counter("net.tcp.frames_sent"), ops),
           "count", ops);
  out->Add("net.copies_per_record",
           Ratio(d.Counter("chariots.net.payload_bytes_copied"),
                 d.Counter("chariots.net.payload_bytes_entered")),
           "count", d.Counter("chariots.net.payload_bytes_entered"));
  out->Add("net.rpc_retries", static_cast<double>(d.Counter("net.rpc.retries")),
           "count", ops);
  const std::string fsync = "storage.log_store.fsync_ns";
  out->Add("storage.fsync_us", d.HistogramPercentile(fsync, 0.5) / 1000.0,
           "us", d.HistogramCount(fsync));
  out->Add("storage.fsyncs_per_append", Ratio(d.HistogramCount(fsync), appends),
           "count", appends);
  out->Add("storage.writes_per_append",
           Ratio(d.Counter("chariots.storage.io.submissions"), appends),
           "count", appends);
  uint64_t hits = d.Counter("chariots.flstore.read_cache.hits");
  uint64_t lookups = hits + d.Counter("chariots.flstore.read_cache.misses");
  out->Add("flstore.client_cache_hit_ratio", Ratio(hits, lookups), "ratio",
           lookups);
  hits = d.Counter("chariots.flstore.tail_cache.hits");
  lookups = hits + d.Counter("chariots.flstore.tail_cache.misses");
  out->Add("flstore.tail_cache_hit_ratio", Ratio(hits, lookups), "ratio",
           lookups);
  uint64_t flushes = d.Counter("chariots.batcher.batches_out");
  out->Add("chariots.records_per_flush",
           Ratio(d.Counter("chariots.batcher.records_in"), flushes), "count",
           flushes);
  uint64_t sends = d.Counter("chariots.sender.batches_sent");
  out->Add("chariots.records_per_send",
           Ratio(d.Counter("chariots.sender.records_sent"), sends), "count",
           sends);
  out->Add("chariots.sender_rewinds",
           static_cast<double>(d.Counter("chariots.sender.rewinds")), "count",
           sends);
  out->Add("common.executor_threads_peak",
           static_cast<double>(d.Gauge("chariots.runtime.threads_peak")),
           "count", 1);
}

}  // namespace perfbench


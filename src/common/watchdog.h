#ifndef CHARIOTS_COMMON_WATCHDOG_H_
#define CHARIOTS_COMMON_WATCHDOG_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "common/metrics.h"

namespace chariots {

/// Health watchdog (ISSUE 9 tentpole part 2). A server registers a set of
/// probes — each a cheap lock-free read of state it already maintains — and
/// the watchdog evaluates them on a periodic tick riding the executor timer
/// service (virtual-time executors tick on AdvanceBy, so drills run with
/// zero real sleeps). Four probe kinds cover the gray-failure taxonomy:
///
///   * progress — a monotone counter that stopped advancing while the
///     subsystem claims to be active: a stalled worker/strand;
///   * queue    — a BoundedQueue pinned above a fill threshold: saturation;
///   * latency  — windowed mean of a cumulative histogram (delta sum /
///     delta count per tick) above an SLO: replication lag, slow reads;
///   * rate     — a counter advancing faster than budget: election churn.
///
/// A probe must breach on `trip_ticks` consecutive ticks before it is
/// reported (default 2: one slow tick is noise, two is a signal). Every
/// reported breach increments the `chariots.health.*` families, logs a
/// rate-limited warning and records a flight-recorder event; the watchdog
/// then snapshots the flight recorder (rate-limited), so the events leading
/// up to the breach survive ring wrap. The admin flightrec RPC serves that
/// snapshot (net/admin.h).

/// One probe's contribution to a health report.
struct ProbeReport {
  std::string name;  // e.g. "dc0/maintainer/0.repl_round"
  std::string kind;  // "progress" | "queue" | "latency" | "rate"
  bool breached = false;
  double value = 0;      // observed this tick (kind-specific unit)
  double threshold = 0;  // breach boundary in the same unit
  std::string detail;    // human-readable one-liner
};

/// Structured health report: what `/healthz`, the admin health RPC, and
/// `chariots_cli health` all serve (as JSON via RenderHealthJson).
struct HealthReport {
  std::string node;
  int64_t now_nanos = 0;
  uint64_t ticks = 0;
  uint64_t breaches = 0;  // cumulative probe-breach-ticks since start
  bool healthy = true;    // no probe breached on the latest tick
  std::vector<ProbeReport> probes;
};

std::string RenderHealthJson(const HealthReport& report);

class Watchdog {
 public:
  struct Options {
    /// Label stamped on every report (the owning server's node id).
    std::string node;
    /// Clock for report timestamps and dump rate-limiting (null = system).
    Clock* clock = nullptr;
    /// Probe evaluation period once Start() is called (unused before).
    int64_t tick_interval_nanos = 100'000'000;  // 100 ms
    /// Consecutive breaching ticks before a probe reports a breach.
    int trip_ticks = 2;
    /// After any tick that reports at least one breach, the watchdog
    /// snapshots the flight recorder (LastBreachDump) and, when this is
    /// set, also writes the snapshot to this file. Rate-limited to one
    /// snapshot per `breach_dump_min_interval_nanos`.
    std::string breach_dump_path;
    int64_t breach_dump_min_interval_nanos = 1'000'000'000;  // 1 s
  };

  explicit Watchdog(Options options);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Progress probe: breaches when `progress()` is unchanged for
  /// `trip_ticks` consecutive ticks while `active()` is true. Pass a null
  /// `active` for a subsystem that should always advance (heartbeats,
  /// gossip rounds).
  void AddProgressProbe(std::string name, std::function<uint64_t()> progress,
                        std::function<bool()> active = nullptr);

  /// Queue probe: breaches when `size()` / capacity >= fill_threshold.
  void AddQueueProbe(std::string name, std::function<uint64_t()> size,
                     uint64_t capacity, double fill_threshold = 0.9);

  /// Latency SLO probe over a cumulative histogram: breaches when the
  /// windowed mean (delta sum / delta count since the previous tick)
  /// exceeds `threshold_nanos`. Ticks with no new samples are healthy.
  void AddLatencyProbe(std::string name, const metrics::Histogram* histogram,
                       uint64_t threshold_nanos);

  /// Rate probe: breaches when `counter()` advances by more than
  /// `max_delta_per_tick` in one tick (election churn, retry storms).
  void AddRateProbe(std::string name, std::function<uint64_t()> counter,
                    uint64_t max_delta_per_tick);

  /// Drops a probe by name. The owner of captured state must remove its
  /// probes (or Stop() the watchdog) before that state is destroyed.
  void RemoveProbe(const std::string& name);

  /// Begins periodic ticking on `executor`'s timer service.
  void Start(Executor* executor);

  /// Cancels the periodic tick; blocks until an in-flight tick returns.
  void Stop();

  /// Evaluates every probe once and returns the report. This is both the
  /// timer body and the direct drive for tests and the admin health RPC.
  HealthReport TickOnce();

  /// Most recent report (empty before the first tick).
  HealthReport LastReport() const;

  /// Flight-recorder snapshot taken at the last reported breach ("" if no
  /// breach has been reported yet).
  std::string LastBreachDump() const;

  /// Probe-breach-ticks reported since construction.
  uint64_t breaches() const;

 private:
  struct Probe;

  /// Registers `probe`, replacing any existing probe with the same name —
  /// so a server Restart() that re-registers its probes doesn't duplicate
  /// them (a duplicate would double-count breaches).
  void InstallProbe(Probe probe);

  const Options options_;
  mutable std::mutex mu_;
  std::vector<Probe> probes_;
  HealthReport last_report_;
  uint64_t ticks_ = 0;
  uint64_t breaches_ = 0;
  int64_t last_dump_nanos_ = 0;
  bool dumped_ = false;
  std::string breach_dump_;
  Executor::TimerToken tick_timer_;
};

/// Force-registers the `chariots.health.{stalls,slo_breaches,dumps}`
/// families on the default registry (PR 7/8 convention). Idempotent; call
/// from server Start().
void RegisterHealthMetrics();

}  // namespace chariots

#endif  // CHARIOTS_COMMON_WATCHDOG_H_

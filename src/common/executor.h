#ifndef CHARIOTS_COMMON_EXECUTOR_H_
#define CHARIOTS_COMMON_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace chariots {

/// RAII registration of the calling thread with the runtime census: names
/// the OS thread via pthread_setname_np (truncated to the kernel's 15-char
/// limit) and counts it in the `chariots.runtime.threads` gauge, so ops can
/// both `ps -T` a node and alert when the thread budget is exceeded. Used by
/// every long-lived thread the system creates (executor workers, timer,
/// thread pools, reactor I/O threads, sim machines).
class ScopedRuntimeThread {
 public:
  explicit ScopedRuntimeThread(const std::string& name);
  ~ScopedRuntimeThread();

  ScopedRuntimeThread(const ScopedRuntimeThread&) = delete;
  ScopedRuntimeThread& operator=(const ScopedRuntimeThread&) = delete;
};

///// Current value of the `chariots.runtime.threads` gauge: how many
/// census-registered threads are alive in this process right now.
int64_t RuntimeThreadCount();

/// High-water mark of the census (`chariots.runtime.threads_peak`): the
/// steady-state thread budget, readable even after teardown.
int64_t RuntimeThreadPeak();

/// Serializes tasks for one component and gates them against its shutdown.
/// The shared state outlives the owning component, so a task queued on an
/// executor can safely capture the gate plus a raw `this`: the body only
/// runs while the gate is open, and Close() blocks until an in-flight body
/// finishes — after Close() returns, no task will ever touch the component
/// again. This replaces per-component worker threads' implicit "join = no
/// more callbacks" guarantee with a single lock.
class SerialGate {
 public:
  SerialGate() : state_(std::make_shared<State>()) {}

  /// Runs `fn` now, on the calling thread, serialized against every other
  /// Run/Wrap body on this gate. Returns false (without running) if closed.
  bool Run(const std::function<void()>& fn) const {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!state_->open) return false;
    fn();
    return true;
  }

  /// Wraps `fn` into a task safe to execute after the owner is gone: the
  /// returned callable locks the gate and silently no-ops once closed.
  std::function<void()> Wrap(std::function<void()> fn) const {
    std::shared_ptr<State> state = state_;
    return [state, fn = std::move(fn)] {
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->open) fn();
    };
  }

  /// Closes the gate: blocks until the running body (if any) returns, then
  /// causes every future Run/Wrap body to no-op. Idempotent.
  void Close() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->open = false;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return !state_->open;
  }

 private:
  struct State {
    std::mutex mu;
    bool open = true;
  };
  std::shared_ptr<State> state_;
};

/// Shared task executor + timer service (DESIGN.md §10): O(cores) named
/// worker threads over sharded work-stealing deques, plus a hierarchical
/// timer driven by the injectable Clock. Every background loop in the
/// system — filter drains, token circulation, GC sweeps, replication
/// sends and ticks, gossip, heartbeats, lease monitors, transport
/// dispatch — runs here as a task, so the process thread count is a
/// function of cores, not of topology size.
///
/// Two execution lanes:
///  * worker lane: Submit() and (by default) timer callbacks. Tasks here
///    may block for bounded durations (disk writes, RPC calls with
///    timeouts) — liveness then depends on the guarantee below.
///  * timer lane: the dedicated timer thread. Callbacks scheduled with
///    Lane::kTimer run directly on it and MUST NOT block; the transports
///    use this lane to deliver RPC *responses*, so a worker blocked inside
///    a handler waiting on a Call() is always unblocked even when every
///    worker is busy. This is the invariant that makes blocking handlers on
///    a small worker pool deadlock-free.
///
/// Virtual time: constructed with Options::manual_clock, the executor has
/// no timer thread; AdvanceUntil() fires due timers inline on the calling
/// thread, in timestamp order, stepping the ManualClock to each deadline —
/// zero real sleeps, fully deterministic (the executor unit tests and the
/// converted lease tests run this way).
class Executor {
 public:
  struct Options {
    /// Worker count; 0 = max(2, min(8, hardware_concurrency)). The floor of
    /// 2 keeps producer/consumer task pairs live on single-core machines.
    size_t num_threads = 0;
    /// Thread-name prefix (workers are "<name>/<i>", timer "<name>/tmr").
    std::string name = "exec";
    /// Timer clock; null = SystemClock::Default(). Ignored (replaced) when
    /// manual_clock is set.
    Clock* clock = nullptr;
    /// Non-null switches the executor to virtual time: timers fire only via
    /// AdvanceUntil()/AdvanceBy() on the caller's thread.
    ManualClock* manual_clock = nullptr;
  };

  /// Which thread a timer callback runs on once due.
  enum class Lane {
    kWorker,  ///< dispatched to the worker pool (may block, bounded)
    kTimer,   ///< inline on the timer thread (must never block)
  };

  /// Cancellation handle for ScheduleAt/ScheduleEvery. Destroying or
  /// discarding a token does NOT cancel the timer (the executor owns the
  /// schedule); only Cancel() does.
  class TimerToken {
   public:
    TimerToken() = default;

    /// Cancels the timer. If its callback is running on another thread,
    /// blocks until it returns — after Cancel() the callback will never run
    /// (again). Calling Cancel() from inside the callback itself is allowed
    /// and returns immediately (the current run completes). Idempotent.
    void Cancel();

    /// True if this token refers to a timer (cancelled or not).
    bool valid() const { return state_ != nullptr; }

   private:
    friend class Executor;
    struct TimerState;
    explicit TimerToken(std::shared_ptr<TimerState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<TimerState> state_;
  };

  Executor();  // default Options
  explicit Executor(Options options);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Process-wide shared executor, created on first use (and intentionally
  /// never destroyed, like SystemClock::Default(), so tasks queued during
  /// static teardown cannot touch a dead pool).
  static Executor* Default();

  /// Overrides the Options used to build Default(). Must be called before
  /// the first Default() call (e.g. from main() flag parsing); later calls
  /// are ignored with a warning.
  static void ConfigureDefault(Options options);

  /// Enqueues `fn` on the worker lane; returns false (with a rate-limited
  /// warning) if the executor is shutting down.
  bool Submit(std::function<void()> fn);

  /// Runs `fn` once when the executor clock reaches `at_nanos` (immediately
  /// if already past). Returns an invalid token (never fires) if the
  /// executor has shut down — check valid() when the schedule must happen.
  TimerToken ScheduleAt(int64_t at_nanos, std::function<void()> fn,
                        Lane lane = Lane::kWorker);

  /// Runs `fn` once after `delay_nanos` (of the executor clock).
  TimerToken ScheduleAfter(int64_t delay_nanos, std::function<void()> fn,
                           Lane lane = Lane::kWorker);

  /// Runs `fn` every `period_nanos`, fixed-delay and non-overlapping: the
  /// next run is armed `period_nanos` after the previous run *returns*
  /// (matching the `sleep(interval); work()` loops this replaces).
  TimerToken ScheduleEvery(int64_t period_nanos, std::function<void()> fn,
                           Lane lane = Lane::kWorker);

  /// Virtual time only: fires every timer due at or before `target_nanos`
  /// inline on the calling thread, in deadline order, stepping the
  /// ManualClock to each deadline and finally to `target_nanos`. Periodic
  /// timers re-arm and keep firing within the window.
  void AdvanceUntil(int64_t target_nanos);

  /// Virtual time only: AdvanceUntil(now + delta_nanos).
  void AdvanceBy(int64_t delta_nanos);

  /// Blocks until the worker lane is quiescent: no queued and no running
  /// task. The complement of AdvanceBy for deterministic virtual-time
  /// tests — timers fire inline on the advancing thread, but the work they
  /// Submit (message deliveries, handler bodies) runs on worker threads
  /// asynchronously; stepping `AdvanceBy(step); WaitIdle();` guarantees
  /// every side effect of one window has landed before the next window's
  /// timers observe state. A task submitted concurrently with the return
  /// is not waited for. Returns immediately after Shutdown.
  void WaitIdle();

  /// Stops accepting work, runs every already-queued worker task, drops
  /// pending timers, and joins all threads. Idempotent; also run by the
  /// destructor.
  void Shutdown();

  Clock* clock() const { return clock_; }
  bool virtual_time() const { return manual_ != nullptr; }
  size_t num_workers() const { return workers_.size(); }

  /// Tasks executed so far (worker lane), for tests and debugging.
  uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard;
  struct TimerEntry;

  void WorkerLoop(size_t index);
  void TimerLoop();
  bool PopTask(size_t index, std::function<void()>* task);
  void RunTimer(const std::shared_ptr<TimerToken::TimerState>& state);
  void Arm(std::shared_ptr<TimerToken::TimerState> state, int64_t due_nanos);

  const std::string name_;
  Clock* clock_ = nullptr;
  ManualClock* manual_ = nullptr;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> submit_rr_{0};
  std::atomic<size_t> pending_{0};
  /// Tasks currently executing on a worker (pending_ counts only queued
  /// ones — it is decremented before the task body runs).
  std::atomic<size_t> running_{0};
  /// Number of WaitIdle callers; workers skip the completion notify when 0.
  std::atomic<size_t> idle_waiters_{0};
  std::atomic<uint64_t> tasks_run_{0};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::condition_variable idle_cv_;

  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers_;
  uint64_t timer_seq_ = 0;

  std::atomic<bool> shutdown_{false};
  std::vector<std::thread> workers_;
  std::thread timer_thread_;
};

}  // namespace chariots

#endif  // CHARIOTS_COMMON_EXECUTOR_H_

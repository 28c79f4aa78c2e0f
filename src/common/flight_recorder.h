#ifndef CHARIOTS_COMMON_FLIGHT_RECORDER_H_
#define CHARIOTS_COMMON_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace chariots::flightrec {

/// Always-on flight recorder (ISSUE 9 tentpole part 1). Every thread that
/// records events owns a fixed-size ring of compact 32-byte slots; writes are
/// a handful of relaxed atomic stores plus one clock read, so the recorder
/// can stay enabled on the append hot path (acceptance: <= 5% on
/// bench_micro). Rings overwrite their oldest events when full — the
/// recorder answers "what was the process doing just now", not "everything
/// that ever happened"; overwrites are counted as drops.
///
/// A dump is a CRC-framed binary snapshot of every ring, readable while
/// writers keep running: each slot carries a seqlock word, so a dump either
/// sees a slot's complete event or skips it (counted as a torn drop). Dumps
/// are triggered on demand (`/debug/flightrecorder`, `chariots_cli
/// flightrec`), by the health watchdog when an SLO breach fires, and
/// best-effort from a fatal-signal handler (InstallCrashDump).
///
/// Compile-out: building with -DCHARIOTS_DISABLE_FLIGHTREC turns Record()
/// into an inline no-op, the baseline for the overhead gate in
/// tools/check_flightrec_overhead.sh.

#if defined(CHARIOTS_DISABLE_FLIGHTREC)
#define CHARIOTS_FLIGHTREC_ENABLED 0
#else
#define CHARIOTS_FLIGHTREC_ENABLED 1
#endif

/// Event taxonomy (DESIGN.md §14.1). `code` and `arg` are per-type details
/// (RPC opcode, queue ordinal, fault kind...), `a`/`b` free payload words
/// (latency nanos, byte counts, epochs, LIds).
enum class EventType : uint16_t {
  kNone = 0,
  kRpcStart = 1,       // code=opcode, a=rpc_id, b=payload bytes
  kRpcEnd = 2,         // code=opcode, arg=status code, a=rpc_id, b=latency ns
  kQueueEnq = 3,       // code=queue ordinal, arg=dc, a=depth after, b=records
  kQueueDeq = 4,       // code=queue ordinal, arg=dc, a=depth after, b=records
  kFsync = 5,          // a=latency ns, b=bytes synced
  kReplInv = 6,        // arg=stripe, a=top lid, b=batch records
  kReplVal = 7,        // arg=stripe, a=top lid, b=round latency ns
  kLeaseTick = 8,      // code=1 leader, arg=replica index, a=epoch, b=lease ns
  kElection = 9,       // arg=replica index, a=term, b=1 won / 0 lost
  kFaultFire = 10,     // code=fault kind (FaultSchedule), a=delay ns
  kWatchdogBreach = 11,  // code=probe kind, a=value, b=threshold
  kAppend = 12,        // arg=stripe, a=lid, b=body bytes
  kDumpMark = 13,      // a=events recorded so far (stamps the dump itself)
};

/// Stable lowercase name for an event type, e.g. "rpc_start"; "unknown" for
/// values outside the taxonomy (a decoder must render anything).
const char* EventTypeName(EventType type);

/// One decoded event. `ring` is the ordinal of the originating thread ring.
struct Event {
  int64_t nanos = 0;
  EventType type = EventType::kNone;
  uint16_t code = 0;
  uint32_t arg = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint32_t ring = 0;
};

/// Decoded snapshot: header stats plus events merged from all rings in
/// timestamp order.
struct DecodedDump {
  int64_t dumped_at_nanos = 0;
  uint32_t rings = 0;
  uint64_t recorded = 0;  // events ever written, including overwritten
  uint64_t dropped = 0;   // overwritten + torn at dump time
  std::vector<Event> events;
};

class Recorder {
 public:
  static constexpr size_t kDefaultSlotsPerRing = 4096;

  /// Process-wide instance (leaked: threads may record during teardown).
  static Recorder& Default();

  explicit Recorder(size_t slots_per_ring = kDefaultSlotsPerRing);
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Injects the timestamp clock (null restores the steady clock). Virtual
  /// time in tests makes "events cover the breach window" assertable.
  void SetClock(Clock* clock);

  /// Runtime gate, default on. Disabled recording is one relaxed load.
  void SetEnabled(bool enabled);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Hot path: appends one event to the calling thread's ring.
  void Record(EventType type, uint16_t code, uint32_t arg, uint64_t a,
              uint64_t b);

  /// CRC-framed binary snapshot of every ring (format: DESIGN.md §14.2).
  /// Safe to call concurrently with writers.
  std::string Dump() const;

  /// Writes Dump() to `path` (truncating). Used by the crash handler and
  /// the watchdog's breach snapshot.
  Status DumpToFile(const std::string& path) const;

  /// Decodes a dump produced by Dump(). Truncated, bit-flipped, or
  /// otherwise damaged input returns Status::Corruption — never crashes,
  /// never reads out of bounds (fuzzed in tests/fuzz_test.cc).
  static Status Decode(std::string_view data, DecodedDump* out);

  /// Events ever recorded / dropped (ring overwrite), summed over rings.
  uint64_t recorded() const;
  uint64_t dropped() const;
  /// Number of thread rings ever created (rings outlive their threads).
  size_t rings() const;
  size_t slots_per_ring() const { return slots_per_ring_; }

  /// Rewinds every ring and the drop accounting. Test isolation only — must
  /// not race with concurrent writers.
  void ResetForTest();

 private:
  struct Ring;

  Ring* RingForThisThread();

  const size_t slots_per_ring_;
  const uint64_t id_;  // process-unique, keys the per-thread ring cache
  std::atomic<bool> enabled_{true};
  std::atomic<Clock*> clock_{nullptr};
  mutable std::mutex mu_;                     // guards rings_ growth
  std::vector<std::unique_ptr<Ring>> rings_;  // never shrinks
};

/// Hot-path entry point used by instrumentation sites; compiles out
/// entirely under -DCHARIOTS_DISABLE_FLIGHTREC.
inline void Record(EventType type, uint16_t code = 0, uint32_t arg = 0,
                   uint64_t a = 0, uint64_t b = 0) {
#if CHARIOTS_FLIGHTREC_ENABLED
  Recorder::Default().Record(type, code, arg, a, b);
#else
  (void)type;
  (void)code;
  (void)arg;
  (void)a;
  (void)b;
#endif
}

/// Human-readable rendering of a decoded dump: header line plus the most
/// recent `max_events` events, one per line (what `chariots_cli flightrec`
/// prints).
std::string RenderDumpText(const DecodedDump& dump, size_t max_events = 64);

/// Force-registers the `chariots.flightrec.{events,drops,dump_bytes}`
/// families on the default registry (PR 7/8 convention: exporters see the
/// families from process start, not first use). Idempotent.
void RegisterFlightRecorderMetrics();

/// Installs SIGSEGV/SIGABRT/SIGBUS handlers that write a final dump of the
/// default recorder to `path` before re-raising. Best-effort: the dump path
/// allocates, which is not async-signal-safe in general — acceptable for a
/// crash artifact of last resort. Idempotent; the last path wins.
void InstallCrashDump(const std::string& path);

}  // namespace chariots::flightrec

#endif  // CHARIOTS_COMMON_FLIGHT_RECORDER_H_

#ifndef CHARIOTS_NET_ADMIN_H_
#define CHARIOTS_NET_ADMIN_H_

#include <cstdint>

#include "common/watchdog.h"
#include "net/rpc.h"

namespace chariots::net {

/// The admin opcodes every role serves (controller, maintainer, indexer and
/// datacenter alike), so one client call answers "is this process healthy,
/// what happened in it, what are its counters, where did its time go"
/// whatever the process is. No role opcode may reuse 30-33.
enum AdminOpcode : uint16_t {
  /// () -> health-report JSON (RenderHealthJson). Runs one watchdog tick on
  /// demand, so it works even where the periodic tick was never armed.
  kHealth = 30,
  /// u8 mode -> raw flight-recorder dump bytes (Recorder::Dump framing).
  /// Mode 0 (or empty payload) snapshots the rings now; mode 1 returns the
  /// snapshot the watchdog took at its last breach (kNotFound if none).
  kFlightRec = 31,
  /// () -> the process's metrics snapshot as JSON (metrics::RenderJson).
  kMetrics = 32,
  /// u8 mode -> sampled traces: mode 0 (or empty payload) as JSON
  /// (trace::RenderTracesJson), mode 1 as one critical-path breakdown per
  /// trace (trace::RenderCriticalPath).
  kTrace = 33,
};

/// Registers the four admin handlers on `endpoint` (before its Start()) and
/// force-registers the health and flight-recorder metric families. Health
/// and the breach snapshot come from `watchdog`, which must outlive the
/// endpoint's serving.
void ServeAdmin(RpcEndpoint* endpoint, Watchdog* watchdog);

}  // namespace chariots::net

#endif  // CHARIOTS_NET_ADMIN_H_

#include "net/admin.h"

#include <string>
#include <vector>

#include "common/codec.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace chariots::net {
namespace {

/// Optional one-byte mode argument (empty payload = mode 0).
Result<uint8_t> DecodeMode(const std::string& payload) {
  uint8_t mode = 0;
  if (!payload.empty()) {
    BinaryReader r(payload);
    CHARIOTS_RETURN_IF_ERROR(r.GetU8(&mode));
  }
  return mode;
}

}  // namespace

void ServeAdmin(RpcEndpoint* endpoint, Watchdog* watchdog) {
  RegisterHealthMetrics();
  flightrec::RegisterFlightRecorderMetrics();

  endpoint->Handle(kHealth, [watchdog](const NodeId&, const std::string&)
                                -> Result<std::string> {
    return RenderHealthJson(watchdog->TickOnce());
  });

  endpoint->Handle(kFlightRec, [watchdog](const NodeId&,
                                          const std::string& payload)
                                   -> Result<std::string> {
    CHARIOTS_ASSIGN_OR_RETURN(uint8_t mode, DecodeMode(payload));
    if (mode == 1) {
      std::string dump = watchdog->LastBreachDump();
      if (dump.empty()) {
        return Status::NotFound("no watchdog breach has fired yet");
      }
      return dump;
    }
    return flightrec::Recorder::Default().Dump();
  });

  endpoint->Handle(kMetrics, [](const NodeId&, const std::string&)
                                 -> Result<std::string> {
    return metrics::RenderJson(metrics::Registry::Default().Snapshot());
  });

  endpoint->Handle(kTrace, [](const NodeId&, const std::string& payload)
                               -> Result<std::string> {
    CHARIOTS_ASSIGN_OR_RETURN(uint8_t mode, DecodeMode(payload));
    std::vector<trace::TraceContext> traces =
        trace::TraceSink::Default().Traces();
    if (mode == 1) {
      // Critical-path mode: render the per-stage breakdown server-side so
      // clients need no access to the span wire format.
      std::string out;
      for (const trace::TraceContext& ctx : traces) {
        out += trace::RenderCriticalPath(ctx);
        out += '\n';
      }
      if (out.empty()) out = "no sampled traces recorded yet\n";
      return out;
    }
    return trace::RenderTracesJson(traces);
  });
}

}  // namespace chariots::net

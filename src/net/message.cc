#include "net/message.h"

#include "common/codec.h"
#include "common/metrics.h"

namespace chariots::net {

namespace {

metrics::Counter* PayloadEnteredCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.net.payload_bytes_entered");
  return c;
}

metrics::Counter* PayloadCopiedCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.net.payload_bytes_copied");
  return c;
}

// chariots.net.copies_per_record — bytes-weighted copies per record on the
// append path, exported in 1/100ths of a copy (gauges are integral). The
// registration lives for the process; the counters it reads are the two
// above.
const bool g_copies_gauge_registered = [] {
  metrics::Registry::Default().RegisterCallback(
      "chariots.net.copies_per_record_x100", []() -> int64_t {
        uint64_t entered = PayloadEnteredCounter()->Value();
        if (entered == 0) return 0;
        return static_cast<int64_t>(PayloadCopiedCounter()->Value() * 100 /
                                    entered);
      });
  return true;
}();

}  // namespace

void CountPayloadEntered(size_t bytes) {
  (void)g_copies_gauge_registered;
  PayloadEnteredCounter()->Add(bytes);
}

void CountPayloadCopied(size_t bytes) { PayloadCopiedCounter()->Add(bytes); }

size_t Message::WireSize() const {
  // Mirrors EncodeMessageSlices below, field for field: from, to and
  // payload carry a u32 length prefix each (3*4), plus u16 type + u64
  // rpc_id + u8 is_response + u8 error_code = 24 fixed bytes. An active
  // trace trailer adds u64 trace_id + u32 hop count (12), per hop a
  // length-prefixed stage + u32 dc + i64 nanos (stage + 16), then u32 span
  // count + u32 chain (8) and, per span, u32 id + u32 parent +
  // length-prefixed stage + u32 dc + i64 start + i64 end (stage + 32).
  size_t trace_bytes = 0;
  if (trace.active()) {
    trace_bytes = 12 + 8;
    for (const auto& hop : trace.hops) trace_bytes += hop.stage.size() + 16;
    for (const auto& span : trace.spans) {
      trace_bytes += span.stage.size() + 32;
    }
  }
  return from.size() + to.size() + payload.size() + trace_bytes + 24;
}

SliceChain EncodeMessageSlices(Message&& msg, std::string_view prepend) {
  SliceChain chain;
  BinaryWriter hdr;
  hdr.PutRaw(prepend);
  hdr.PutBytes(msg.from);
  hdr.PutBytes(msg.to);
  hdr.PutU16(msg.type);
  hdr.PutU64(msg.rpc_id);
  hdr.PutU8(msg.is_response ? 1 : 0);
  hdr.PutU8(msg.error_code);
  hdr.PutU32(static_cast<uint32_t>(msg.payload.size()));
  if (msg.payload.size() < kInlineMessagePayloadBytes) {
    // Small payload: one buffer beats a third iovec entry. This is the only
    // payload copy on the slice path, and it is counted.
    CountPayloadCopied(msg.payload.size());
    hdr.PutRaw(msg.payload);
    trace::EncodeTrace(msg.trace, &hdr);
    chain.AppendOwned(std::move(hdr).data());
    return chain;
  }
  chain.AppendOwned(std::move(hdr).data());
  // The payload buffer is moved, not copied: the chain's refcount keeps it
  // alive through the write queue and any retransmit.
  chain.AppendOwned(std::move(msg.payload));
  if (msg.trace.active()) {
    BinaryWriter trailer;
    trace::EncodeTrace(msg.trace, &trailer);
    chain.AppendOwned(std::move(trailer).data());
  }
  return chain;
}

Result<Message> DecodeMessage(std::string_view data) {
  BinaryReader r(data);
  Message msg;
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&msg.from));
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&msg.to));
  CHARIOTS_RETURN_IF_ERROR(r.GetU16(&msg.type));
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&msg.rpc_id));
  uint8_t is_response = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU8(&is_response));
  msg.is_response = is_response != 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU8(&msg.error_code));
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&msg.payload));
  if (!trace::DecodeTrace(&r, &msg.trace)) {
    return Status::Corruption("bad trace trailer in message");
  }
  return msg;
}

}  // namespace chariots::net

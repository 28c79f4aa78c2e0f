#ifndef CHARIOTS_NET_MESSAGE_H_
#define CHARIOTS_NET_MESSAGE_H_

#include <cstdint>
#include <string>

#include "common/codec.h"
#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"

namespace chariots::net {

/// Logical node address. Nodes are named hierarchically by convention,
/// e.g. "dc0/maintainer/2" or "dc1/receiver/0".
using NodeId = std::string;

/// A unit of communication between nodes. `type` is an application-defined
/// opcode; `rpc_id` correlates a response with its request (0 for one-way
/// notifications).
struct Message {
  NodeId from;
  NodeId to;
  uint16_t type = 0;
  uint64_t rpc_id = 0;
  bool is_response = false;
  /// Non-zero on an error response: holds the StatusCode.
  uint8_t error_code = 0;
  std::string payload;
  /// Record-level trace carried in the message header; inactive (and
  /// zero-byte on the wire) for unsampled traffic.
  trace::TraceContext trace;

  /// Exact wire size in bytes — equals EncodeMessageSlices(*this).size()
  /// with no prepend. Used by the bandwidth simulation and the TCP frame
  /// length; defined next to the codec so the two cannot drift apart
  /// silently (net_test asserts equality).
  size_t WireSize() const;
};

/// Payloads below this size are copied into the header buffer by
/// EncodeMessageSlices instead of borrowed: a third iovec entry costs more
/// than a small memcpy. Large payloads — the bytes the zero-copy datapath
/// exists for — are always borrowed.
inline constexpr size_t kInlineMessagePayloadBytes = 512;

/// The wire encoder (DESIGN.md §15): header and trace-trailer bytes are
/// freshly encoded into chain-owned buffers while a large payload is MOVED
/// into a refcounted Buffer and borrowed, so record bytes are referenced,
/// never copied, from here to the socket. `prepend` (may be empty) is
/// placed verbatim before the message inside the header buffer — the TCP
/// framing length prefix rides there for free. Wire layout: from, to
/// (length-prefixed), u16 type, u64 rpc_id, u8 is_response, u8 error_code,
/// length-prefixed payload, then the optional trace trailer.
/// Guarantee: DecodeMessage(chain.Flatten() minus prepend) round-trips
/// every message shape (asserted in net_test).
SliceChain EncodeMessageSlices(Message&& msg, std::string_view prepend = {});

/// Parses wire bytes (one EncodeMessageSlices chain, flattened) back into
/// a message.
Result<Message> DecodeMessage(std::string_view data);

/// Append-path copy accounting (feeds chariots.net.copies_per_record).
/// Every layer that memcpys record payload bytes on the way from the client
/// encode to the socket/disk reports them via CountPayloadCopied; each
/// payload entering the datapath counts once via CountPayloadEntered. The
/// exported gauge is the bytes-weighted average number of copies per
/// record: copied bytes / entered bytes, in 1/100ths of a copy.
void CountPayloadEntered(size_t bytes);
void CountPayloadCopied(size_t bytes);

}  // namespace chariots::net

#endif  // CHARIOTS_NET_MESSAGE_H_

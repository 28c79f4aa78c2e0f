#include "chariots/geo_service.h"

#include <condition_variable>

#include "common/codec.h"
#include "common/trace.h"
#include "flstore/indexer.h"
#include "net/admin.h"

namespace chariots::geo {

namespace {

/// Client-side trace sampling rate: every 1024th append per client session
/// (plus the first) originates a sampled trace, matching the server-side
/// default in ChariotsConfig::trace_sample_every.
constexpr uint32_t kClientTraceSampleEvery = 1024;

/// "Datacenter id" stamped into trace ids originated by RPC clients, which
/// do not know which datacenter they talk to. Distinct from any real dc id
/// so client-originated ids cannot collide with server-originated ones.
constexpr uint32_t kClientTraceDc = 0xFFFF;

std::string EncodeRecordWithLid(const GeoRecord& record) {
  BinaryWriter w;
  w.PutU64(record.lid);
  w.PutBytes(EncodeGeoRecord(record));
  return std::move(w).data();
}

Result<GeoRecord> DecodeRecordWithLid(std::string_view data) {
  BinaryReader r(data);
  flstore::LId lid = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&lid));
  std::string bytes;
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&bytes));
  CHARIOTS_ASSIGN_OR_RETURN(GeoRecord record, DecodeGeoRecord(bytes));
  record.lid = lid;
  return record;
}

}  // namespace

GeoServer::GeoServer(net::Transport* transport, net::NodeId node,
                     Datacenter* dc, GeoServerOptions options)
    : dc_(dc),
      options_(std::move(options)),
      endpoint_(transport, node),
      watchdog_({.node = node,
                 .clock = options_.clock,
                 .tick_interval_nanos = options_.watchdog_interval_nanos,
                 .breach_dump_path = options_.breach_dump_path}) {}

GeoServer::~GeoServer() { Stop(); }

Status GeoServer::Start() {
  dc_->RegisterWatchdogProbes(&watchdog_);
  net::ServeAdmin(&endpoint_, &watchdog_);
  endpoint_.Handle(kGeoAppend, [this](const net::NodeId&,
                                      const std::string& payload)
                                   -> Result<std::string> {
    // Request: body, u32 tag count + tags, u32 dep count + deps.
    BinaryReader r(payload);
    std::string body;
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&body));
    uint32_t n = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
    std::vector<flstore::Tag> tags(n);
    for (uint32_t i = 0; i < n; ++i) {
      CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&tags[i].key));
      CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&tags[i].value));
    }
    CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
    DepVector deps(n);
    for (uint32_t i = 0; i < n; ++i) {
      CHARIOTS_RETURN_IF_ERROR(r.GetU64(&deps[i]));
    }

    // Block the RPC until locally durable (the paper's append contract:
    // TOId and LId go back to the application client).
    struct Wait {
      std::mutex mu;
      std::condition_variable cv;
      bool done = false;
      flstore::LId lid = flstore::kInvalidLId;
    };
    auto wait = std::make_shared<Wait>();
    // Continue a trace the RPC client started (handlers run on the
    // transport delivery thread, where the inbound trace is current).
    TOId toid = dc_->Append(std::move(body), std::move(tags),
                            std::move(deps),
                            [wait](TOId, flstore::LId lid) {
                              std::lock_guard<std::mutex> lock(wait->mu);
                              wait->done = true;
                              wait->lid = lid;
                              wait->cv.notify_all();
                            },
                            net::CurrentRpcTrace());
    std::unique_lock<std::mutex> lock(wait->mu);
    if (!wait->cv.wait_for(lock, std::chrono::seconds(5),
                           [&] { return wait->done; })) {
      return Status::TimedOut("append not durable in time");
    }
    BinaryWriter out;
    out.PutU64(toid);
    out.PutU64(wait->lid);
    return std::move(out).data();
  });

  endpoint_.Handle(kGeoRead, [this](const net::NodeId&,
                                    const std::string& payload)
                                 -> Result<std::string> {
    BinaryReader r(payload);
    flstore::LId lid = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&lid));
    CHARIOTS_ASSIGN_OR_RETURN(GeoRecord record, dc_->Read(lid));
    return EncodeRecordWithLid(record);
  });

  endpoint_.Handle(kGeoReadRange, [this](const net::NodeId&,
                                         const std::string& payload)
                                      -> Result<std::string> {
    BinaryReader r(payload);
    flstore::LId from = 0;
    uint32_t limit = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&from));
    CHARIOTS_RETURN_IF_ERROR(r.GetU32(&limit));
    // Bound the response: a huge limit must not turn into an unbounded
    // payload. Clients loop on the truncated result.
    constexpr uint32_t kMaxRangeRecords = 4096;
    std::vector<GeoRecord> records =
        dc_->ReadRange(from, std::min(limit, kMaxRangeRecords));
    BinaryWriter out;
    out.PutU32(static_cast<uint32_t>(records.size()));
    for (const GeoRecord& record : records) {
      out.PutBytes(EncodeRecordWithLid(record));
    }
    return std::move(out).data();
  });

  endpoint_.Handle(kGeoHead, [this](const net::NodeId&, const std::string&)
                                 -> Result<std::string> {
    BinaryWriter out;
    out.PutU64(dc_->HeadLid());
    return std::move(out).data();
  });

  endpoint_.Handle(kGeoLookup, [this](const net::NodeId&,
                                      const std::string& payload)
                                   -> Result<std::string> {
    CHARIOTS_ASSIGN_OR_RETURN(flstore::IndexQuery query,
                              flstore::DecodeIndexQuery(payload));
    return flstore::EncodePostings(dc_->Lookup(query));
  });

  endpoint_.Handle(kGeoReadByToid, [this](const net::NodeId&,
                                          const std::string& payload)
                                       -> Result<std::string> {
    BinaryReader r(payload);
    uint32_t host = 0;
    TOId toid = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU32(&host));
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&toid));
    CHARIOTS_ASSIGN_OR_RETURN(GeoRecord record,
                              dc_->ReadByToid(host, toid));
    return EncodeRecordWithLid(record);
  });

  CHARIOTS_RETURN_IF_ERROR(endpoint_.Start());
  if (options_.watchdog_interval_nanos > 0) {
    watchdog_.Start(options_.executor);
  }
  return Status::OK();
}

void GeoServer::Stop() {
  watchdog_.Stop();
  endpoint_.Stop();
}

// ------------------------------------------------------------ GeoRpcClient

GeoRpcClient::GeoRpcClient(net::Transport* transport, net::NodeId node,
                           net::NodeId server)
    : endpoint_(transport, std::move(node)), server_(std::move(server)) {}

GeoRpcClient::~GeoRpcClient() { Stop(); }

Status GeoRpcClient::Start() { return endpoint_.Start(); }

void GeoRpcClient::Stop() { endpoint_.Stop(); }

void GeoRpcClient::Absorb(const GeoRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t need = std::max<size_t>(record.host + 1, record.deps.size());
  if (deps_.size() < need) deps_.resize(need, 0);
  deps_[record.host] = std::max(deps_[record.host], record.toid);
  for (size_t d = 0; d < record.deps.size(); ++d) {
    deps_[d] = std::max(deps_[d], record.deps[d]);
  }
}

Result<std::pair<TOId, flstore::LId>> GeoRpcClient::Append(
    std::string body, std::vector<flstore::Tag> tags) {
  BinaryWriter w;
  w.PutBytes(body);
  w.PutU32(static_cast<uint32_t>(tags.size()));
  for (const flstore::Tag& tag : tags) {
    w.PutBytes(tag.key);
    w.PutBytes(tag.value);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    w.PutU32(static_cast<uint32_t>(deps_.size()));
    for (TOId d : deps_) w.PutU64(d);
  }
  // A sampled append originates its trace here: only the id crosses the
  // wire; all hop timestamps are stamped by the server process, keeping
  // them on one clock (and therefore monotonic).
  net::CallOptions options;
  uint64_t seq = append_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (trace::ShouldSample(seq, kClientTraceSampleEvery)) {
    options.trace.trace_id = trace::MakeTraceId(kClientTraceDc, seq);
  }
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string payload,
      endpoint_.Call(server_, kGeoAppend, std::move(w).data(), options));
  BinaryReader r(payload);
  TOId toid = 0;
  flstore::LId lid = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&toid));
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&lid));
  return std::make_pair(toid, lid);
}

Result<GeoRecord> GeoRpcClient::Read(flstore::LId lid) {
  BinaryWriter w;
  w.PutU64(lid);
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string payload,
      endpoint_.Call(server_, kGeoRead, std::move(w).data()));
  CHARIOTS_ASSIGN_OR_RETURN(GeoRecord record, DecodeRecordWithLid(payload));
  Absorb(record);
  return record;
}

Result<GeoRecord> GeoRpcClient::ReadByToid(DatacenterId host, TOId toid) {
  BinaryWriter w;
  w.PutU32(host);
  w.PutU64(toid);
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string payload,
      endpoint_.Call(server_, kGeoReadByToid, std::move(w).data()));
  CHARIOTS_ASSIGN_OR_RETURN(GeoRecord record, DecodeRecordWithLid(payload));
  Absorb(record);
  return record;
}

Result<flstore::LId> GeoRpcClient::Head() {
  CHARIOTS_ASSIGN_OR_RETURN(std::string payload,
                            endpoint_.Call(server_, kGeoHead, ""));
  BinaryReader r(payload);
  flstore::LId head = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&head));
  return head;
}

Result<std::vector<GeoRecord>> GeoRpcClient::ReadRange(flstore::LId from,
                                                       size_t limit) {
  BinaryWriter w;
  w.PutU64(from);
  w.PutU32(static_cast<uint32_t>(limit));
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string payload,
      endpoint_.Call(server_, kGeoReadRange, std::move(w).data()));
  BinaryReader r(payload);
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  std::vector<GeoRecord> records;
  records.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string bytes;
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&bytes));
    CHARIOTS_ASSIGN_OR_RETURN(GeoRecord record, DecodeRecordWithLid(bytes));
    Absorb(record);
    records.push_back(std::move(record));
  }
  return records;
}

Result<std::vector<flstore::Posting>> GeoRpcClient::Lookup(
    const flstore::IndexQuery& query) {
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string payload,
      endpoint_.Call(server_, kGeoLookup,
                     flstore::EncodeIndexQuery(query)));
  return flstore::DecodePostings(payload);
}

Result<GeoRecord> GeoRpcClient::ReadMostRecent(const std::string& tag_key,
                                               flstore::LId before_lid) {
  flstore::IndexQuery query;
  query.key = tag_key;
  if (before_lid == flstore::kInvalidLId) {
    CHARIOTS_ASSIGN_OR_RETURN(before_lid, Head());
  }
  query.before_lid = before_lid;
  query.limit = 1;
  CHARIOTS_ASSIGN_OR_RETURN(std::vector<flstore::Posting> postings,
                            Lookup(query));
  if (postings.empty()) {
    return Status::NotFound("no record with tag " + tag_key);
  }
  return Read(postings.front().lid);
}

}  // namespace chariots::geo

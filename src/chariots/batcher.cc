#include "chariots/batcher.h"

#include "common/metrics.h"

namespace chariots::geo {

namespace {

// Stage instruments are process-global (shared by every batcher in every
// in-process datacenter): counters are additive and histograms merge, so no
// per-instance naming is needed. Per-dc gauges live in datacenter.cc.
metrics::Counter* RecordsInCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.batcher.records_in");
  return c;
}

metrics::Counter* BatchesOutCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.batcher.batches_out");
  return c;
}

metrics::Histogram* BatchSizeHist() {
  static metrics::Histogram* h =
      metrics::Registry::Default().GetHistogram("chariots.batcher.batch_size");
  return h;
}

metrics::Histogram* FlushLatencyHist() {
  static metrics::Histogram* h =
      metrics::Registry::Default().GetHistogram("chariots.batcher.flush_ns");
  return h;
}

}  // namespace

Batcher::Batcher(const FilterMap* filter_map, size_t flush_records,
                 FlushFn flush, IdleFn idle)
    : filter_map_(filter_map),
      flush_records_(flush_records),
      flush_(std::move(flush)),
      idle_(std::move(idle)) {}

void Batcher::Submit(GeoRecord record) {
  records_in_.fetch_add(1, std::memory_order_relaxed);
  RecordsInCounter()->Add();
  uint32_t filter_id = filter_map_->FilterFor(record.host, record.toid);
  // Flush EVERY buffer at/over threshold, not just this record's: a racing
  // FlushAll (or a flush_ running outside the lock while other Submits keep
  // pushing) can leave several buffers over flush_records_. Loop until this
  // submit observes all buffers below threshold, or all empty when idle.
  std::vector<std::pair<uint32_t, std::vector<GeoRecord>>> ready;
  bool pushed = false;
  for (;;) {
    ready.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!pushed) {
        buffers_[filter_id].push_back(std::move(record));
        pushed = true;
      }
      // Read under the lock, after the push: an owner that marks itself
      // idle before its FlushAll() either sees this record there or is seen
      // idle here.
      const bool idle = idle_();
      for (auto& [id, buf] : buffers_) {
        if (buf.size() >= flush_records_ || (idle && !buf.empty())) {
          ready.emplace_back(id, std::move(buf));
          buf.clear();
        }
      }
    }
    if (ready.empty()) return;
    for (auto& [id, batch] : ready) Deliver(id, std::move(batch));
  }
}

void Batcher::FlushAll() {
  std::unordered_map<uint32_t, std::vector<GeoRecord>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(buffers_);
  }
  for (auto& [filter_id, batch] : out) {
    if (!batch.empty()) Deliver(filter_id, std::move(batch));
  }
}

void Batcher::Deliver(uint32_t filter_id, std::vector<GeoRecord> batch) {
  batches_out_.fetch_add(1, std::memory_order_relaxed);
  BatchesOutCounter()->Add();
  BatchSizeHist()->Record(batch.size());
  metrics::ScopedLatencyTimer timer(FlushLatencyHist());
  flush_(filter_id, std::move(batch));
}

}  // namespace chariots::geo

#ifndef CHARIOTS_CHARIOTS_BATCHER_H_
#define CHARIOTS_CHARIOTS_BATCHER_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "chariots/filter_map.h"
#include "chariots/record.h"

namespace chariots::geo {

/// A batcher (paper §6.2): buffers records received locally or from remote
/// datacenters, one buffer per destination filter, and flushes a buffer to
/// its filter when it reaches the size threshold. There is no flush timer:
/// a Submit that finds the downstream pipeline idle flushes at once (a
/// linger-0 group commit), and the owner calls FlushAll() when the pipeline
/// goes idle, so records only wait while there is work ahead of them.
/// Batchers are completely independent of each other — adding one requires
/// no coordination.
class Batcher {
 public:
  /// Delivers a flushed batch to filter `filter_id`.
  using FlushFn =
      std::function<void(uint32_t filter_id, std::vector<GeoRecord> batch)>;
  /// Reports whether the downstream pipeline is idle. Evaluated under the
  /// batcher lock after each Submit's record is buffered, so an owner that
  /// marks itself idle and then calls FlushAll() strands no record.
  using IdleFn = std::function<bool()>;

  Batcher(const FilterMap* filter_map, size_t flush_records, FlushFn flush,
          IdleFn idle);

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Routes `record` into the buffer of its championing filter; flushes
  /// every buffer at the threshold, or every non-empty one when the
  /// pipeline is idle.
  void Submit(GeoRecord record);

  /// Forces all buffers out immediately.
  void FlushAll();

  uint64_t records_in() const { return records_in_.load(); }
  uint64_t batches_out() const { return batches_out_.load(); }

 private:
  void Deliver(uint32_t filter_id, std::vector<GeoRecord> batch);

  const FilterMap* const filter_map_;
  const size_t flush_records_;
  FlushFn flush_;
  IdleFn idle_;

  std::mutex mu_;
  std::unordered_map<uint32_t, std::vector<GeoRecord>> buffers_;
  std::atomic<uint64_t> records_in_{0};
  std::atomic<uint64_t> batches_out_{0};
};

}  // namespace chariots::geo

#endif  // CHARIOTS_CHARIOTS_BATCHER_H_

#ifndef CHARIOTS_NET_INPROC_TRANSPORT_H_
#define CHARIOTS_NET_INPROC_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "common/random.h"
#include "common/rate_limiter.h"
#include "net/fault_schedule.h"
#include "net/transport.h"

namespace chariots::net {

/// Link characteristics between two groups of nodes.
struct LinkOptions {
  /// One-way propagation delay added to every message.
  int64_t latency_nanos = 0;
  /// NIC/link serialization rate; <= 0 means unlimited.
  double bandwidth_bytes_per_sec = 0;
  /// Probability a message is silently dropped (fault injection).
  double drop_probability = 0;
};

/// In-process transport that simulates a network: per-link latency,
/// token-bucket bandwidth, and probabilistic drop for fault-injection tests.
///
/// Execution model (DESIGN.md §10): there are no per-node inbox threads.
/// Each registered node has an inbox *strand* on the shared executor that
/// delivers its due messages one at a time (preserving the historical
/// one-message-at-a-time contract RpcEndpoint relies on). Delayed messages
/// (link latency, fault delays) wait on the executor's timer service, so a
/// virtual-time executor makes simulated WANs run with zero real sleeps.
/// RPC *responses* are delivered inline on the sending/timer thread, never
/// through the worker pool — a worker blocked inside a handler waiting on a
/// Call() is always unblocked even when every worker is busy.
///
/// Link resolution: the most specific matching rule wins. Rules are keyed by
/// (src_prefix, dst_prefix) where a node matches a prefix if its id starts
/// with it; "" matches everything. E.g. a rule ("dc0", "dc1") gives all
/// dc0→dc1 traffic WAN characteristics while ("", "") keeps intra-DC traffic
/// fast. Partitions are modeled with drop_probability = 1.
class InProcTransport : public Transport {
 public:
  /// `clock` null means the executor's clock; `executor` null means
  /// Executor::Default(). Passing a virtual-time executor (and leaving
  /// `clock` null) puts both the latency arithmetic and the timers on the
  /// same ManualClock.
  explicit InProcTransport(Clock* clock = nullptr,
                           Executor* executor = nullptr);
  ~InProcTransport() override;

  /// `may_run_inline` is ignored: delivery order and timing stay those of
  /// the simulated link, so virtual-time runs replay unchanged.
  Status Register(const NodeId& node, MessageHandler handler,
                  InlinePredicate may_run_inline = nullptr) override;
  Status Unregister(const NodeId& node) override;
  Status Send(Message msg) override;

  /// Installs (or replaces) a link rule. More specific (longer) prefixes
  /// take precedence; ties broken by src prefix length.
  void SetLink(const std::string& src_prefix, const std::string& dst_prefix,
               LinkOptions options);

  /// Convenience: drop everything between the two prefixes (both ways).
  void Partition(const std::string& a_prefix, const std::string& b_prefix);

  /// Removes the partition installed by Partition().
  void Heal(const std::string& a_prefix, const std::string& b_prefix);

  /// The scripted fault plan consulted for every message: drop / duplicate /
  /// delay / reorder the Nth message matching a predicate, plus
  /// crash-restart outage windows per node. Mutate it any time; pair with
  /// Seed() so a whole scenario replays from one seed.
  FaultSchedule& faults() { return faults_; }

  /// Re-seeds both the link-level drop PRNG and the fault schedule so a
  /// probabilistic run is reproducible from a single printed seed.
  void Seed(uint64_t seed);

  /// Counters for tests.
  uint64_t messages_delivered() const;
  uint64_t messages_dropped() const;

 private:
  struct Inbox;
  struct DelayedMessage {
    int64_t deliver_at_nanos;
    uint64_t seq;  // tie-break preserves FIFO for equal timestamps
    Message msg;
    bool operator>(const DelayedMessage& other) const {
      if (deliver_at_nanos != other.deliver_at_nanos) {
        return deliver_at_nanos > other.deliver_at_nanos;
      }
      return seq > other.seq;
    }
  };

  struct LinkRule {
    std::string src_prefix;
    std::string dst_prefix;
    LinkOptions options;
    std::unique_ptr<TokenBucket> bandwidth;  // null if unlimited
  };

  LinkRule* ResolveLink(const NodeId& from, const NodeId& to);
  /// Enqueues one already-inspected message on its inbox (immediate →
  /// inline response delivery or ready queue + strand; future → timer).
  /// Returns false if the destination stopped meanwhile.
  bool Enqueue(const std::shared_ptr<Inbox>& inbox, Message msg,
               int64_t deliver_at_nanos, uint64_t seq);
  /// Inbox strand body: delivers ready messages one at a time.
  void DrainReady(const std::shared_ptr<Inbox>& inbox);
  /// Timer callback (timer lane): moves due delayed messages out — requests
  /// to the ready queue/strand, responses delivered inline.
  void DrainDue(const std::shared_ptr<Inbox>& inbox);
  /// Schedules the strand if not already scheduled. Caller must not hold
  /// inbox->mu.
  void ScheduleDrain(const std::shared_ptr<Inbox>& inbox);
  /// Arms the delayed-queue timer for the current head. Caller holds
  /// inbox->mu.
  void ArmLocked(const std::shared_ptr<Inbox>& inbox);
  /// Runs the handler (outage check included) under the inbox gate.
  void Deliver(const std::shared_ptr<Inbox>& inbox, Message msg);

  Clock* clock_;
  Executor* const executor_;
  FaultSchedule faults_;
  mutable std::mutex mu_;
  std::unordered_map<NodeId, std::shared_ptr<Inbox>> inboxes_;
  std::vector<std::unique_ptr<LinkRule>> links_;
  Random rng_;
  uint64_t seq_ = 0;
  uint64_t delivered_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace chariots::net

#endif  // CHARIOTS_NET_INPROC_TRANSPORT_H_

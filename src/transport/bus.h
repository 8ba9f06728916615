/// \file
/// In-process message bus with per-endpoint mailboxes, optional egress rate
/// limiting, and an optional per-destination egress batcher.
///
/// This stands in for the paper's Ethernet + ZMQ layer: every endpoint
/// (server service loop, worker syncer mailbox) registers a blocking queue;
/// Send() routes by address. A token-bucket rate limiter can be attached per
/// node to emulate a bounded-egress NIC in wall-clock time (used by examples;
/// the quantitative bandwidth experiments use the virtual-time fabric in
/// src/sim instead). Traffic is accounted per node for the load-balance
/// experiments.
///
/// Batching (EnableBatching): outgoing messages from one node to the same
/// destination node and iteration coalesce into one framed wire message, so
/// a many-layer model's per-layer pushes to a shard endpoint cost one frame
/// instead of one per layer. Each node owns an egress queue and a flusher
/// thread; a batch is cut when it reaches the configured message/byte
/// thresholds, when the iteration changes, on shutdown messages, or when the
/// flush interval elapses — so a blocked or throttled destination can only
/// ever stall its own node's egress, never another node's (see
/// docs/WIRE_FORMAT.md).
///
/// Fault injection (EnableFaultInjection): a seeded FaultInjector sits on
/// the remote delivery path and drops (with link-layer retransmit),
/// duplicates, delays, or partitions traffic; every remote data message is
/// stamped with a per-stream sequence number and passes through a
/// receiver-side ReorderBuffer that deduplicates and restores per-stream
/// FIFO order before the consumer sees it. Traffic counters keep reporting
/// the fault-free logical traffic; the injected weather is accounted
/// separately in FaultCounters (see docs/FAULT_TOLERANCE.md).
#ifndef POSEIDON_SRC_TRANSPORT_BUS_H_
#define POSEIDON_SRC_TRANSPORT_BUS_H_

#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/blocking_queue.h"
#include "src/common/status.h"
#include "src/stats/metrics.h"
#include "src/transport/fault_injector.h"
#include "src/transport/message.h"
#include "src/transport/rate_limiter.h"
#include "src/transport/sequencer.h"
#include "src/transport/transport.h"

namespace poseidon {

/// Observed traffic on one directed (src node, dst node) link since
/// EnableLinkStats: wire bytes, wire messages (a batched frame counts once),
/// and the distribution of bus-accept-to-mailbox-push delivery latency.
struct LinkStat {
  int src = 0;
  int dst = 0;
  int64_t bytes = 0;
  int64_t messages = 0;
  Histogram::Snapshot delivery_latency_ns;
};

/// Point-in-time per-link traffic matrix (links with no traffic omitted).
struct ObservedLinkStats {
  double window_s = 0.0;  ///< seconds since EnableLinkStats
  std::vector<LinkStat> links;

  /// The stat for (src, dst), or nullptr if that link carried no traffic.
  const LinkStat* Find(int src, int dst) const {
    for (const LinkStat& link : links) {
      if (link.src == src && link.dst == dst) {
        return &link;
      }
    }
    return nullptr;
  }
};

/// Egress batching knobs. Defaults favour throughput on many-layer models
/// while keeping the added latency bounded by the flush interval.
struct EgressBatchOptions {
  /// A batch is cut when it holds this many messages.
  int max_batch_messages = 16;
  /// ... or this many payload bytes.
  int64_t max_batch_bytes = 4 << 20;
  /// ... or when it has aged this long without filling (progress guarantee:
  /// a push waiting on this batch can never deadlock its receiver).
  int flush_interval_us = 200;
};

class MessageBus {
 public:
  using Mailbox = BlockingQueue<Message>;

  explicit MessageBus(int num_nodes);
  ~MessageBus();

  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  /// Creates (or returns) the mailbox for `address`. Thread-safe.
  std::shared_ptr<Mailbox> Register(const Address& address);

  /// Routes `address` to `mailbox`, which other addresses may share: one
  /// consumer then serves several endpoints from a single queue (a worker's
  /// syncer loop owns every port of its layers). CHECK-fails if `address`
  /// is already bound to another mailbox. Thread-safe.
  void Bind(const Address& address, std::shared_ptr<Mailbox> mailbox);

  /// Routes `message` to its destination mailbox. Returns NotFound if the
  /// destination was never registered. Applies the sender's rate limit, if
  /// any, based on the message's wire size; the limiter wait never holds the
  /// bus lock, so one node's throttled egress cannot stall another node's
  /// sends. With batching enabled, remote messages are queued on the
  /// sender's egress batcher instead of being delivered inline.
  Status Send(Message message);

  /// Attaches the frame carrier for destinations outside this process (call
  /// at most once, before traffic flows; mutually exclusive with
  /// EnableFaultInjection — cross-process chaos lives in the socket
  /// transport's lossy shim instead). Once attached, Send() serializes
  /// messages for non-local nodes into docs/WIRE_FORMAT.md frames and hands
  /// them to the transport; every remote data message is stamped from a
  /// per-stream sequencer so the receiving bus can deduplicate and restore
  /// FIFO order whatever the wire does (see DeliverWire).
  void AttachTransport(std::shared_ptr<Transport> transport);
  /// The attached backend; null means the historical in-process-only bus.
  Transport* transport() const { return transport_.get(); }

  /// Ingress from the transport: decodes one wire frame (message or batch)
  /// and delivers its logical messages to local mailboxes. Sequenced
  /// messages pass through the wire reorder buffer (dedup + in-order
  /// release); `send_ns` is restamped here, on the receiver's clock, so
  /// delivery-latency stats never compare steady clocks of two processes.
  /// Returns InvalidArgument/OutOfRange on malformed bytes, and OutOfRange
  /// (counted in WireCounters().overflows) for a message that would park
  /// beyond its stream's reorder holdback. Thread-safe.
  Status DeliverWire(const uint8_t* data, int64_t size);

  /// Dedup/reorder counters of the wire ingress path (all zero until a
  /// transport is attached and weather happens).
  FaultCountersSnapshot WireCounters() const;

  /// Turns on per-destination egress batching (idempotent is not supported:
  /// call at most once, before traffic flows). Spawns one flusher thread per
  /// node.
  void EnableBatching(const EgressBatchOptions& options = {});
  bool batching_enabled() const { return batching_.load(std::memory_order_acquire); }

  /// Blocks until every pending batch has been delivered (tests and
  /// iteration barriers; no-op without batching).
  void FlushEgress();

  /// Turns on the seeded fault-injection fabric (call at most once, before
  /// traffic flows). Spawns the delivery-pump thread that serves delayed,
  /// duplicated, retransmitted, and partition-held messages.
  void EnableFaultInjection(const FaultPlan& plan);
  bool faults_enabled() const { return injector_ != nullptr; }
  /// The injector (partition control, counters); null when disabled.
  FaultInjector* fault_injector() { return injector_.get(); }

  /// Blocks until no delayed/retransmit deliveries are pending. Messages
  /// parked behind an active partition are excluded (they flow on heal).
  /// No-op without fault injection.
  void FlushFaults();

  /// Cuts both directions between `a` and `b` (requires fault injection).
  void Partition(int a, int b);
  /// Restores all cut links and immediately replays parked traffic.
  void HealPartitions();
  /// Test hook: blocks until at least `n` messages (cumulative) have been
  /// parked behind an active partition — a condition wait on the pump, so a
  /// heal can be scheduled after the cut provably touched live traffic
  /// instead of after a wall-clock guess. False on timeout or when fault
  /// injection is off.
  bool AwaitPartitionHolds(int64_t n, int timeout_ms);

  /// Simulates the death of a node's endpoints: closes and unregisters every
  /// mailbox at `node` with port in [min_port, max_port) (a mailbox bound to
  /// several addresses closes with any of them), so blocked
  /// receivers wake (Pop returns nullopt) and a restarted process can
  /// Register fresh mailboxes at the same addresses. In-flight messages to
  /// the closed endpoints are dropped and counted
  /// (FaultCounters::dropped_replies). Callers bound the range so endpoints
  /// owned by *other* processes colocated on the node (the coordinator's
  /// monitor mailbox at kMonitorPort) survive a worker-process death.
  void CloseEndpoints(int node, int min_port, int max_port = INT_MAX);

  /// Attaches a wall-clock egress limit (bytes/s) to `node`; 0 removes it.
  void SetEgressLimit(int node, double bytes_per_sec);
  /// The node's current limiter (tests synchronize on its waiter count);
  /// null when no limit is set.
  std::shared_ptr<RateLimiter> egress_limiter(int node) const;

  /// Turns on per-(src,dst) link accounting: bytes, wire messages, and
  /// delivery-latency histograms per directed node pair. Remote messages are
  /// stamped at Send() and the latency recorded at the final mailbox push,
  /// so batching queue time and injected fault delays show up in the
  /// distribution. Idempotent; cheap enough to leave on (a few relaxed adds
  /// per wire message).
  void EnableLinkStats();
  bool link_stats_enabled() const {
    return link_stats_enabled_.load(std::memory_order_acquire);
  }
  /// Snapshot of every link that carried traffic since EnableLinkStats
  /// (lifetime-cumulative).
  ObservedLinkStats SnapshotLinkStats() const;

  /// Cumulative egress bytes per node (approximate wire sizes, framing
  /// included; batch frames counted once).
  std::vector<int64_t> TxBytes() const;
  int64_t TxBytes(int node) const;
  /// Cumulative wire messages per node: a delivered batch counts as one.
  std::vector<int64_t> TxMessages() const;
  int64_t TxMessages(int node) const;
  /// Cumulative logical (sub-)messages per node, batched or not.
  std::vector<int64_t> TxEntries() const;
  int64_t TxEntries(int node) const;
  void ResetTraffic();

  /// Closes every mailbox (wakes all blocked receivers).
  void CloseAll();

  int num_nodes() const { return static_cast<int>(tx_bytes_.size()); }

 private:
  /// One batch under assembly or awaiting delivery: same destination node,
  /// same iteration, entries in send order.
  struct Batch {
    int dst_node = 0;
    int64_t iter = -1;
    int64_t payload_bytes = 0;
    std::chrono::steady_clock::time_point opened;
    std::vector<std::pair<std::shared_ptr<Mailbox>, Message>> entries;
  };

  /// Per-node egress queue + flusher thread (only with batching enabled).
  struct NodeEgress {
    std::mutex mutex;
    std::condition_variable cv;       // wakes the flusher
    std::condition_variable idle_cv;  // signals FlushEgress waiters
    std::vector<Batch> open;          // at most one per destination node
    std::deque<Batch> ready;
    int delivering = 0;
    bool flush_requested = false;
    bool stop = false;
    std::thread flusher;
  };

  /// One message waiting on the fault pump: a delayed or duplicated
  /// delivery, a scheduled retransmission, or partition-parked traffic.
  struct TimedDelivery {
    std::chrono::steady_clock::time_point due;
    uint64_t order = 0;  // FIFO tie-break for equal due times
    std::shared_ptr<Mailbox> mailbox;
    Message message;
    int attempt = 0;
    /// True: just commit at `due` (the fault dice were already rolled);
    /// false: this is a fresh transmission attempt (retransmit) that rolls
    /// its own dice.
    bool commit_only = false;
  };
  struct TimedDeliveryLater {
    bool operator()(const TimedDelivery& a, const TimedDelivery& b) const {
      return a.due != b.due ? a.due > b.due : a.order > b.order;
    }
  };

  /// One directed link's accumulators (allocated n*n by EnableLinkStats).
  struct LinkCell {
    LinkCell() : latency_ns(LatencyBucketsNs()) {}
    std::atomic<int64_t> bytes{0};
    std::atomic<int64_t> messages{0};
    Histogram latency_ns;
  };

  /// Accounts `bytes` of wire traffic on src -> dst (no-op when disabled).
  void RecordLinkTx(int src, int dst, int64_t bytes);
  /// Records bus-accept-to-push latency for a stamped remote message.
  void RecordLinkDelivery(const Message& message);

  /// Copies the routing state for `message` under the bus lock.
  Status Route(const Message& message, std::shared_ptr<Mailbox>* mailbox,
               std::shared_ptr<RateLimiter>* limiter) const;
  /// True when `node`'s mailboxes are hosted by another process.
  bool IsWireRemote(int node) const {
    return transport_ != nullptr && !transport_->IsLocal(node);
  }
  /// Serializes one unbatched message and ships it via the transport
  /// (accounting + rate limit identical to SendDirect's remote path).
  Status SendViaTransport(Message message, std::shared_ptr<RateLimiter> limiter);
  /// Inline delivery (no batching, or local traffic).
  Status SendDirect(Message message, std::shared_ptr<Mailbox> mailbox,
                    std::shared_ptr<RateLimiter> limiter);
  /// Delivers one cut batch: one limiter acquire and one wire frame, then
  /// the entries in order. Runs on the owning node's flusher thread.
  void DeliverBatch(int src, Batch batch);
  void FlusherLoop(int node);

  /// Remote delivery behind the injector: parks partitioned traffic, rolls
  /// the fault dice for this transmission attempt, and either schedules the
  /// message on the pump or commits it now.
  void InjectOrCommit(std::shared_ptr<Mailbox> mailbox, Message message, int attempt);
  /// Final delivery behind the injector: Release, which must succeed.
  void Commit(const std::shared_ptr<Mailbox>& mailbox, Message message);
  /// Builds the sequencer and reorder buffer for whichever of the fault
  /// fabric and the transport is enabled, counting into `counters`.
  void EnableSequencing(FaultCounters* counters);
  /// Runs one arrival through the reorder buffer and pushes the run it
  /// releases to the destination's current mailbox, or to `fallback` when
  /// the address is unregistered (none: the run is counted as dropped).
  /// Returns Admit's status.
  Status Release(Message message, const std::shared_ptr<Mailbox>& fallback);
  void SchedulePumped(TimedDelivery delivery);
  void PumpLoop();

  mutable std::mutex mutex_;
  std::unordered_map<Address, std::shared_ptr<Mailbox>, AddressHash> mailboxes_;
  std::vector<std::shared_ptr<RateLimiter>> limiters_;  // per node, may be null
  std::vector<std::atomic<int64_t>> tx_bytes_;
  std::vector<std::atomic<int64_t>> tx_messages_;
  std::vector<std::atomic<int64_t>> tx_entries_;

  std::atomic<bool> batching_{false};
  EgressBatchOptions batch_options_;
  std::vector<std::unique_ptr<NodeEgress>> egress_;

  // Link accounting (set once by EnableLinkStats, then immutable pointers).
  std::atomic<bool> link_stats_enabled_{false};
  std::vector<std::unique_ptr<LinkCell>> link_cells_;  // n*n, row-major by src
  std::chrono::steady_clock::time_point link_stats_since_;

  // Frame carrier for cross-process destinations (set once by
  // AttachTransport, then immutable; wire_counters_ backs WireCounters()).
  std::shared_ptr<Transport> transport_;
  std::unique_ptr<FaultCounters> wire_counters_;

  // Fault fabric (set once by EnableFaultInjection, then immutable pointers).
  std::unique_ptr<FaultInjector> injector_;

  // Sequencing (set once by EnableSequencing, then immutable pointers): the
  // sequencer stamps every remote data message at send, and the reorder
  // buffer restores exactly-once FIFO per stream at delivery, whatever the
  // fault fabric or a real socket (and the lossy shim especially) does to
  // the individual transmissions. Counts go to the enabled mode's counters.
  std::unique_ptr<StreamSequencer> sequencer_;
  std::unique_ptr<ReorderBuffer> reorder_;
  FaultCounters* sequencing_counters_ = nullptr;
  std::mutex pump_mutex_;
  std::condition_variable pump_cv_;   // wakes the pump
  std::condition_variable pump_idle_cv_;  // signals FlushFaults waiters
  std::priority_queue<TimedDelivery, std::vector<TimedDelivery>, TimedDeliveryLater>
      pump_queue_;
  std::vector<TimedDelivery> partition_held_;
  uint64_t pump_order_ = 0;
  int pump_busy_ = 0;
  bool pump_stop_ = false;
  std::thread pump_thread_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_BUS_H_

/// \file
/// In-process message bus with per-endpoint mailboxes, one egress queue per
/// node, optional egress rate limiting and optional per-destination egress
/// batching.
///
/// This stands in for the paper's Ethernet + ZMQ layer: every endpoint
/// (server service loop, worker syncer mailbox) registers a blocking queue;
/// Send() routes by address and returns. Remote traffic then leaves through
/// its source node's egress: one FIFO queue drained by one carrier thread,
/// like a NIC that drains on its own while the syncers and KV shards keep
/// working. A token-bucket rate limit can be attached per node to emulate a
/// bounded-egress NIC in wall-clock time (the e2e benchmark harness sets
/// one; the quantitative bandwidth experiments use the virtual-time fabric
/// in src/sim instead). The carrier alone waits on it, never a sender.
/// Traffic is accounted per node for the load-balance experiments.
///
/// Batching (EnableBatching) is only how the carrier cuts the queue: outgoing
/// messages from one node to the same destination node and iteration
/// coalesce into one framed wire message, so a many-layer model's per-layer
/// pushes to a shard endpoint cost one frame instead of one per layer. A
/// batch is cut when it reaches the configured message/byte thresholds, when
/// the iteration changes, on shutdown messages, or when the flush interval
/// elapses. Without batching every message is its own frame. Either way a
/// blocked or throttled destination can only ever stall its own node's
/// egress, never another node's (see docs/WIRE_FORMAT.md).
///
/// Fault injection (EnableFaultInjection): a seeded FaultInjector sits on
/// the remote egress path and drops (with link-layer retransmit),
/// duplicates, delays, or partitions what the carrier ships: each logical
/// message in process, each encoded frame bound for an attached transport.
/// Every remote data message is stamped with a per-stream sequence number
/// and passes through a receiver-side ReorderBuffer that deduplicates and
/// restores per-stream FIFO order before the consumer sees it. Traffic
/// counters keep reporting the fault-free logical traffic; the injected
/// weather is accounted separately in FaultCounts() (see
/// docs/FAULT_TOLERANCE.md).
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

  /// Routes `message` and queues it on its source node's egress; returns
  /// without waiting for the wire. Returns NotFound if the destination was
  /// never registered. Traffic between two endpoints of one node never
  /// touches the NIC: it is delivered inline (Unavailable when that mailbox
  /// has closed). A remote message whose mailbox has closed by the time the
  /// carrier delivers it is lost and counted in FaultCounts().dropped_replies;
  /// a frame the transport could not write is logged.
  Status Send(Message message);

  /// Attaches the frame writer for destinations outside this process (call
  /// at most once, before traffic flows; before or after
  /// EnableFaultInjection). Once attached, the carriers serialize messages
  /// for non-local nodes into docs/WIRE_FORMAT.md frames and write them
  /// through the transport, through the fault fabric when it is on; every
  /// remote data message is stamped from a per-stream sequencer so the
  /// receiving bus can deduplicate and restore FIFO order whatever the wire
  /// does (see DeliverWire).
  void AttachTransport(std::shared_ptr<Transport> transport);
  /// The attached backend; null means the historical in-process-only bus.
  Transport* transport() const { return transport_.get(); }

  /// Ingress from the transport: decodes one wire frame (message or batch)
  /// and delivers its logical messages to local mailboxes. Sequenced
  /// messages pass through the wire reorder buffer (dedup + in-order
  /// release); `send_ns` is restamped here, on the receiver's clock, so
  /// delivery-latency stats never compare steady clocks of two processes.
  /// Returns InvalidArgument/OutOfRange on malformed bytes, and OutOfRange
  /// (counted in FaultCounts().overflows) for a message that would park
  /// beyond its stream's reorder holdback. Thread-safe.
  Status DeliverWire(const uint8_t* data, int64_t size);

  /// This bus's one set of fault counters: the weather its fabric injected
  /// on egress and what its reorder buffer repaired on ingress (all zero
  /// until weather happens).
  FaultCountersSnapshot FaultCounts() const { return fault_counters_.Snapshot(); }

  /// Turns on per-destination egress batching (idempotent is not supported:
  /// call at most once, before traffic flows).
  void EnableBatching(const EgressBatchOptions& options = {});
  bool batching_enabled() const { return batching_.load(std::memory_order_acquire); }

  /// Blocks until this process's egress is drained, in carrier order: every
  /// node's queue is cut and carried (delivered in process, written to the
  /// transport), then the fault pump has nothing due (FlushFaults). Tests,
  /// iteration barriers and a cluster member's workers-done signal rely on
  /// it.
  void FlushEgress();

  /// Turns on the seeded fault-injection fabric (call at most once, before
  /// traffic flows; before or after AttachTransport). Spawns the pump thread
  /// that serves delayed, duplicated, retransmitted, and partition-held
  /// transmissions, in-process messages and wire frames alike.
  void EnableFaultInjection(const FaultPlan& plan);
  bool faults_enabled() const { return injector_ != nullptr; }

  /// Blocks until no delayed/retransmit transmissions are pending.
  /// Transmissions parked behind an active partition are excluded (they
  /// flow on heal). No-op without fault injection.
  void FlushFaults();

  /// Cuts both directions between `a` and `b` (requires fault injection).
  void Partition(int a, int b);
  /// Restores all cut links and immediately replays parked traffic.
  void HealPartitions();
  /// Test hook: blocks until at least `n` transmissions (cumulative) have
  /// been parked behind an active partition — a condition wait on the pump, so a
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
  /// (FaultCounts().dropped_replies). Callers bound the range so endpoints
  /// owned by *other* processes colocated on the node (the coordinator's
  /// monitor mailbox at kMonitorPort) survive a worker-process death.
  void CloseEndpoints(int node, int min_port, int max_port = INT_MAX);

  /// Attaches a wall-clock egress limit (bytes/s) to `node`; 0 removes it.
  /// The node's carrier picks it up on its next pass over the queue.
  void SetEgressLimit(int node, double bytes_per_sec);
  /// The node's egress limit in bytes/s; 0 when none is set.
  double egress_limit(int node) const;

  /// Test hook: blocks until at most `depth` messages wait in `node`'s
  /// egress queue — the carrier has taken the rest, so it is carrying them
  /// or waiting on the node's limit to let them leave. A condition wait on
  /// the carrier, shaped like AwaitPartitionHolds. False on timeout.
  bool AwaitEgressDepth(int node, int64_t depth, int timeout_ms);

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

  /// One node's egress: the FIFO of cut batches (single messages when
  /// batching is off) that one carrier thread drains at the node's limit,
  /// plus the open batches the cut rule is still filling. The carrier
  /// starts on the node's first remote send.
  struct NodeEgress {
    std::mutex mutex;
    std::condition_variable cv;       // wakes the carrier
    std::condition_variable idle_cv;  // the carrier took or carried a run
    std::vector<Batch> open;          // at most one per destination node
    std::deque<Batch> ready;
    int64_t depth = 0;  // messages in `open` and `ready`
    bool carrying = false;
    bool flush_requested = false;
    bool stop = false;
    std::thread carrier;
  };

  /// What the carrier ships once: one logical message bound for a local
  /// mailbox, or one encoded frame bound for the transport (`frame`
  /// non-empty; `message` is then the frame's first entry without its
  /// chunks, the routing header that keys the fault dice and the partition
  /// check). On the fault pump it waits until `due`.
  struct Transmission {
    std::shared_ptr<Mailbox> mailbox;
    Message message;
    std::vector<uint8_t> frame;
    int attempt = 0;
    std::chrono::steady_clock::time_point due;
    uint64_t order = 0;  // FIFO tie-break for equal due times
    /// True: just commit at `due` (the fault dice were already rolled);
    /// false: this is a fresh transmission attempt (retransmit) that rolls
    /// its own dice.
    bool commit_only = false;
  };
  struct TransmissionLater {
    bool operator()(const Transmission& a, const Transmission& b) const {
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

  /// Looks up the mailbox bound to `to` under the bus lock.
  Status Route(const Address& to, std::shared_ptr<Mailbox>* mailbox) const;
  /// True when `node`'s mailboxes are hosted by another process.
  bool IsWireRemote(int node) const {
    return transport_ != nullptr && !transport_->IsLocal(node);
  }
  /// The one egress charge for a wire message or batch frame leaving `src`
  /// toward `dst`: the tx counters and the link accounting.
  void Charge(int src, int dst, int64_t bytes, int64_t entries);
  /// Takes cut runs off `node`'s queue and carries them until the bus stops.
  void CarrierLoop(int node);
  /// Carries one run of cut batches in queue order, each once `limiter`
  /// (null: unlimited) lets its frame leave: one charge per batch and, out
  /// of process, one wire frame; in process, the entries in order. Frames
  /// bound for one destination that may leave together are written with one
  /// SendFrames call.
  void CarryRun(int node, std::deque<Batch> run, RateLimiter* limiter);

  /// Ships one transmission: through the fault fabric when it is on and
  /// `exempt` is false (kShutdown traffic is exempt; the link layer
  /// retransmits, so delivery is eventual), otherwise committed now.
  void Carry(Transmission transmission, bool exempt);
  /// The fault fabric: parks partitioned traffic, rolls the dice for this
  /// attempt, and either schedules the transmission on the pump or commits
  /// it now.
  void InjectOrCommit(Transmission transmission);
  /// Final hand-off: a frame goes to the transport; a sequenced message
  /// through Release, which must succeed (the fabric retransmits every
  /// drop, so a gap wider than the holdback is a bug in the bus); an
  /// unsequenced one straight to its mailbox, or counted as a dropped reply
  /// when that has closed. Only a transport write can fail.
  Status Commit(Transmission transmission);
  /// Builds the sequencer and reorder buffer unless the fault fabric or the
  /// transport already did.
  void EnableSequencing();
  /// Runs one arrival through the reorder buffer and pushes the run it
  /// releases to the destination's current mailbox, or to `fallback` when
  /// the address is unregistered (none: the run is counted as dropped).
  /// Returns Admit's status.
  Status Release(Message message, const std::shared_ptr<Mailbox>& fallback);
  void SchedulePumped(Transmission transmission);
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
  // AttachTransport, then immutable).
  std::shared_ptr<Transport> transport_;

  // Fault fabric (set once by EnableFaultInjection, then immutable pointers).
  std::unique_ptr<FaultInjector> injector_;
  // What the fabric injected and the reorder buffer repaired.
  FaultCounters fault_counters_;

  // Sequencing (set once by EnableSequencing, then immutable pointers): the
  // sequencer stamps every remote data message at send, and the reorder
  // buffer restores exactly-once FIFO per stream at delivery, whatever the
  // fault fabric or a real socket does to the individual transmissions.
  std::unique_ptr<StreamSequencer> sequencer_;
  std::unique_ptr<ReorderBuffer> reorder_;
  std::mutex pump_mutex_;
  std::condition_variable pump_cv_;   // wakes the pump
  std::condition_variable pump_idle_cv_;  // signals FlushFaults waiters
  std::priority_queue<Transmission, std::vector<Transmission>, TransmissionLater>
      pump_queue_;
  std::vector<Transmission> partition_held_;
  uint64_t pump_order_ = 0;
  int pump_busy_ = 0;
  bool pump_stop_ = false;
  std::thread pump_thread_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_BUS_H_

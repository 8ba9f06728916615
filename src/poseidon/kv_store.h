/// \file
/// The sharded KV-store parameter server (paper §4.1, extended with
/// key-range sharding and bounded staleness).
///
/// A server *node* (KvServer) hosts `shards_per_server` independent KvShard
/// endpoints. Each shard owns a disjoint subset of the KV pairs (the
/// coordinator's partition plan stripes every large layer across all shard
/// endpoints in the cluster), registers its own MessageBus mailbox at
/// {server, kServerPort + shard}, and applies updates on its own thread —
/// so a hot layer's serve path parallelizes across apply threads instead of
/// serializing behind one service loop.
///
/// Every layer a shard serves runs one path: push -> apply in clock order
/// -> release replies. A 1-bit layer is a PS layer with one whole-layer
/// pair on its owner endpoint and the 1-bit push codec; the pair placement
/// (Coordinator::PairsOnShard) and the push/reply codecs (KvWireCodecs) are
/// the rules the worker-side syncer shares. The path is the thread-free
/// step KvShard::Handle; the service thread only pops, steps and sends.
///
/// Consistency is Stale Synchronous Parallel (SSP) with bound `s =
/// ClusterInfo::staleness`:
///   * every gradient push carries its worker's clock (iteration);
///   * a shard buffers pushes per clock and applies clock `c`'s aggregate
///     only when all workers' clock-`c` pushes arrived (folded per worker
///     slot and reduced in worker order — bit-deterministic regardless of
///     arrival order), advancing `applied_clock` strictly in clock order;
///   * the reply to worker `w`'s clock-`c` push is released once
///     `applied_clock >= c - s`, so no worker ever reads parameters missing
///     an update more than `s` clocks old.
/// With `s = 0` a reply is released exactly when clock `c` is applied:
/// the paper's BSP, reproduced bitwise. With `s > 0` a fast worker's push
/// is answered immediately from the freshest applied values and the worker
/// runs ahead — at most `s + 1` clocks ahead of the slowest worker.
///
/// Crash recovery (docs/FAULT_TOLERANCE.md): a restarted worker replays its
/// in-flight clock by re-pushing every layer. The shard reconciles replays
/// so each (layer, clock) aggregate is applied exactly once:
///   * a push whose clock is already applied buffers nothing — the shard
///     just releases a reply from the current parameters;
///   * a push whose per-worker slot for that clock is already filled keeps
///     the first contribution (recomputation is deterministic, so the bits
///     match anyway) and queues at most one pending read per (worker, clock).
/// Replies the shard sends into a crash window (endpoint closed) are
/// dropped and counted; the replayed push earns the replacement reply.
#ifndef POSEIDON_SRC_POSEIDON_KV_STORE_H_
#define POSEIDON_SRC_POSEIDON_KV_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/nn/network.h"
#include "src/planner/comm_plan.h"
#include "src/stats/metrics.h"
#include "src/nn/sgd.h"
#include "src/poseidon/coordinator.h"
#include "src/transport/bus.h"
#include "src/transport/codec.h"
#include "src/transport/payload.h"

namespace poseidon {

/// One key-range shard: the master copy (and optimizer state) of every KV
/// pair the coordinator places on (`server_id`, `shard_id`), the thread-free
/// step that serves it (Handle), and the thread shell around that step.
class KvShard {
 public:
  /// `init_net` supplies initial parameter values (every worker starts from
  /// the same replica). `first_iter` is the clock of the first training
  /// iteration this run will execute (non-zero after a checkpoint restore);
  /// the SSP clock starts at `first_iter - 1`. `plan` assigns each layer
  /// its scheme and push codec (plan.layers is parallel to the coordinator's
  /// layers). A null `bus` builds a shard with no mailbox, driven only
  /// through Handle.
  KvShard(int server_id, int shard_id, int64_t first_iter, const Coordinator& coordinator,
          const CommPlan& plan, Network& init_net, MessageBus* bus, const SgdConfig& sgd);
  ~KvShard();

  KvShard(const KvShard&) = delete;
  KvShard& operator=(const KvShard&) = delete;

  /// Spawns the shard's service thread: pop, Handle, send the replies.
  void Start();
  /// Joins after a kShutdown message has been delivered.
  void Join();

  /// The shard's step, with no thread or mailbox: takes one gradient push
  /// (kGradPush or kOneBitPush), buffers it, applies every clock it
  /// completes in clock order, and returns the parameter replies it
  /// releases. A push that fails validation is counted in rejected_pushes
  /// and earns no reply. Not thread-safe: once Start ran, only the service
  /// thread calls it.
  std::vector<Message> Handle(const Message& message);

  int server() const { return server_; }
  int shard() const { return shard_; }

  /// Number of gradient-push messages processed (for tests).
  int64_t pushes_processed() const { return pushes_processed_; }
  /// Aggregate applications performed (one per (owned layer, clock)). The
  /// exactly-once invariant: equals owned layers x clocks run, crash or not.
  /// (Read after Join.)
  int64_t applies() const { return applies_; }
  /// Pushes answered without contributing to an aggregate: replays of an
  /// already-applied clock, or duplicates of an already-buffered slot.
  int64_t reconciled_pushes() const { return reconciled_pushes_; }
  /// Pushes dropped whole for a codec mismatch or a malformed frame (a bad
  /// frame must never crash the server or poison an aggregate).
  int64_t rejected_pushes() const { return rejected_pushes_; }
  /// Replies that could not be delivered (receiver endpoint closed — the
  /// crash window between worker death and restart).
  int64_t replies_dropped() const { return replies_dropped_; }
  /// Layers with pairs hosted on this shard.
  int owned_layers() const { return static_cast<int>(layers_.size()); }
  /// Max over pushes of (push clock - applied clock at arrival): how far the
  /// fastest worker ran ahead of the global aggregate. SSP bounds this by
  /// staleness + 1. (Read after Join.)
  int64_t max_push_lead() const { return max_push_lead_; }
  /// Max over released replies of (read clock - applied clock at release):
  /// the staleness a worker actually observed. SSP bounds this by
  /// `staleness`; under BSP (s = 0) it is always 0. (Read after Join.)
  int64_t max_reply_gap() const { return max_reply_gap_; }
  /// Total wall time replies spent parked behind the SSP gate (a read whose
  /// clock outran applied_clock + staleness waits here until the aggregate
  /// catches up). Summed over all gated reads; also recorded per-stall in
  /// the "kv.ssp_stall_ns" histogram and as "kv.ssp_stall" trace events.
  int64_t ssp_stall_ns() const { return ssp_stall_ns_.load(std::memory_order_relaxed); }

 private:
  struct PairState {
    KvPairInfo info;
    /// Float offset of this pair's master copy within the layer's parameter
    /// slab (pairs are concatenated in pair order).
    int64_t slab_offset = 0;
  };
  /// One parked parameter read awaiting the SSP gate. `enqueue_ns` (steady
  /// clock) and `deferred` drive the stall accounting: a read answered in
  /// the pass that queued it was never gated and records no stall.
  struct WaitingRead {
    int worker = -1;
    int64_t clock = -1;
    int64_t enqueue_ns = 0;
    bool deferred = false;
  };
  /// SSP bookkeeping for the pairs of one layer on this shard. The master
  /// copies live in one refcounted slab, so a BSP raw parameter reply can
  /// alias it zero-copy (the clock protocol guarantees every released
  /// reader finishes before the next apply can start; with staleness > 0
  /// later applies may overlap a reader, so replies snapshot instead).
  struct LayerState {
    std::vector<PairState> pairs;
    KvCodecs codecs;
    Payload params;  ///< concatenated pair values, pair order
    /// clock -> per-worker pending push frames, one view per pair (in pair
    /// order), referencing the sender's slab. Buffered zero-copy until the
    /// clock's aggregate is applied.
    std::map<int64_t, std::vector<std::vector<PayloadView>>> pending;
    std::map<int64_t, int> push_count;
    int64_t applied_clock = -1;
    std::vector<WaitingRead> waiting_reads;
  };

  void ServiceLoop();
  /// Whether `message` carries the layer's push codec and one frame per
  /// pair, each at the pair's offset and expanding to the pair's length.
  static bool WellFormed(const LayerState& state, const Message& message);
  void Apply(int layer, LayerState* state, int64_t clock);
  /// Appends a reply for every waiting read the SSP gate now lets through.
  void Release(int layer, LayerState* state, std::vector<Message>* replies);
  /// Queues (worker, clock) for release unless already pending (replayed
  /// pushes must never earn a second reply).
  static void AddWaitingRead(std::vector<WaitingRead>* reads, int worker, int64_t clock);
  /// Accounts a gated read's stall on release (metric + histogram + trace).
  void RecordSspStall(const WaitingRead& read);

  const int server_;
  const int shard_;
  const int staleness_;
  const Coordinator& coordinator_;
  MessageBus* bus_;
  SgdOptimizer optimizer_;
  std::shared_ptr<MessageBus::Mailbox> mailbox_;
  std::thread thread_;

  std::unordered_map<int, LayerState> layers_;
  int64_t pushes_processed_ = 0;
  int64_t applies_ = 0;
  int64_t reconciled_pushes_ = 0;
  int64_t rejected_pushes_ = 0;
  int64_t replies_dropped_ = 0;
  int64_t max_push_lead_ = 0;
  int64_t max_reply_gap_ = 0;
  /// Atomic: read by the trainer's stall breakdown while the shard serves.
  std::atomic<int64_t> ssp_stall_ns_{0};
  Histogram* ssp_stall_hist_ = nullptr;  // "kv.ssp_stall_ns" in the registry
};

/// One server node: the set of KvShard endpoints colocated on `server_id`.
/// Kept as the trainer-facing unit so node-level concerns (start/stop,
/// traffic accounting, colocated placement) stay in one place.
class KvServer {
 public:
  KvServer(int server_id, int64_t first_iter, const Coordinator& coordinator,
           const CommPlan& plan, Network& init_net, MessageBus* bus, const SgdConfig& sgd);

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  /// Spawns every shard's service thread.
  void Start();
  /// Stops every shard: sends each its kShutdown message, which it handles
  /// after every message queued before it, then joins them all. Every
  /// runtime's teardown goes through here.
  void Stop();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const KvShard& shard(int i) const { return *shards_[static_cast<size_t>(i)]; }

  /// Gradient-push messages processed across all shards (for tests).
  int64_t pushes_processed() const;
  /// Aggregate applies / reconciled replays / dropped replies across shards
  /// (the exactly-once accounting; see KvShard).
  int64_t applies() const;
  int64_t reconciled_pushes() const;
  int64_t rejected_pushes() const;
  int64_t replies_dropped() const;
  /// Layers with state hosted on this server, summed over shards.
  int owned_layers() const;
  /// Max push lead / observed reply staleness across shards (see KvShard).
  int64_t max_push_lead() const;
  int64_t max_reply_gap() const;
  /// Total SSP gate time across shards (see KvShard::ssp_stall_ns).
  int64_t SspStallNs() const;

 private:
  const int id_;
  const Coordinator& coordinator_;
  MessageBus* bus_;
  std::vector<std::unique_ptr<KvShard>> shards_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_KV_STORE_H_

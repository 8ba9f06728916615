/// \file
/// PoseidonTrainer: end-to-end distributed data-parallel training inside one
/// process — W worker threads each driving an identical network replica
/// through paper Algorithm 2, S KV-store shard threads, and a coordinator —
/// wired together by the in-process message bus.
///
/// This is the executable counterpart of the paper's §4: it runs real
/// gradients through the real protocols (dense PS, SFB, HybComm, 1-bit), so
/// statistical experiments (Fig 9b, Fig 11) and BSP-consistency tests measure
/// the true algorithms rather than a model of them.
#ifndef POSEIDON_SRC_POSEIDON_TRAINER_H_
#define POSEIDON_SRC_POSEIDON_TRAINER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/nn/builders.h"
#include "src/nn/dataset.h"
#include "src/nn/network.h"
#include "src/nn/sgd.h"
#include "src/poseidon/checkpoint.h"
#include "src/poseidon/client_library.h"
#include "src/poseidon/coordinator.h"
#include "src/poseidon/failure_detector.h"
#include "src/poseidon/kv_store.h"
#include "src/planner/comm_plan.h"
#include "src/planner/comm_planner.h"
#include "src/transport/bus.h"

namespace poseidon {

/// Builds one network replica. Called once per worker plus once for server
/// initialization; must be deterministic so all replicas start identical.
using NetworkFactory = std::function<std::unique_ptr<Network>()>;

/// A test-injected worker crash: during iteration `iter`, worker `worker`
/// walks `layers_before_crash` backward steps (scheduling their syncs), then
/// dies without completing the iteration — no WaitAll, no cleanup, beats
/// cease. The failure detector notices and the trainer's recovery manager
/// restarts the worker from its latest checkpoint (docs/FAULT_TOLERANCE.md).
struct CrashPlan {
  int worker = -1;
  int64_t iter = -1;
  /// Backward steps taken before dying: 0 = before any push of the
  /// iteration; num_layers = after every push (crash in the receive phase).
  int layers_before_crash = 0;

  bool active() const { return worker >= 0 && iter >= 0; }
};

/// How the trainer picks its communication plan. Every mode ends in one
/// CommPlan, and the runtime reads nothing else.
enum class TrainerPlanMode {
  /// One paper-mode PlanComm over fc_policy + ps_compression +
  /// shards_per_server: per-layer scheme first, then the shard count, then
  /// the codec, bitwise identical to the pre-planner trainer.
  kPaper,
  /// Joint CommPlanner search over scheme x shards x codec x batching; the
  /// resulting plan supersedes fc_policy / ps_compression / shards_per_server
  /// / batch_egress.
  kAuto,
  /// Adopt a caller-provided CommPlan verbatim (e.g. --plan=fixed:<path>):
  /// schemes, codecs, shard count, staleness, batching and top-k density all
  /// come from the plan.
  kFixed,
};

struct TrainerOptions {
  int num_workers = 2;
  int num_servers = 2;        // colocated server nodes; may differ from workers
  /// First bus node hosting a server (ClusterInfo::server_node_base): 0
  /// colocates server s with worker s; a multi-process launch sets it to
  /// num_workers so every role gets its own node, hence its own process.
  /// Trajectory-invariant — node ids never enter the math.
  int server_node_base = 0;
  /// Key-range KV shards hosted per server node, each with its own mailbox
  /// and apply thread. 0 = auto: let the multi-shard cost rows pick (up to
  /// kMaxAutoShards) from the model's largest PS layer. Ignored under kFixed.
  int shards_per_server = 1;
  /// SSP staleness bound: workers may run up to this many iterations ahead
  /// of the slowest worker's applied updates. 0 = the paper's BSP (bitwise
  /// identical to the pre-SSP runtime). With staleness > 0 worker replicas
  /// legitimately diverge while training (each reads a different snapshot),
  /// so per-iteration replica-identity invariants only hold at 0. Under
  /// kFixed the plan's bound is in force instead.
  int staleness = 0;
  int batch_per_worker = 16;
  SgdConfig sgd;
  /// Paper-mode scheme policy. Under the paper's policies conv layers always
  /// use the parameter server and only FC layers vary; the collective
  /// policies apply to every parameter layer. (kAuto here is the paper-mode
  /// fold over the raw PS/SFB/ring/tree rows; plan_mode = kAuto is the joint
  /// search.)
  PlanPolicy fc_policy = PlanPolicy::kHybrid;
  /// Paper-mode wire compression for PS-path layers: raw fp32 by default;
  /// int8/top-k push with error feedback, binary16 replies; kAuto picks
  /// the cheapest byte row per layer. Quantized trajectories are
  /// deterministic (seeded per layer x clock) but not bitwise equal to kNone
  /// runs.
  PlanCodecPolicy ps_compression = PlanCodecPolicy::kNone;
  /// Fraction of each pair's elements the top-k codec keeps, in (0, 1].
  /// Under kFixed the plan's density is in force instead.
  double topk_density = 0.01;
  /// Layers below this many floats stay raw under any compression policy
  /// (tests and benches with tiny models lower it).
  int64_t compression_min_floats = kCompressionMinFloats;
  int64_t kv_pair_bytes = 2 * 1024 * 1024;
  /// Syncer loops per worker's client library. Every layer's sync is in
  /// flight at once whatever the count; it sets how many threads encode,
  /// decode and apply in parallel (codec parallelism), not the in-flight
  /// depth.
  int syncer_threads = 2;
  /// Paper mode's batching choice: when true, the plan (and so the bus)
  /// coalesces same-destination wire messages from different layer syncers
  /// into batched frames (MessageBus egress batching). Auto and fixed plans
  /// carry their own choice, and the bus follows the plan in force. Grouping
  /// is timing-dependent but content-deterministic: training trajectories
  /// are bitwise identical with or without it.
  bool batch_egress = false;
  /// Batching knobs, used when the plan in force batches egress.
  EgressBatchOptions batch_options;
  /// When non-empty, parameters and the iteration cursor are restored from
  /// this checkpoint before the KV shards are initialized.
  std::string restore_path;
  /// Seeded transport chaos (drop/duplicate/delay/partition); injected when
  /// any probability is non-zero or `enable_faults` is set. The bus's one
  /// fault fabric weathers in-process deliveries and, in a ClusterNode,
  /// socket frames alike. Sequencing + receiver-side dedup/reordering keep
  /// trajectories bitwise identical to fault-free runs under BSP
  /// (tests/chaos_property_test.cc).
  FaultPlan fault_plan;
  /// Forces the fault fabric on even with all probabilities zero (partition
  /// experiments drive faults through bus().Partition at runtime).
  bool enable_faults = false;
  /// Heartbeats + failure detector + automatic worker restart.
  FailureDetectorOptions failure_detection;
  /// Per-worker recovery checkpoints land in this directory (one file per
  /// worker), written after every `checkpoint_every` completed iterations.
  /// Bitwise-exact recovery of a crashed BSP worker needs `checkpoint_every
  /// = 1`: the replayed in-flight iteration then recomputes from exactly the
  /// parameters the dead incarnation held.
  std::string checkpoint_dir;
  int checkpoint_every = 0;  ///< 0 disables recovery checkpoints
  /// Test-injected crash (requires failure_detection.enabled and recovery
  /// checkpoints, or training will hang waiting for the dead worker).
  CrashPlan crash;
  /// Communication-plan source (see TrainerPlanMode).
  TrainerPlanMode plan_mode = TrainerPlanMode::kPaper;
  /// The plan to adopt when plan_mode = kFixed (layer names must match the
  /// model; shards/staleness/batching/top-k density come from the plan).
  std::shared_ptr<const CommPlan> fixed_plan;
  /// Labels the plan request. Cosmetic: the planner's choices depend only on
  /// the layer specs and the cluster shape.
  std::string model_name = "trainer";
};

/// Upper bound for shards_per_server = 0 (auto) selection.
inline constexpr int kMaxAutoShards = 8;

/// The plan `options` ask for on `net`'s layers: options.fixed_plan under
/// kFixed, otherwise one PlanComm call. PoseidonTrainer and ClusterNode both
/// run off this, so an in-process run and a multi-process cluster built from
/// the same options execute the same plan.
std::shared_ptr<const CommPlan> ResolveTrainerPlan(const TrainerOptions& options,
                                                   Network& net);

/// The cluster shape a runtime builds its Coordinator from: the plan's shard
/// count and staleness, everything else from `options`.
ClusterInfo ClusterInfoFor(const TrainerOptions& options, const CommPlan& plan);

/// The bus a runtime built from `options` runs `plan` on: `num_nodes` nodes,
/// egress batching exactly when plan.batch_egress is set (with
/// options.batch_options), and the fault fabric when options.fault_plan has
/// weather or options.enable_faults is set. PoseidonTrainer (construction and
/// every plan swap) and ClusterNode bring their bus up through this one
/// helper.
std::unique_ptr<MessageBus> MakeTrainerBus(const TrainerOptions& options, const CommPlan& plan,
                                           int num_nodes);

/// What one worker step observed.
struct WorkerStep {
  LossResult result;       ///< the forward pass's loss and batch accuracy
  int64_t compute_ns = 0;  ///< forward + backward wall time
  int64_t wait_ns = 0;     ///< wall time blocked in WaitAll
};

/// One worker iteration of paper Algorithm 2, the step PoseidonTrainer and
/// ClusterNode both run: worker `w`'s batch of `iter`, forward, then backward
/// layer by layer, scheduling each layer's sync as its gradient lands
/// (wait-free backpropagation), then the BSP barrier. Records the
/// "iteration", "forward", "backward" and "wait_all" spans. `crash_after` >=
/// 0 simulates the worker dying after that many backward steps: the step
/// returns with its syncs in flight and never reaches WaitAll (wait_ns 0).
WorkerStep RunWorkerStep(const SyntheticDataset& dataset, const TrainerOptions& options, int w,
                         int64_t iter, Network& net, ClientLibrary& client, const CommPlan& plan,
                         int crash_after = -1);

struct IterationStats {
  int64_t iter = 0;
  double mean_loss = 0.0;      // across workers
  double mean_accuracy = 0.0;  // train batch top-1
  /// Mean wall time per worker spent in forward + backward compute.
  double compute_ms = 0.0;
  /// Mean wall time per worker blocked in WaitAll (communication + any SSP
  /// gating at the shards). compute_ms + comm_wait_ms ~= iteration wall time.
  double comm_wait_ms = 0.0;
};

/// Cumulative where-did-the-time-go view across everything trained so far:
/// worker compute vs worker comm-wait (both summed over workers), and the
/// server-side SSP gate time (summed over shards; a subset of the comm wait
/// the gated workers observed). See docs/OBSERVABILITY.md.
struct StallBreakdown {
  double compute_s = 0.0;
  double comm_wait_s = 0.0;
  double ssp_stall_s = 0.0;

  double GpuBusyFrac() const {
    const double total = compute_s + comm_wait_s;
    return total > 0.0 ? compute_s / total : 0.0;
  }
};

class PoseidonTrainer {
 public:
  PoseidonTrainer(NetworkFactory factory, TrainerOptions options);
  ~PoseidonTrainer();

  PoseidonTrainer(const PoseidonTrainer&) = delete;
  PoseidonTrainer& operator=(const PoseidonTrainer&) = delete;

  /// Runs `iterations` BSP iterations over `dataset`; returns per-iteration
  /// training stats. May be called repeatedly (training continues).
  std::vector<IterationStats> Train(const SyntheticDataset& dataset, int iterations);

  /// Evaluates worker 0's replica (replicas are identical under BSP; under
  /// SSP staleness > 0 this is one of several legitimate snapshots).
  LossResult EvaluateTest(const SyntheticDataset& dataset);

  /// Persists the current parameters and iteration cursor (call between
  /// Train() invocations; replicas are quiescent, and identical under BSP).
  /// Under SSP (staleness > 0) this saves worker 0's snapshot, which may be
  /// missing up to `staleness` applied updates — a restored run resumes
  /// from that snapshot on every replica and KV master copy.
  Status SaveCheckpointTo(const std::string& path);

  int64_t next_iter() const { return next_iter_; }

  Network& worker_net(int w);
  const Coordinator& coordinator() const { return *coordinator_; }
  MessageBus& bus() { return *bus_; }
  /// The failure detector (null unless failure_detection.enabled).
  const FailureDetector* failure_detector() const { return detector_.get(); }
  /// Completed recovery episodes (a crashed worker restarted and replayed).
  int64_t recoveries() const { return recoveries_.load(); }
  /// Cumulative compute / comm-wait / SSP-stall seconds (see StallBreakdown).
  StallBreakdown stall_breakdown() const;
  /// The shard count actually in use (resolved when shards_per_server = 0).
  int shards_per_server() const;
  const KvServer& server(int s) const { return *servers_[static_cast<size_t>(s)]; }

  /// The communication plan in force (never null): per-layer schemes and
  /// codecs, shard count, staleness, batching and top-k density.
  std::shared_ptr<const CommPlan> plan() const { return plan_; }
  /// Swaps the communication stack onto `new_plan` at an iteration boundary
  /// (call between Train() windows only; CHECKs staleness = 0 and no crash
  /// machinery). Parameters carry over bitwise — a swap changes how gradients
  /// move, never their values — so two runs adopting the same plans at the
  /// same boundaries train bitwise identically. No-op when the plan's hash
  /// already matches. The bus is rebuilt, keeping its per-node egress limits
  /// and link-stats switch.
  void AdoptPlan(std::shared_ptr<const CommPlan> new_plan);

 private:
  void Shutdown();
  /// One worker's training loop from `from_iter` through the end of the
  /// Train() window (also the recovery replay path): RunWorkerStep per
  /// iteration, with the crash hook and recovery checkpoints around it.
  void RunWorkerLoop(int w, int64_t from_iter);
  /// Detector callback; spawns the recovery thread for a crashed worker.
  void OnWorkerSuspected(int w);
  /// Restart protocol: fence the dead incarnation, rebuild the client from
  /// the latest checkpoint, re-register, replay the in-flight clock.
  void RecoverWorker(int w);
  void MaybeCheckpoint(int w, int64_t next_iter);
  std::string CheckpointPath(int w) const;

  /// Makes `plan` the plan in force: checks it against the model, rebuilds
  /// the coordinator at its shard count and staleness, turns on batching if
  /// it asks for it, and builds + starts the KV servers and client libraries.
  void InstallPlan(std::shared_ptr<const CommPlan> plan);
  /// A fresh client library for worker `w` running *plan_.
  std::unique_ptr<ClientLibrary> MakeClient(int w);

  TrainerOptions options_;
  NetworkFactory factory_;
  std::unique_ptr<MessageBus> bus_;
  std::vector<std::unique_ptr<Network>> worker_nets_;
  std::unique_ptr<Network> init_net_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<KvServer>> servers_;
  std::vector<std::unique_ptr<ClientLibrary>> clients_;
  std::shared_ptr<const CommPlan> plan_;
  int64_t next_iter_ = 0;
  bool shut_down_ = false;

  // Liveness + recovery plumbing (only populated when enabled).
  std::vector<std::unique_ptr<HeartbeatTicker>> tickers_;
  std::unique_ptr<FailureDetector> detector_;
  std::atomic<bool> crash_fired_{false};
  std::vector<std::unique_ptr<std::atomic<bool>>> crashed_;
  std::atomic<int64_t> recoveries_{0};

  std::mutex recovery_mutex_;
  std::condition_variable recovery_cv_;
  std::vector<std::thread> recovery_threads_;
  int recoveries_in_flight_ = 0;

  // Live only while Train() runs; the recovery replay records into the same
  // per-iteration stat slots the dead incarnation would have filled.
  struct TrainWindow {
    const SyntheticDataset* dataset = nullptr;
    int64_t first_iter = 0;
    int iterations = 0;
    std::vector<std::vector<double>>* losses = nullptr;
    std::vector<std::vector<double>>* accuracies = nullptr;
    std::vector<std::vector<double>>* compute_ms = nullptr;
    std::vector<std::vector<double>>* comm_wait_ms = nullptr;
  };
  TrainWindow window_;

  // Cumulative stall accounting across Train() windows (summed over
  // workers); the per-iteration view lives in IterationStats.
  std::atomic<int64_t> compute_ns_total_{0};
  std::atomic<int64_t> comm_wait_ns_total_{0};
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_TRAINER_H_

/// \file
/// The per-process runtime of a multi-process Poseidon cluster: one
/// ClusterNode hosts this process's slice of the bus node space — any subset
/// of worker replicas and KV servers — over a SocketTransport. Each local
/// worker runs the trainer's own step (RunWorkerStep, trainer.h) once per
/// iteration, so the cluster and PoseidonTrainer share one WFBP iteration,
/// spans included; the local KV servers stop through KvServer::Stop, as the
/// trainer's do.
///
/// Every process constructs the full deterministic workload (dataset +
/// replica factory, src/poseidon/workloads.h), resolves the same plan and
/// builds the full Coordinator from it (ClusterInfoFor), then instantiates
/// only the roles whose bus node it owns. Training math never sees the
/// placement: the trajectory of a spawned N-process cluster is bitwise
/// identical to the in-process trainer (tests/multiprocess_trajectory_test.cc
/// holds this as an oracle).
///
/// Worker results are written to `out_dir`:
///   worker_<w>_losses.txt — one line per iteration, `<iter> <loss> <acc>`
///     with doubles in C hexfloat (%a) so comparisons are bitwise;
///   worker_<w>.ckpt       — final replica parameters (SaveCheckpoint).
#ifndef POSEIDON_SRC_POSEIDON_CLUSTER_NODE_H_
#define POSEIDON_SRC_POSEIDON_CLUSTER_NODE_H_

#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/poseidon/trainer.h"
#include "src/transport/cluster_launcher.h"
#include "src/transport/socket_transport.h"

namespace poseidon {

/// Everything one process needs to join a cluster. The trainer/workload
/// fields must be identical across all processes (they are derived from the
/// same command line by tools/poseidon_launch); only `process` and
/// `transport.self` differ.
struct ClusterNodeConfig {
  /// Cluster shape + hyperparameters. A `fault_plan` weathers this member's
  /// egress exactly as in PoseidonTrainer: the bus's fault fabric drops,
  /// duplicates and delays in-process deliveries and socket frames alike.
  /// Crash plans and failure detection are in-process-trainer features and
  /// must be off; `shards_per_server` must be explicit (>= 1) — auto-sharding would
  /// require every process to agree on the resolved count. The plan must be
  /// paper mode without compression: the wire format carries no int8 or
  /// top-k pushes and no fp16 replies between processes.
  TrainerOptions trainer;
  /// Hidden layers of the canonical TinyMlp workload (workloads.h).
  int hidden_layers = 2;
  /// Iterations to train (iter 0 .. iterations-1).
  int iterations = 6;
  /// This process's index (== transport.self).
  int process = 0;
  /// Socket mesh: endpoints for every process and the node -> process map.
  SocketTransportOptions transport;
  /// Directory for worker losses + final checkpoints (must exist). Only
  /// worker-hosting processes write.
  std::string out_dir;
  int rendezvous_timeout_ms = 60000;
  int shutdown_timeout_ms = 300000;
};

/// One cluster member. Construct, then Run() once; Run blocks until the
/// whole cluster shuts down (or a deadline/transport failure aborts it).
class ClusterNode {
 public:
  explicit ClusterNode(ClusterNodeConfig config);
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Joins the cluster, trains, writes results, tears down. Non-OK on
  /// rendezvous/shutdown deadline or transport failure — the caller should
  /// exit nonzero so the launcher kills the rest of the cluster. Every
  /// outcome runs the same teardown, so a failed Run still returns and the
  /// member destructs.
  Status Run();

  /// Post-Run() snapshot of the bus's fault counters (all-zero before Run
  /// completes): the socket weather the fault fabric injected on this
  /// process's egress, and what the reorder buffer repaired on its ingress
  /// (dedup / reorder / dropped replies).
  FaultCountersSnapshot shim_counters() const { return shim_counters_; }

 private:
  /// Connects, passes the rendezvous, runs every local worker, then the
  /// shutdown protocol; Run's bring-up precedes it and its teardown follows.
  Status Train();
  /// Local worker `w`'s iterations, one RunWorkerStep each, then its results.
  Status RunWorker(int w);
  Status WriteWorkerResults(int w);

  const ClusterNodeConfig config_;

  std::unique_ptr<Network> init_net_;
  std::unique_ptr<MessageBus> bus_;
  std::shared_ptr<SocketTransport> transport_;
  std::unique_ptr<ClusterControl> control_;
  std::unique_ptr<Coordinator> coordinator_;
  std::shared_ptr<const CommPlan> plan_;

  std::vector<int> local_workers_;               // worker ids hosted here
  std::vector<std::unique_ptr<Network>> worker_nets_;     // by local index
  std::vector<std::unique_ptr<ClientLibrary>> clients_;   // by local index
  std::vector<std::unique_ptr<KvServer>> servers_;        // by local index

  // Per local worker, per iteration.
  std::vector<std::vector<double>> losses_;
  std::vector<std::vector<double>> accuracies_;

  FaultCountersSnapshot shim_counters_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_CLUSTER_NODE_H_

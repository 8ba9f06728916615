/// \file
/// The per-process runtime of a multi-process Poseidon cluster: one
/// ClusterNode hosts this process's slice of the bus node space — any subset
/// of worker replicas and KV servers — over a SocketTransport, and drives the
/// exact worker-loop arithmetic of PoseidonTrainer::RunWorkerLoop.
///
/// Every process constructs the full deterministic workload (dataset +
/// replica factory, src/poseidon/workloads.h) and the full Coordinator from
/// the shared cluster shape, then instantiates only the roles whose bus node
/// it owns. Training math never sees the placement: the trajectory of a
/// spawned N-process cluster is bitwise identical to the in-process trainer
/// (tests/multiprocess_trajectory_test.cc holds this as an oracle).
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
  /// Cluster shape + hyperparameters. Fault injection, crash plans and
  /// failure detection are in-process-trainer features and must be off;
  /// `shards_per_server` must be explicit (>= 1) — auto-sharding would
  /// require every process to agree on the resolved count. The plan must be
  /// paper mode without compression: the wire format carries no fp16, int8
  /// or top-k frames between processes.
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
  /// exit nonzero so the launcher kills the rest of the cluster.
  Status Run();

  /// Post-Run() snapshots (all-zero before Run completes): what the lossy
  /// shim injected on this process's egress, and what the bus's wire-ingress
  /// sequencing layer observed (dedup / reorder / dropped replies).
  FaultCountersSnapshot shim_counters() const { return shim_counters_; }
  FaultCountersSnapshot wire_counters() const { return wire_counters_; }

 private:
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
  std::vector<int> local_servers_;               // server ids hosted here
  std::vector<std::unique_ptr<Network>> worker_nets_;     // by local index
  std::vector<std::unique_ptr<ClientLibrary>> clients_;   // by local index
  std::vector<std::unique_ptr<KvServer>> servers_;        // by local index

  // Per local worker, per iteration.
  std::vector<std::vector<double>> losses_;
  std::vector<std::vector<double>> accuracies_;

  FaultCountersSnapshot shim_counters_;
  FaultCountersSnapshot wire_counters_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_CLUSTER_NODE_H_

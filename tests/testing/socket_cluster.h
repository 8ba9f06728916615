/// \file
/// In-process socket clusters for the conformance and chaos suites: every
/// "process" of a multi-process cluster runs as a thread of the test binary
/// (one ClusterNode each), but all traffic still crosses real TCP or Unix
/// sockets through the full wire-format encode/decode path. This gives the
/// backend-parameterized property tests a socket backend they can drive
/// under plain ctest — no subprocess spawning, same framing, same sequencing
/// — while tests/multiprocess_trajectory_test.cc covers the true
/// fork/exec cluster through tools/poseidon_launch.
#ifndef POSEIDON_TESTS_TESTING_SOCKET_CLUSTER_H_
#define POSEIDON_TESTS_TESTING_SOCKET_CLUSTER_H_

#include "src/poseidon/cluster_node.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace testing {

struct SocketClusterOptions {
  int workers = 2;
  int servers = 2;
  int shards = 2;
  int staleness = 0;
  PlanPolicy policy = PlanPolicy::kDense;
  int iterations = 6;
  int hidden_layers = 2;
  /// AF_UNIX instead of TCP loopback.
  bool unix_sockets = false;
  /// Host worker w and server w on the same bus node (server_node_base 0)
  /// instead of giving every role its own node/process.
  bool colocate = false;
  bool batch_egress = false;
  /// Socket weather: every member's TrainerOptions::fault_plan, so its
  /// bus's fault fabric weathers the frames it ships.
  FaultPlan shim;
};

/// What a socket cluster run observed, shaped for comparison against the
/// in-process CaptureTrajectory oracle.
struct SocketClusterRun {
  Trajectory trajectory;           ///< mean losses + worker 0 final params
  /// The members' bus fault counters, summed: weather injected on egress
  /// and what the reorder buffers repaired on ingress.
  FaultCountersSnapshot shim;
};

/// Runs the full cluster (controller + node members as threads), captures
/// the trajectory from the run directory, and aggregates the counters.
/// CHECK-fails if any member fails — these tests want a stack, not a skip.
SocketClusterRun RunSocketCluster(const SocketClusterOptions& options);

}  // namespace testing
}  // namespace poseidon

#endif  // POSEIDON_TESTS_TESTING_SOCKET_CLUSTER_H_

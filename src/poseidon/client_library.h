/// \file
/// The client library (paper §4.1): plugged into a training program, it owns
/// one syncer per layer, a CPU thread pool for syncer jobs, and the binary
/// completion vector implementing the worker-side half of BSP.
///
/// Usage inside a worker's training loop (paper Algorithm 2):
///   net.Forward(...);
///   client.StartIteration();
///   for (int l = L - 1; l >= 0; --l) {
///     net.BackwardThrough(l);
///     client.ScheduleSync(l);   // wait-free: runs on the pool
///   }
///   client.WaitAll();           // sync_count == num param layers
#ifndef POSEIDON_SRC_POSEIDON_CLIENT_LIBRARY_H_
#define POSEIDON_SRC_POSEIDON_CLIENT_LIBRARY_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/nn/network.h"
#include "src/nn/sgd.h"
#include "src/planner/comm_plan.h"
#include "src/poseidon/coordinator.h"
#include "src/poseidon/syncer.h"
#include "src/transport/bus.h"

namespace poseidon {

class ClientLibrary {
 public:
  /// One syncer per layer of `net`, each running `plan`'s assignment for it
  /// (plan.layers must be parallel to the network's layers).
  ClientLibrary(int worker, const Coordinator& coordinator, const CommPlan& plan,
                Network* net, MessageBus* bus, const SgdConfig& sgd, int num_threads);

  ClientLibrary(const ClientLibrary&) = delete;
  ClientLibrary& operator=(const ClientLibrary&) = delete;

  /// Resets the completion vector for a new iteration.
  void StartIteration(int64_t iter);

  /// Schedules layer `l`'s sync job (Move-out, Send, Receive, Move-in) on the
  /// thread pool. No-op for stateless layers.
  void ScheduleSync(int l);

  /// Blocks until every scheduled sync of this iteration finished.
  void WaitAll();

 private:
  const int worker_;
  SgdOptimizer local_optimizer_;  // applies SFB and ring/tree updates on this replica
  std::vector<std::unique_ptr<Syncer>> syncers_;
  int num_sync_layers_ = 0;

  std::mutex mutex_;
  std::condition_variable done_cv_;
  std::vector<bool> completion_;  // the paper's binary vector C
  int completed_ = 0;
  int64_t iter_ = -1;
  /// Declared last so it is destroyed first: its threads join before the
  /// state their sync jobs touch goes away (a crashed worker's library is
  /// destroyed with jobs still draining).
  ThreadPool pool_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_CLIENT_LIBRARY_H_

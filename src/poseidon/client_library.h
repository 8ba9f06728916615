/// \file
/// The client library (paper §4.1): plugged into a training program, it owns
/// one syncer per layer, the CPU threads that run them, and the binary
/// completion vector implementing the worker-side half of BSP.
///
/// Each thread is an event loop over one mailbox. Layer l belongs to thread
/// l % num_threads, and every bus port of the layer (its syncer port and its
/// collective port) is bound to that thread's mailbox. ScheduleSync only
/// enqueues a local "layer ready" entry; the loop answers it with MoveOut +
/// Send and passes every other message to its layer's Syncer::Handle. So all
/// of an iteration's pushes, SF broadcasts and first hops are on the wire
/// before the first reply is awaited, whatever the thread count.
///
/// Usage inside a worker's training loop (paper Algorithm 2):
///   net.Forward(...);
///   client.StartIteration();
///   for (int l = L - 1; l >= 0; --l) {
///     net.BackwardThrough(l);
///     client.ScheduleSync(l);   // wait-free: enqueues layer l on its loop
///   }
///   client.WaitAll();           // sync_count == num param layers
#ifndef POSEIDON_SRC_POSEIDON_CLIENT_LIBRARY_H_
#define POSEIDON_SRC_POSEIDON_CLIENT_LIBRARY_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

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
  /// (plan.layers must be parallel to the network's layers), served by
  /// `num_threads` syncer loops.
  ClientLibrary(int worker, const Coordinator& coordinator, const CommPlan& plan,
                Network* net, MessageBus* bus, const SgdConfig& sgd, int num_threads);
  /// Closes the loops' mailboxes and joins the loops once they drained.
  ~ClientLibrary();

  ClientLibrary(const ClientLibrary&) = delete;
  ClientLibrary& operator=(const ClientLibrary&) = delete;

  /// Resets the completion vector for a new iteration.
  void StartIteration(int64_t iter);

  /// Hands layer `l`'s sync (Move-out, Send, then Receive and Move-in as its
  /// messages arrive) to the layer's loop. No-op for stateless layers.
  void ScheduleSync(int l);

  /// Blocks until every scheduled sync of this iteration finished.
  void WaitAll();

 private:
  /// One syncer loop: pops until its mailbox is closed and drained — by the
  /// destructor, or by MessageBus::CloseEndpoints fencing a crashed worker.
  void Loop(int thread);

  const int worker_;
  SgdOptimizer local_optimizer_;  // applies SFB and ring/tree updates on this replica
  std::vector<std::unique_ptr<Syncer>> syncers_;
  int num_sync_layers_ = 0;
  std::vector<std::shared_ptr<MessageBus::Mailbox>> mailboxes_;  // one per loop

  std::mutex mutex_;
  std::condition_variable done_cv_;
  std::vector<bool> completion_;  // the paper's binary vector C
  int completed_ = 0;
  int64_t iter_ = -1;
  std::vector<std::thread> loops_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_CLIENT_LIBRARY_H_

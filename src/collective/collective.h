/// \file
/// Collective-communication primitives over the in-process MessageBus: ring
/// allreduce (chunked reduce-scatter + all-gather, the bandwidth-optimal
/// scheme that moves 2*T*(P-1)/P floats per node) and binary-tree
/// reduce-broadcast (2*ceil(log2 P) latency hops, at most 6*T floats at the
/// busiest internal node).
///
/// One CollectiveComm object is one rank's endpoint in one group, identified
/// by a tag (the runtime uses the layer index, mirroring the per-layer syncer
/// mailboxes). The protocol is split into a non-blocking Start — which
/// injects this rank's first message, preserving the paper's wait-free Send
/// semantics — and Handle, a single-threaded step that consumes one received
/// hop, folds or adopts its chunk and sends the next hop. Handle never pops:
/// the caller owns the wait (the client library's syncer loop, or Allreduce
/// here), so tests can step the ranks in any order from one thread. When the
/// last hop is handled every rank holds the bitwise-identical elementwise
/// sum: ring chunks are folded in ring order starting at the chunk's index,
/// tree subtrees in child order, so no rank-dependent association order
/// exists.
///
/// Ordering relies only on per-sender FIFO delivery (which MessageBus
/// mailboxes provide): every ring message a rank consumes comes from its
/// predecessor, and tree children cannot start iteration t+1 before their
/// parent broadcast for t, so messages are consumed strictly in protocol
/// order. Sequence/step numbers are CHECKed on every hop.
#ifndef POSEIDON_SRC_COLLECTIVE_COLLECTIVE_H_
#define POSEIDON_SRC_COLLECTIVE_COLLECTIVE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/collective/topology.h"
#include "src/transport/bus.h"

namespace poseidon {

enum class CollectiveAlgo {
  kRing,  // chunked reduce-scatter + all-gather around the rank ring
  kTree,  // reduce up the binary tree, broadcast the root sum back down
};

const char* CollectiveAlgoName(CollectiveAlgo algo);

/// Tree protocol phases carried in Message::step.
inline constexpr int kTreeReduceStep = 0;
inline constexpr int kTreeBroadcastStep = 1;

class CollectiveComm {
 public:
  /// Registers this rank's mailbox at {rank, kCollectivePortBase + tag}, or
  /// takes the one already bound there (a worker's syncer loop mailbox).
  CollectiveComm(MessageBus* bus, int rank, int world, int tag);

  CollectiveComm(const CollectiveComm&) = delete;
  CollectiveComm& operator=(const CollectiveComm&) = delete;

  /// Non-blocking kickoff of one allreduce over *data (kept by the caller,
  /// unmodified until the operation completes): sends this rank's first ring
  /// chunk, or a leaf's subtree contribution. `seq` tags the operation (the
  /// runtime uses the iteration number) and is validated on every received
  /// hop.
  void Start(CollectiveAlgo algo, int64_t seq, std::vector<float>* data);

  /// Consumes one hop of the operation in flight without blocking: checks
  /// it, folds (reduce) or adopts (gather / broadcast) its chunk and sends
  /// the next hop. Returns true when this hop completed the operation; *data
  /// then holds the elementwise sum across all ranks, bitwise identical on
  /// every rank.
  bool Handle(const Message& message);

  /// True from Start until the hop that completes the operation (never for
  /// a world of one, which has nothing to wait for).
  bool pending() const { return pending_; }

  /// Blocking convenience: Start, then pop and Handle until complete.
  void Allreduce(CollectiveAlgo algo, int64_t seq, std::vector<float>* data);

  int rank() const { return rank_; }
  int world() const { return world_; }

  /// Per-hop accounting (this rank's egress), for traffic tests.
  int64_t messages_sent() const { return messages_sent_; }
  int64_t floats_sent() const { return floats_sent_; }

 private:
  void SendHop(int to, int step, int64_t offset, const float* data, int64_t len);
  /// Handle's per-algorithm halves; each returns true on completion.
  bool HandleRing(const Message& message);
  bool HandleTree(const Message& message);

  MessageBus* bus_;
  const int rank_;
  const int world_;
  const int tag_;
  std::shared_ptr<MessageBus::Mailbox> mailbox_;

  const std::vector<int> children_;  // tree children, lower rank first

  /// In-flight operation state between Start and completion.
  bool pending_ = false;
  CollectiveAlgo algo_ = CollectiveAlgo::kRing;
  int64_t seq_ = -1;
  std::vector<float>* data_ = nullptr;
  int ring_step_ = 0;                     ///< the ring step expected next
  std::vector<PayloadView> child_sums_;   ///< tree reduce hops, by child
  size_t children_reduced_ = 0;

  int64_t messages_sent_ = 0;
  int64_t floats_sent_ = 0;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_COLLECTIVE_COLLECTIVE_H_

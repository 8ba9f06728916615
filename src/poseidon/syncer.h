/// \file
/// Per-layer syncer (paper §4.1, Table 2): each NN layer maps one-to-one to
/// a syncer that owns its parameter synchronization. The syncer exposes the
/// paper's three APIs:
///   Move    — staging between "GPU" and host memory plus SF/gradient
///             transformations and update application (in-process, the
///             staging is a flatten/scatter pass);
///   Send    — non-blocking push of the layer's updates, using the scheme
///             the coordinator selected;
///   Receive — Handle, the thread-free step: consumes one message for the
///             layer and, once the iteration completes, moves the result
///             in. The syncer owns no mailbox and never blocks; the client
///             library's loop pops and dispatches (see client_library.h).
///
/// On the PS path the layer's KV pairs are grouped by destination shard
/// endpoint at construction; Send coalesces each endpoint's pairs into one
/// kGradPush message (request coalescing), so a layer striped over E shard
/// endpoints costs E messages per iteration, not one per pair. A 1-bit layer
/// takes the same path with one whole-layer pair and one kOneBitPush. SFB and
/// ring/tree layers replicate the optimizer: every worker steps the
/// bitwise-identical averaged sum through an identical local SGD.
#ifndef POSEIDON_SRC_POSEIDON_SYNCER_H_
#define POSEIDON_SRC_POSEIDON_SYNCER_H_

#include <memory>
#include <vector>

#include "src/collective/collective.h"
#include "src/nn/layers.h"
#include "src/nn/sgd.h"
#include "src/planner/comm_plan.h"
#include "src/poseidon/coordinator.h"
#include "src/poseidon/flat_params.h"
#include "src/tensor/onebit.h"
#include "src/transport/bus.h"
#include "src/transport/codec.h"
#include "src/transport/payload.h"

namespace poseidon {

class Syncer {
 public:
  /// The layer's scheme and PS wire codec come from `plan.layers[layer_index]`
  /// (non-PS schemes ignore the codec); `plan.topk_density` sizes the top-k
  /// selection over the whole layer. `local_optimizer` applies SFB and ring/tree updates
  /// on the worker (shared across this worker's syncers; may be null for
  /// PS-only layers).
  Syncer(int worker, int layer_index, const CommPlan& plan, const Coordinator& coordinator,
         MessageBus* bus, Layer* layer, SgdOptimizer* local_optimizer);

  Syncer(const Syncer&) = delete;
  Syncer& operator=(const Syncer&) = delete;

  PlannedScheme scheme() const { return scheme_; }

  /// Move(GPU2CPU): stages gradients (or extracts sufficient factors) out of
  /// the layer into send buffers.
  void MoveOut();

  /// Non-blocking send of the staged updates for iteration `iter`; opens the
  /// iteration that Handle completes, then hands Handle the messages it
  /// deferred because they arrived before this Send. Returns true when the
  /// iteration is then complete (a lone worker waits for no message); its
  /// result is applied as in Handle.
  bool Send(int64_t iter);

  /// Consumes one message addressed to this layer (a PS / 1-bit reply, an SF
  /// broadcast, or a ring/tree hop) without blocking. Returns true when the
  /// message completed the iteration opened by Send; the result is then
  /// applied: fresh parameters scattered (PS/1-bit) or the averaged
  /// aggregate stepped through the local optimizer (SFB, ring/tree). A
  /// message from an iteration Send has not opened yet (a peer one
  /// iteration ahead) is deferred to that Send.
  bool Handle(const Message& message);

 private:
  /// The KV-store path, shared by kPS and kOneBit layers: one push per
  /// shard endpoint the layer's pairs live on, one reply per pair.
  void SendPs(int64_t iter);
  void SendSfb(int64_t iter);
  /// True once the open iteration needs no further message.
  bool Complete() const;
  /// Moves the completed iteration's result into the layer. SFB and
  /// ring/tree layers share one apply: scale each parameter block's summed
  /// gradient by 1/W and step it through the local optimizer.
  void Apply();

  const int worker_;
  const int layer_index_;
  const PlannedScheme scheme_;
  const GradCompression compression_;
  const KvCodecs codecs_;  ///< push/reply codecs of a kPS or kOneBit layer
  const double topk_density_;
  const Coordinator& coordinator_;
  MessageBus* bus_;
  Layer* layer_;
  FullyConnectedLayer* fc_;  // non-null for SFB/1-bit layers
  SgdOptimizer* local_optimizer_;

  FlatParamView view_;
  /// One coalesced push per destination shard endpoint, fixed at
  /// construction.
  struct ShardDest {
    Address address;
    std::vector<KvPairInfo> pairs;
  };
  std::vector<ShardDest> pairs_by_shard_;
  int total_pairs_ = 0;

  /// PS staging slab: MoveOut gathers the layer's gradient straight into it
  /// and Send ships per-pair views, zero-copy. Reused across iterations
  /// while this syncer is the sole owner; reallocated when a receiver still
  /// holds views (possible under SSP staleness > 0).
  Payload staged_;
  /// Compressed-PS state: the layer-sized error-feedback residual (zeroed at
  /// construction, carried across iterations), the quantizer input scratch
  /// (gradient + residual), and the per-pair encoded frames of the most
  /// recent Send (a 1-bit layer's one frame, from MoveOut) — kept alive
  /// here because shards buffer views into them until the clock's aggregate
  /// is applied.
  Payload residual_;
  Payload quant_;
  std::vector<Payload> push_frames_;
  std::unique_ptr<CollectiveComm> comm_;  // ring/tree path
  std::vector<float> comm_grads_;         // ring/tree staging, summed in place
  Payload sf_frame_;                      // SFB frame (factors + bias)
  Tensor sf_agg_;                         // SFB weight-grad aggregate, reused
  std::vector<float> sf_bias_agg_;        // SFB bias-grad aggregate, reused
  OneBitQuantizer quantizer_;             // persistent residual

  /// The iteration opened by Send and its progress.
  int64_t iter_ = -1;
  int received_ = 0;                    // PS / 1-bit pairs or peer SFs
  std::vector<PayloadView> sf_frames_;  // SFB frames by worker
  std::vector<Message> deferred_;       // SFs and hops from later iterations
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_SYNCER_H_

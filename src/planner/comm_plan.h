/// \file
/// The immutable output of the CommPlanner: per-layer communication
/// assignments plus the global knobs (shard count, staleness bound, egress
/// batching, top-k density) and the predicted cost breakdown they were chosen
/// under. A CommPlan is a pure value — once built it never changes, so it can
/// be shared by pointer between the trainer, the protocol simulator and the
/// bench harnesses, and round-tripped through JSON for `--plan=fixed:<path>`
/// runs and the committed golden fixture.
///
/// See docs/PLANNER.md for the search space and the determinism contract.
#ifndef POSEIDON_SRC_PLANNER_COMM_PLAN_H_
#define POSEIDON_SRC_PLANNER_COMM_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/models/comm_cost.h"
#include "src/transport/codec.h"

namespace poseidon {

/// One layer's assignment: what moves on the wire and what the cost model
/// predicted it costs (per-worker payload bytes per iteration).
struct PlanLayerChoice {
  std::string layer;
  PlannedScheme scheme = PlannedScheme::kNone;
  GradCompression compression = GradCompression::kNone;
  double predicted_bytes = 0.0;
};

/// The wire codecs of a layer the KV store serves (scheme kPS or kOneBit):
/// what its gradient pushes carry and what its parameter replies carry.
struct KvCodecs {
  WireCodec push = WireCodec::kRawFloat;
  WireCodec reply = WireCodec::kRawFloat;
};

/// The one codec rule the syncer and the KV shard share. Pushes carry raw,
/// int8 or top-k frames per the PS layer's compression, or 1-bit frames for
/// a kOneBit layer; replies are binary16 round-to-nearest for the int8 and
/// top-k layers and raw floats otherwise.
KvCodecs KvWireCodecs(const PlanLayerChoice& choice);

/// Whether a worker's backward pass must form the layer's dense weight
/// gradient. An SFB layer's peers rebuild dW from its sufficient factors and
/// nothing reads the worker's own; every other scheme ships, quantizes or
/// reduces the dense gradient. Read per iteration from the plan in force by
/// both WFBP loops.
bool NeedsWeightGrad(const PlanLayerChoice& choice);

/// An immutable communication plan. `hash` is an FNV-1a digest over every
/// decision field (signature, globals, per-layer assignments, predicted
/// totals), so two plans are interchangeable iff their hashes match;
/// `signature` is the canonical signature of the request the plan answers,
/// kept for debugging and for the JSON dump.
struct CommPlan {
  std::string model;
  std::string signature;

  // Global knobs.
  int ps_shards = 1;
  int staleness = 0;
  bool batch_egress = false;
  double topk_density = 0.01;

  // Per-layer assignments, in the model's layer order.
  std::vector<PlanLayerChoice> layers;

  // Predicted cost breakdown for the busiest worker, per iteration.
  double predicted_wire_bytes = 0.0;    // payload, summed over layers
  double predicted_framing_bytes = 0.0; // per-message framing after batching
  double predicted_msgs = 0.0;          // wire messages after batching
  double predicted_time_s = 0.0;        // 0 when planned on the byte basis
  double planned_gbps = 0.0;            // bandwidth the plan was costed at

  uint64_t hash = 0;

  /// FNV-1a over every field above except `hash` itself.
  uint64_t ComputeHash() const;

  /// Canonical JSON dump (stable field order, %.17g doubles — regenerating an
  /// identical plan reproduces the file byte for byte).
  std::string ToJson() const;
  static StatusOr<CommPlan> FromJson(const std::string& json);

  Status SaveToFile(const std::string& path) const;
  static StatusOr<CommPlan> LoadFromFile(const std::string& path);

  /// Human-readable per-layer table for bench output.
  std::string Summary() const;

  /// The assignment for `layer_name`, or nullptr.
  const PlanLayerChoice* Find(const std::string& layer_name) const;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_PLANNER_COMM_PLAN_H_

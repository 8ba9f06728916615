/// \file
/// CommPlanner: cost-model-driven search over the joint per-layer
/// communication space — scheme x KV shard count x wire codec x egress
/// batching x SSP staleness — against the byte- and time-basis rows of
/// src/models/comm_cost.h.
///
/// Two search modes share one entry point (PlanComm):
///
///  * paper mode (`joint = false`): reproduces the pre-planner sequential
///    decisions bit for bit — per-layer scheme on the float basis
///    (BestScheme / BestSchemeExtended), then the shard count
///    (BestPsShardCount, max over PS layers, with the schemes re-resolved
///    at the chosen count), then the codec given the scheme. The trainer's
///    paper mode is one such request, so pre-planner trajectories are
///    unchanged.
///  * joint mode (`joint = true`): per-layer argmin over the full
///    (scheme, codec) menu at every candidate shard count, on the byte
///    basis (nic_gbps == 0) or the time basis (nic_gbps > 0, adding
///    latency and encode-CPU terms), with dominance pruning: candidates
///    whose rows do not depend on the shard count are evaluated once per
///    layer and folded into every shard count's argmin, so the search is
///    exhaustive-equivalent at a fraction of the evaluations.
///
/// The search is pure closed-form arithmetic — no RNG, no clocks — so the
/// same request always yields a bitwise-identical plan.
#ifndef POSEIDON_SRC_PLANNER_COMM_PLANNER_H_
#define POSEIDON_SRC_PLANNER_COMM_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/models/comm_cost.h"
#include "src/models/model_spec.h"
#include "src/planner/comm_plan.h"

namespace poseidon {

/// Scheme-policy constraint on the search; also the trainer's paper-mode
/// `fc_policy`. kAuto opens the full menu — what `--plan=auto` and the
/// replanner use.
enum class PlanPolicy {
  kAuto,              // full menu: PS (x codecs), SFB, ring, tree
  kDense,             // PS for every parameter layer
  kSfb,               // SFB for FC layers, PS for the rest
  kHybrid,            // Algorithm 1: PS vs SFB per FC layer
  kOneBit,            // 1-bit PS for FC layers
  kRingAllreduce,     // ring for every parameter layer
  kTreeAllreduce,     // tree for every parameter layer
  kHybridCollective,  // three-way BestSchemeExtended per layer
};

const char* PlanPolicyName(PlanPolicy policy);

/// Codec-policy constraint: which wire codecs the PS candidates may use
/// (the trainer's `ps_compression`). kAuto opens all of them.
enum class PlanCodecPolicy { kNone, kFp16, kInt8, kTopK, kAuto };

const char* PlanCodecPolicyName(PlanCodecPolicy policy);

/// Everything the plan depends on. Every field that can change the answer
/// must feed PlanRequestSignature (and through it the plan hash).
struct PlanRequest {
  // --- model spec ---
  std::string model_name;
  std::vector<LayerSpec> layers;

  // --- cluster signature ---
  int num_workers = 1;
  int num_servers = 1;
  int batch_per_worker = 32;
  int64_t kv_pair_bytes = 2 * 1024 * 1024;
  /// Per-node NIC bandwidth. 0 = unknown: plan on the byte basis
  /// (minimize payload). > 0: plan on the time basis (wire + latency +
  /// encode CPU), which is what bandwidth-feedback re-planning varies.
  double nic_gbps = 0.0;
  double latency_s = 40e-6;
  /// Fraction of line rate the transport sustains (ClusterSpec mirror).
  double transport_efficiency = 0.6;
  /// CPU rate charged for codec encode/decode passes on the time basis.
  double cpu_flops = 50e9;
  std::string transport = "inproc";

  // --- knob gates ---
  /// > 0: the shard count is pinned (no search); PS rows are costed there.
  int ps_shards_pinned = 0;
  /// Search ceiling for the shard dimension when not pinned.
  int max_shards = 1;
  /// Shard count the paper-mode scheme pass evaluates at when the shard
  /// dimension is being searched (the pre-planner flow costed schemes at the
  /// configured count before picking shards; the schemes are then
  /// re-resolved at the chosen count).
  int paper_eval_shards = 1;
  /// Baseline staleness (pinned in paper mode and on the byte basis).
  int staleness = 0;
  /// Time-basis ceiling for the staleness dimension (>= staleness).
  int max_staleness = 0;
  /// Baseline egress batching (pinned in paper mode).
  bool batch_egress = false;
  /// Joint mode may turn batching on when it reduces framing/latency.
  bool allow_batching = false;
  /// Messages per batch frame the batching model assumes
  /// (EgressBatchOptions::max_batch_messages).
  int batch_max_messages = 16;

  // --- policy constraints ---
  PlanPolicy policy = PlanPolicy::kAuto;
  PlanCodecPolicy codec = PlanCodecPolicy::kNone;
  double topk_density = 0.01;
  int64_t compression_min_floats = kCompressionMinFloats;

  // --- search mode ---
  bool joint = false;
};

/// Canonical human-readable signature (stored in CommPlan::signature; see
/// docs/PLANNER.md "Request signature" for the format).
std::string PlanRequestSignature(const PlanRequest& request);

/// Cold search: runs the configured mode and returns the finished plan
/// (hash filled in). Deterministic; pure function of the request.
CommPlan PlanComm(const PlanRequest& request);

/// Convenience request builder for benches: full joint search over the given
/// model and symmetric cluster (every node a worker + colocated server).
/// `nic_gbps = 0` plans on the byte basis.
PlanRequest JointAutoRequest(const ModelSpec& model, int num_nodes, double nic_gbps,
                             int max_shards, double topk_density = 0.01,
                             int64_t compression_min_floats = kCompressionMinFloats);

/// The pre-planner hand-picked default for the same shape: paper mode,
/// Algorithm-1 hybrid policy, one shard, raw fp32 — the baseline the
/// "planned never costs more predicted bytes" acceptance gate compares
/// against.
PlanRequest PaperDefaultRequest(const ModelSpec& model, int num_nodes,
                                double nic_gbps = 0.0);

}  // namespace poseidon

#endif  // POSEIDON_SRC_PLANNER_COMM_PLANNER_H_

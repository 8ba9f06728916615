// The distributed-training systems compared in the evaluation, expressed as
// one communication plan plus the mechanisms only the simulator models:
//   * overlap    — when layer synchronization may run relative to compute
//                  (§3.1: none / WFBP / TF's fetch-at-iteration-start),
//   * sharding   — how parameters map to PS shards (Poseidon's 2 MB KV pairs
//                  vs TensorFlow's one-server-per-tensor),
//   * the plan   — what bytes move per layer (dense PS, SFB, CNTK's 1-bit
//                  quantization, collectives, compressed PS, or HybComm's
//                  per-layer choice), from a CommPlanner request or a fixed
//                  CommPlan; Project Adam's SF-push + matrix-pull is the one
//                  scheme only the simulator knows.
#ifndef POSEIDON_SRC_CLUSTER_SYSTEM_CONFIG_H_
#define POSEIDON_SRC_CLUSTER_SYSTEM_CONFIG_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/planner/comm_plan.h"
#include "src/planner/comm_planner.h"

namespace poseidon {

enum class OverlapMode {
  kNone,     // synchronize sequentially after the full backward pass
  kWfbp,     // per-layer sync as soon as the layer's gradient exists
  kTfFetch,  // pushes overlap backward; pulls wait for the iteration boundary
};

enum class ShardingMode {
  kKvPairs,    // parameters hashed into fixed-size KV pairs over all servers
  kPerTensor,  // each layer owned by one server (TensorFlow's partitioning)
};

struct SystemConfig {
  std::string name;
  OverlapMode overlap = OverlapMode::kWfbp;
  ShardingMode sharding = ShardingMode::kKvPairs;
  // Project Adam: FC layers the plan sends through the PS push their
  // sufficient factors to the layer's owning server instead, which
  // reconstructs the update and sends dense matrices back ("SF->PS").
  bool adam = false;
  // Fraction of wire bandwidth the system's transport sustains. Default 0.6:
  // sustained bidirectional TCP goodput on 40 GbE NICs (kernel stack + PCIe
  // contention) is well below line rate even for an efficient socket layer
  // like Poseidon's. TensorFlow r0.10's gRPC stack measured lower still
  // (serialization and extra copies), which is part of why native TF "fails
  // to scale" on large dense layers (§5.1, Fig 6).
  double transport_efficiency = 0.6;
  // BSP straggler policy (§4.1): when true, a shard broadcasts once P-1 of P
  // workers contributed (the slowest worker's update is dropped for the
  // iteration); SFB receivers likewise proceed one peer short.
  bool drop_stragglers = false;
  // ---- fault model (mirrors the live transport's fault fabric; see
  // docs/FAULT_TOLERANCE.md). The modeled link layer is reliable: a lost
  // message is retransmitted, so loss costs time and bytes, never data.
  // Per-message wire loss probability. Modeled in expectation (the simulator
  // stays deterministic): every message's bytes inflate by 1/(1 - p) and its
  // delivery gains the expected retransmit latency p/(1 - p) * RTO.
  double loss_rate = 0.0;
  // Link-layer retransmit timeout charged per expected retransmission.
  double retransmit_timeout_s = 200e-6;
  // Crash-recovery episode costs (both zero = no failure model): suspicion
  // deadline of the heartbeat failure detector, plus worker restart +
  // checkpoint rehydration. The simulation charges one in-flight-iteration
  // replay on top and credits what the SSP bound lets survivors absorb
  // (SimResult::recovery_stall_s).
  double detect_timeout_s = 0.0;
  double restart_s = 0.0;
  // ---- The communication decision. `request` carries the CommPlanner's
  // policy fields (policy, codec, ps_shards_pinned, staleness, batch_egress,
  // topk_density, compression_min_floats, joint); RunProtocolSimulation
  // completes it with the model, node count and batch and prices PlanComm's
  // answer (the factories below set `request.policy`). A set `plan` is
  // priced as is instead, and must match the model.
  // The plan supplies every per-layer scheme and codec plus the shard count
  // (key-range endpoints per server, dividing the server apply path), the
  // SSP staleness bound (a worker may start iteration t once iteration
  // t - 1 - staleness of every layer is synchronized) and egress batching
  // (a node's same-destination messages within one iteration share a wire
  // frame: fewer frames and framing bytes, same payload and timing).
  PlanRequest request;
  std::shared_ptr<const CommPlan> plan;
};

// The named systems from Figures 5-11.
SystemConfig CaffePlusPs();       // "Caffe+PS"
SystemConfig CaffePlusWfbp();     // "Caffe+WFBP"
SystemConfig PoseidonSystem();    // "Poseidon" (WFBP + HybComm)
SystemConfig TfNative();          // "TF" (distributed TensorFlow)
SystemConfig TfPlusWfbp();        // "TF+WFBP"
SystemConfig AdamSystem();        // Project Adam's communication strategy
SystemConfig OneBitSystem();      // CNTK-style 1-bit quantization
SystemConfig SfbOnlySystem();     // pure SFB for every FC layer
SystemConfig RingAllreduceSystem();    // ring allreduce for every layer
SystemConfig TreeAllreduceSystem();    // binary-tree allreduce for every layer
SystemConfig HybridCollectiveSystem(); // Poseidon++ three-way HybComm
// Sharded-PS / SSP extensions of the dense-PS WFBP system: `shards` KV shard
// endpoints per server and an SSP bound of `staleness` iterations.
SystemConfig ShardedPsSystem(int shards, int staleness = 0);
// Poseidon (WFBP + HybComm) running under an SSP bound.
SystemConfig SspPoseidonSystem(int staleness, int shards = 1);
// Dense-PS WFBP with the PS path compressed under `codec` (a fixed codec on
// every layer clearing the size gate, or the per-layer pick under kAuto).
SystemConfig CompressedPsSystem(PlanCodecPolicy codec, double topk_density = 0.01);
// WFBP system priced off a fixed CommPlan. This is what `--plan=auto` and
// `--plan=fixed:<path>` simulate.
SystemConfig PlannedSystem(std::shared_ptr<const CommPlan> plan);

}  // namespace poseidon

#endif  // POSEIDON_SRC_CLUSTER_SYSTEM_CONFIG_H_

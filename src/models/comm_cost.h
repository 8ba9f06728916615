// The HybComm communication cost model (paper Table 1 and Algorithm 1).
//
// Costs are in *floats transferred per node per iteration* for synchronizing
// one M x N fully-connected layer across P1 workers and P2 servers with
// per-worker batch size K, exactly as the paper tabulates them. The selection
// rule BestScheme picks SFB for an FC layer iff its peer-broadcast cost is no
// larger than the colocated PS cost; everything else goes through the PS.
#ifndef POSEIDON_SRC_MODELS_COMM_COST_H_
#define POSEIDON_SRC_MODELS_COMM_COST_H_

#include <cstdint>

#include "src/models/model_spec.h"

namespace poseidon {

/// How one layer's gradients move: the single scheme vocabulary shared by
/// the cost rows, the CommPlanner, the runtime and the simulator. kOneBit is
/// the legacy 1-bit PS path, reachable only by pinning the 1-bit policy (the
/// quantized codecs superseded it).
enum class PlannedScheme {
  kNone,    // stateless layer, nothing to synchronize
  kPS,      // sharded parameter server (full matrices, optionally compressed)
  kSFB,     // peer-to-peer sufficient factor broadcasting
  kRing,    // ring allreduce (chunked reduce-scatter + all-gather)
  kTree,    // binary-tree reduce + broadcast
  kOneBit,  // 1-bit quantized push to a single owner shard
};

const char* PlannedSchemeName(PlannedScheme scheme);

struct CommCostQuery {
  int64_t m = 0;        // FC output dimension
  int64_t n = 0;        // FC input dimension
  int64_t batch_k = 0;  // per-worker batch size
  int num_workers = 0;  // P1
  int num_servers = 0;  // P2
  int num_shards = 1;   // S: key-range shard endpoints per server
};

// Table 1, row "PS": floats a pure worker sends+receives (2MN).
double PsWorkerFloats(const CommCostQuery& q);
// Table 1, row "PS": floats a pure server sends+receives (2*P1*M*N/P2).
double PsServerFloats(const CommCostQuery& q);
// Table 1, row "PS": a colocated server+worker node, 2MN(P1+P2-2)/P2.
double PsColocatedFloats(const CommCostQuery& q);
// Table 1, row "SFB": 2K(P1-1)(M+N) per worker.
double SfbWorkerFloats(const CommCostQuery& q);
// Table 1, row "Adam (max)": the server holding the layer,
// P1*M*N + P1*K*(M+N).
double AdamServerMaxFloats(const CommCostQuery& q);
// Table 1, row "Adam (max)": a pure worker, K(M+N) + MN.
double AdamWorkerFloats(const CommCostQuery& q);
// Table 1, row "Adam (max)": colocated, (P1-1)(MN + KM + KN).
double AdamColocatedMaxFloats(const CommCostQuery& q);

// --- Table-1 extension: collective allreduce rows (ring / binary tree). ---
// These treat the M x N layer as a flat tensor of M*N floats synchronized
// peer-to-peer with no servers involved (P2 is ignored). Unlike the paper's
// rows (which sum sends and receives), the collective rows count
// per-direction traffic — egress, which equals ingress and is what a
// full-duplex NIC bounds.
//
// Ring allreduce, per worker: 2*M*N*(P1-1)/P1 floats (reduce-scatter sends
// (P1-1)/P1 of the tensor, all-gather the same).
double RingAllreduceWorkerFloats(const CommCostQuery& q);
// Binary-tree reduce-broadcast, busiest node: an internal node sends M*N up
// plus M*N per child, so 3*M*N once P1 >= 5; for smaller trees the maximum
// is taken over the actual topology.
double TreeAllreduceWorkerFloats(const CommCostQuery& q);

// --- Table-1 extension: multi-shard PS rows. ---
// Each server node hosts S independent key-range shard endpoints, each a
// single-threaded service queue (mailbox + apply thread). The paper's PS rows
// bound the NIC; these rows instead bound the *busiest endpoint*, the
// serialization the single-endpoint PS suffers on its serve path. Per-node
// NIC traffic does not change with S — the rows model how the served volume
// spreads over P2*S independent queues. Both reduce to the paper's rows at
// S = 1.
//
// Busiest shard endpoint on a pure server: 2*P1*M*N/(P2*S).
double PsShardedServerFloats(const CommCostQuery& q);
// Colocated worker + busiest shard endpoint: 2MN(P1 + P2*S - 2)/(P2*S) — the
// paper's colocated row with the served share spread over S endpoints.
double PsShardedColocatedFloats(const CommCostQuery& q);

// Algorithm 1: the scheme Poseidon's coordinator selects for `layer` —
// kSFB or kPS.
PlannedScheme BestScheme(const LayerSpec& layer, int64_t batch_k, int num_workers,
                         int num_servers);

// Per-worker floats of `scheme` under `q`: the row the planner folds. PS and
// 1-bit use the sharded colocated row at q.num_shards (Algorithm 1's
// colocated row at the default q.num_shards = 1); kNone moves nothing.
//
// Note the deliberate basis mismatch: the paper's rows count sends plus
// receives as published, while the collective rows follow the standard
// allreduce convention of per-direction volume. A fold over these rows
// therefore credits collectives with the PS path's request/response round
// trip — a bias toward collectives near crossovers (e.g. ring is preferred
// over a colocated PS whose per-direction egress it merely matches). The
// simulator, which moves actual bytes, is the arbiter where this margin
// matters.
double SchemeWorkerFloats(PlannedScheme scheme, const CommCostQuery& q);

// Convenience: would SFB win for an M x N FC layer under this query? The PS
// side is costed at q.num_shards (the paper's Algorithm 1 at the default 1).
bool SfbWins(const CommCostQuery& q);

// --- Table-1 extension: wire-byte rows for the compressed PS path. ---
// The paper's rows count floats; the compressed codecs change the bytes each
// float costs on the wire, so the compressed chooser works in bytes. Only
// the PS path compresses (the collectives and SFB move raw floats: summing
// quantized values loses the error-feedback invariant, and factors are
// already small), so compression rescales the PS rows and leaves the rest at
// 4 bytes per float.

// The values are explicit because CommPlan::ComputeHash folds them in.
enum class GradCompression {
  kNone = 0,  // raw fp32 both directions
  kInt8 = 2,  // int8 push with per-256-chunk scales, binary16 reply
  kTopK = 3,  // top-k (index, value) push, binary16 reply
};

const char* GradCompressionName(GradCompression compression);

// Layers below this many floats skip compression: the residual buffer,
// per-frame headers and the encode pass are not worth saving a few KB.
constexpr int64_t kCompressionMinFloats = int64_t{1} << 16;

// Wire bytes per gradient element in the push (worker -> server) direction.
// kTopK sends 8 bytes (index word + exact value) per *selected* element,
// density of them per gradient element.
double PushBytesPerFloat(GradCompression compression, double topk_density);
// Wire bytes per parameter element in the reply (server -> worker)
// direction: 4 raw, 2 for every compressed mode (binary16 round-to-nearest
// replies — the reply is stateless, so sparsifying it would silently freeze
// unselected parameters).
double PullBytesPerFloat(GradCompression compression);

// Per-worker wire bytes of (scheme, compression) under `q`: the float rows
// rescaled by the per-direction byte costs. Only kPS uses `compression`;
// kOneBit sends 1 bit per element each direction (approximate: its level
// words are not modeled); the rest move raw floats, 4 bytes each.
double SchemeWireBytes(PlannedScheme scheme, GradCompression compression,
                       const CommCostQuery& q, double topk_density);

}  // namespace poseidon

#endif  // POSEIDON_SRC_MODELS_COMM_COST_H_

#include "src/models/comm_cost.h"

#include "src/collective/topology.h"
#include "src/common/logging.h"
#include "src/simd/quant.h"

namespace poseidon {
namespace {

void ValidateQuery(const CommCostQuery& q) {
  CHECK_GT(q.m, 0);
  CHECK_GT(q.n, 0);
  CHECK_GT(q.batch_k, 0);
  CHECK_GT(q.num_workers, 0);
  CHECK_GT(q.num_servers, 0);
  CHECK_GT(q.num_shards, 0);
}

}  // namespace

const char* PlannedSchemeName(PlannedScheme scheme) {
  switch (scheme) {
    case PlannedScheme::kNone:
      return "none";
    case PlannedScheme::kPS:
      return "PS";
    case PlannedScheme::kSFB:
      return "SFB";
    case PlannedScheme::kRing:
      return "Ring";
    case PlannedScheme::kTree:
      return "Tree";
    case PlannedScheme::kOneBit:
      return "1bit";
  }
  return "?";
}

double PsWorkerFloats(const CommCostQuery& q) {
  ValidateQuery(q);
  return 2.0 * static_cast<double>(q.m) * static_cast<double>(q.n);
}

double PsServerFloats(const CommCostQuery& q) {
  ValidateQuery(q);
  return 2.0 * q.num_workers * static_cast<double>(q.m) * static_cast<double>(q.n) /
         q.num_servers;
}

double PsColocatedFloats(const CommCostQuery& q) {
  ValidateQuery(q);
  return 2.0 * static_cast<double>(q.m) * static_cast<double>(q.n) *
         (q.num_workers + q.num_servers - 2) / q.num_servers;
}

double SfbWorkerFloats(const CommCostQuery& q) {
  ValidateQuery(q);
  return 2.0 * static_cast<double>(q.batch_k) * (q.num_workers - 1) *
         static_cast<double>(q.m + q.n);
}

double AdamServerMaxFloats(const CommCostQuery& q) {
  ValidateQuery(q);
  return static_cast<double>(q.num_workers) * static_cast<double>(q.m) *
             static_cast<double>(q.n) +
         static_cast<double>(q.num_workers) * static_cast<double>(q.batch_k) *
             static_cast<double>(q.m + q.n);
}

double AdamWorkerFloats(const CommCostQuery& q) {
  ValidateQuery(q);
  return static_cast<double>(q.batch_k) * static_cast<double>(q.m + q.n) +
         static_cast<double>(q.m) * static_cast<double>(q.n);
}

double AdamColocatedMaxFloats(const CommCostQuery& q) {
  ValidateQuery(q);
  return static_cast<double>(q.num_workers - 1) *
         (static_cast<double>(q.m) * static_cast<double>(q.n) +
          static_cast<double>(q.batch_k) * static_cast<double>(q.m) +
          static_cast<double>(q.batch_k) * static_cast<double>(q.n));
}

double PsShardedServerFloats(const CommCostQuery& q) {
  ValidateQuery(q);
  return 2.0 * q.num_workers * static_cast<double>(q.m) * static_cast<double>(q.n) /
         (static_cast<double>(q.num_servers) * q.num_shards);
}

double PsShardedColocatedFloats(const CommCostQuery& q) {
  ValidateQuery(q);
  const double endpoints = static_cast<double>(q.num_servers) * q.num_shards;
  return 2.0 * static_cast<double>(q.m) * static_cast<double>(q.n) *
         (q.num_workers + endpoints - 2.0) / endpoints;
}

double RingAllreduceWorkerFloats(const CommCostQuery& q) {
  ValidateQuery(q);
  return RingAllreduceNodeFloats(q.m * q.n, q.num_workers);
}

double TreeAllreduceWorkerFloats(const CommCostQuery& q) {
  ValidateQuery(q);
  return TreeAllreduceMaxNodeFloats(q.m * q.n, q.num_workers);
}

double SchemeWorkerFloats(PlannedScheme scheme, const CommCostQuery& q) {
  switch (scheme) {
    case PlannedScheme::kNone:
      return 0.0;
    case PlannedScheme::kPS:
    case PlannedScheme::kOneBit:
      return PsShardedColocatedFloats(q);  // == PsColocatedFloats at 1 shard
    case PlannedScheme::kSFB:
      return SfbWorkerFloats(q);
    case PlannedScheme::kRing:
      return RingAllreduceWorkerFloats(q);
    case PlannedScheme::kTree:
      return TreeAllreduceWorkerFloats(q);
  }
  return 0.0;
}

bool SfbWins(const CommCostQuery& q) {
  // Algorithm 1 line 7: 2K(P1-1)(M+N) <= 2MN(P1+P2-2)/P2, with the PS side
  // costed as actually sharded (identical to the paper's row at 1 shard).
  return SfbWorkerFloats(q) <= PsShardedColocatedFloats(q);
}

PlannedScheme BestScheme(const LayerSpec& layer, int64_t batch_k, int num_workers,
                         int num_servers) {
  if (layer.type != LayerType::kFC) {
    return PlannedScheme::kPS;  // CONV gradients are indecomposable and sparse
  }
  if (num_workers <= 1) {
    return PlannedScheme::kPS;  // no peers to broadcast to
  }
  CommCostQuery q;
  q.m = layer.fc_m;
  q.n = layer.fc_n;
  q.batch_k = batch_k;
  q.num_workers = num_workers;
  q.num_servers = num_servers;
  return SfbWins(q) ? PlannedScheme::kSFB : PlannedScheme::kPS;
}

const char* GradCompressionName(GradCompression compression) {
  switch (compression) {
    case GradCompression::kNone:
      return "none";
    case GradCompression::kInt8:
      return "int8";
    case GradCompression::kTopK:
      return "topk";
  }
  return "?";
}

double PushBytesPerFloat(GradCompression compression, double topk_density) {
  switch (compression) {
    case GradCompression::kNone:
      return 4.0;
    case GradCompression::kInt8:
      // one byte per element plus a shared fp32 scale per chunk
      return 1.0 + 4.0 / static_cast<double>(simd::kInt8ChunkSize);
    case GradCompression::kTopK:
      CHECK_GT(topk_density, 0.0);
      CHECK_LE(topk_density, 1.0);
      return 8.0 * topk_density;  // (index word, exact value) per selected
  }
  return 4.0;
}

double PullBytesPerFloat(GradCompression compression) {
  return compression == GradCompression::kNone ? 4.0 : 2.0;
}

double SchemeWireBytes(PlannedScheme scheme, GradCompression compression,
                       const CommCostQuery& q, double topk_density) {
  const double floats = SchemeWorkerFloats(scheme, q);
  // Every PS push has a matching pull of the same element count, so the
  // float row splits exactly in half per direction; each half pays its
  // direction's byte cost.
  switch (scheme) {
    case PlannedScheme::kPS:
      return floats / 2.0 * (PushBytesPerFloat(compression, topk_density) +
                             PullBytesPerFloat(compression));
    case PlannedScheme::kOneBit:
      return floats / 2.0 * (0.125 + 0.125);
    default:
      return floats * 4.0;  // collectives and SFB move raw fp32
  }
}

}  // namespace poseidon

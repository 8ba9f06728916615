#include "src/planner/comm_planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/logging.h"
#include "src/common/units.h"
#include "src/transport/message.h"

namespace poseidon {
namespace {

// --------------------------------------------------------------- signature --

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Mix(uint64_t h, uint64_t v) { return SplitMix64(h ^ v); }

uint64_t MixString(uint64_t h, const std::string& s) {
  uint64_t f = 1469598103934665603ULL;
  for (char c : s) {
    f ^= static_cast<unsigned char>(c);
    f *= 1099511628211ULL;
  }
  return Mix(Mix(h, f), s.size());
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------- cost kernel --

/// A layer is stateless when it owns no parameters; nothing moves for it
/// (mirrors the coordinator's total_floats == 0 rule).
bool Stateless(const LayerSpec& layer) { return layer.params <= 0; }

/// Conv layers have no (M, N) factorization: M = params, N = 1 keeps the
/// PS/ring/tree rows, which use only M*N, exact (SFB is FC-only).
CommCostQuery QueryFor(const LayerSpec& layer, const PlanRequest& r, int shards) {
  CommCostQuery q;
  q.m = layer.type == LayerType::kFC ? layer.fc_m : layer.params;
  q.n = layer.type == LayerType::kFC ? layer.fc_n : 1;
  q.batch_k = r.batch_per_worker;
  q.num_workers = r.num_workers;
  q.num_servers = r.num_servers;
  q.num_shards = shards;
  return q;
}

/// Rough per-worker wire-message count for the framing/batching model (not
/// part of the gated payload series; see docs/PLANNER.md).
double MessagesFor(PlannedScheme scheme, const LayerSpec& layer, const PlanRequest& r,
                   int shards) {
  switch (scheme) {
    case PlannedScheme::kNone:
      return 0.0;
    case PlannedScheme::kPS: {
      const int64_t pairs =
          std::max<int64_t>(1, (layer.params * 4 + r.kv_pair_bytes - 1) / r.kv_pair_bytes);
      const int64_t endpoints = static_cast<int64_t>(r.num_servers) * shards;
      return 2.0 * static_cast<double>(std::min(endpoints, pairs));
    }
    case PlannedScheme::kOneBit:
      return 2.0;  // whole-layer push + pull to/from the owner shard
    case PlannedScheme::kSFB:
      return static_cast<double>(std::max(0, r.num_workers - 1));
    case PlannedScheme::kRing:
      return 2.0 * std::max(0, r.num_workers - 1);
    case PlannedScheme::kTree:
      return 3.0;  // send up + one message per child of an internal node
  }
  return 0.0;
}

struct CandidateCost {
  PlannedScheme scheme = PlannedScheme::kPS;
  GradCompression codec = GradCompression::kNone;
  double payload_bytes = 0.0;
  double msgs = 0.0;
  double encode_floats = 0.0;  // elements run through a codec pass per iter
  double cost = 0.0;           // objective value (bytes or seconds)
};

struct CostBasis {
  bool time = false;
  double wire_bytes_per_s = 0.0;  // nic * transport_efficiency
  double latency_s = 0.0;
  double cpu_flops = 1.0;
};

CostBasis BasisFor(const PlanRequest& r) {
  CostBasis basis;
  basis.time = r.joint && r.nic_gbps > 0.0;
  if (basis.time) {
    basis.wire_bytes_per_s = GbpsToBytesPerSec(r.nic_gbps) * r.transport_efficiency;
    basis.latency_s = r.latency_s;
    basis.cpu_flops = r.cpu_flops;
  }
  return basis;
}

double Objective(const CandidateCost& c, const CostBasis& basis) {
  if (!basis.time) {
    return c.payload_bytes;
  }
  // One encode pass before the push plus the matching decode downstream,
  // charged like the simulator's quant_cpu_s row.
  return c.payload_bytes / basis.wire_bytes_per_s + c.msgs * basis.latency_s +
         2.0 * c.encode_floats / basis.cpu_flops;
}

CandidateCost EvalCandidate(PlannedScheme scheme, GradCompression codec,
                            const LayerSpec& layer, const PlanRequest& r, int shards,
                            const CostBasis& basis) {
  CandidateCost c;
  c.scheme = scheme;
  c.codec = codec;
  c.payload_bytes = SchemeWireBytes(scheme, codec, QueryFor(layer, r, shards), r.topk_density);
  if (scheme == PlannedScheme::kOneBit ||
      (scheme == PlannedScheme::kPS && codec != GradCompression::kNone)) {
    c.encode_floats = static_cast<double>(layer.params);
  }
  c.msgs = MessagesFor(scheme, layer, r, shards);
  c.cost = Objective(c, basis);
  return c;
}

/// Wire codecs the PS candidate may use for `layer`, in canonical menu order
/// (raw first; a fixed-codec policy is a mandate, so it yields the single
/// eligible candidate).
std::vector<GradCompression> PsCodecMenu(const LayerSpec& layer, const PlanRequest& r) {
  const bool eligible = layer.params >= r.compression_min_floats;
  switch (r.codec) {
    case PlanCodecPolicy::kNone:
      return {GradCompression::kNone};
    case PlanCodecPolicy::kInt8:
      return {eligible ? GradCompression::kInt8 : GradCompression::kNone};
    case PlanCodecPolicy::kTopK:
      return {eligible ? GradCompression::kTopK : GradCompression::kNone};
    case PlanCodecPolicy::kAuto: {
      std::vector<GradCompression> menu = {GradCompression::kNone};
      if (eligible) {
        menu.push_back(GradCompression::kInt8);
        if (r.topk_density > 0.0) {
          menu.push_back(GradCompression::kTopK);
        }
      }
      return menu;
    }
  }
  return {GradCompression::kNone};
}

/// The layer's candidate menu split into the shard-dependent head (the PS
/// family, whose rows vary with the shard count) and the shard-independent
/// tail (SFB and the collectives) — the dominance pruning: the tail is
/// evaluated once per layer and folded into every shard count's argmin.
struct LayerMenu {
  bool stateless = false;
  std::vector<GradCompression> ps_codecs;  // empty: no PS-family candidate
  bool one_bit = false;                    // PS family is the 1-bit row
  std::vector<PlannedScheme> tail;         // canonical order after PS
};

LayerMenu MenuFor(const LayerSpec& layer, const PlanRequest& r) {
  LayerMenu menu;
  if (Stateless(layer)) {
    menu.stateless = true;
    return menu;
  }
  const bool multi = r.num_workers > 1;
  const bool fc = layer.type == LayerType::kFC;
  if (!multi) {
    // No peers: every policy degenerates to the PS (legacy behaviour).
    menu.ps_codecs = PsCodecMenu(layer, r);
    return menu;
  }
  switch (r.policy) {
    case PlanPolicy::kDense:
      menu.ps_codecs = PsCodecMenu(layer, r);
      break;
    case PlanPolicy::kSfb:
      if (fc) {
        menu.tail = {PlannedScheme::kSFB};
      } else {
        menu.ps_codecs = PsCodecMenu(layer, r);
      }
      break;
    case PlanPolicy::kHybrid:
      menu.ps_codecs = PsCodecMenu(layer, r);
      if (fc) {
        menu.tail = {PlannedScheme::kSFB};
      }
      break;
    case PlanPolicy::kOneBit:
      if (fc) {
        menu.one_bit = true;
        menu.ps_codecs = {GradCompression::kNone};
      } else {
        menu.ps_codecs = PsCodecMenu(layer, r);
      }
      break;
    case PlanPolicy::kRingAllreduce:
      menu.tail = {PlannedScheme::kRing};
      break;
    case PlanPolicy::kTreeAllreduce:
      menu.tail = {PlannedScheme::kTree};
      break;
    case PlanPolicy::kAuto:
      menu.ps_codecs = PsCodecMenu(layer, r);
      if (fc) {
        menu.tail = {PlannedScheme::kSFB, PlannedScheme::kRing, PlannedScheme::kTree};
      } else {
        menu.tail = {PlannedScheme::kRing, PlannedScheme::kTree};
      }
      break;
  }
  return menu;
}

/// The shard-independent tail of `menu`, evaluated once per layer.
std::vector<CandidateCost> TailCosts(const LayerSpec& layer, const PlanRequest& r,
                                     const LayerMenu& menu, const CostBasis& basis) {
  std::vector<CandidateCost> tail;
  for (PlannedScheme scheme : menu.tail) {
    tail.push_back(
        EvalCandidate(scheme, GradCompression::kNone, layer, r, /*shards=*/1, basis));
  }
  return tail;
}

/// Folds the layer's full menu at shard count `shards`, replacing only on
/// strict improvement so ties keep the earlier (paper-preferred) candidate.
/// `tail_costs` are the precomputed shard-independent candidates.
CandidateCost BestForLayer(const LayerSpec& layer, const PlanRequest& r,
                           const LayerMenu& menu,
                           const std::vector<CandidateCost>& tail_costs, int shards,
                           const CostBasis& basis) {
  CandidateCost best;
  bool have = false;
  auto fold = [&](const CandidateCost& c) {
    if (!have || c.cost < best.cost) {
      best = c;
      have = true;
    }
  };
  if (menu.one_bit) {
    fold(EvalCandidate(PlannedScheme::kOneBit, GradCompression::kNone, layer, r, shards,
                       basis));
  } else {
    for (GradCompression codec : menu.ps_codecs) {
      fold(EvalCandidate(PlannedScheme::kPS, codec, layer, r, shards, basis));
    }
  }
  for (const CandidateCost& c : tail_costs) {
    fold(c);
  }
  CHECK(have) << "empty candidate menu for layer " << layer.name;
  return best;
}

// ------------------------------------------------------------- paper mode --

/// Paper mode's per-layer scheme pass at shard count `shards`: the pinned
/// policies, Algorithm 1's BestScheme under kHybrid, and under kAuto the
/// joint fold over the raw rows — PS, SFB for FC layers, ring, tree — on the
/// byte basis.
std::vector<PlannedScheme> PaperSchemes(const PlanRequest& r, int shards,
                                        const CostBasis& basis) {
  const bool multi = r.num_workers > 1;
  PlanRequest raw = r;
  raw.codec = PlanCodecPolicy::kNone;  // the scheme is picked before the codec
  std::vector<PlannedScheme> schemes;
  schemes.reserve(r.layers.size());
  for (const LayerSpec& layer : r.layers) {
    if (Stateless(layer)) {
      schemes.push_back(PlannedScheme::kNone);
      continue;
    }
    if (r.policy == PlanPolicy::kRingAllreduce) {
      schemes.push_back(multi ? PlannedScheme::kRing : PlannedScheme::kPS);
      continue;
    }
    if (r.policy == PlanPolicy::kTreeAllreduce) {
      schemes.push_back(multi ? PlannedScheme::kTree : PlannedScheme::kPS);
      continue;
    }
    if (r.policy == PlanPolicy::kAuto) {
      const LayerMenu menu = MenuFor(layer, raw);
      schemes.push_back(
          BestForLayer(layer, raw, menu, TailCosts(layer, raw, menu, basis), shards, basis)
              .scheme);
      continue;
    }
    if (layer.type != LayerType::kFC) {
      schemes.push_back(PlannedScheme::kPS);
      continue;
    }
    switch (r.policy) {
      case PlanPolicy::kSfb:
        schemes.push_back(PlannedScheme::kSFB);
        break;
      case PlanPolicy::kHybrid:
        schemes.push_back(
            BestScheme(layer, r.batch_per_worker, r.num_workers, r.num_servers));
        break;
      case PlanPolicy::kOneBit:
        schemes.push_back(PlannedScheme::kOneBit);
        break;
      default:
        schemes.push_back(PlannedScheme::kPS);
        break;
    }
  }
  return schemes;
}

/// Paper mode's shard count when it is searched: for every PS layer, the
/// fewest shards in [1, max_shards] minimizing its raw PS row (ties keep
/// fewer shards), maxed over the layers.
int PaperShards(const PlanRequest& r, const std::vector<PlannedScheme>& schemes,
                const CostBasis& basis) {
  int best_s = 1;
  for (size_t l = 0; l < r.layers.size(); ++l) {
    if (schemes[l] != PlannedScheme::kPS) {
      continue;
    }
    int layer_s = 1;
    double layer_cost = 0.0;
    for (int s = 1; s <= r.max_shards; ++s) {
      const double cost =
          EvalCandidate(PlannedScheme::kPS, GradCompression::kNone, r.layers[l], r, s, basis)
              .cost;
      if (s == 1 || cost < layer_cost) {
        layer_s = s;
        layer_cost = cost;
      }
    }
    best_s = std::max(best_s, layer_s);
  }
  return best_s;
}

/// Paper mode's codec for a PS layer: the first cheapest entry of the
/// layer's codec menu by push + pull bytes per element — the PS row's
/// argmin with the row's size factor divided out, so the pick stays defined
/// in a one-worker, one-server world where that factor is zero.
GradCompression PaperCodec(const LayerSpec& layer, const PlanRequest& r) {
  GradCompression best = GradCompression::kNone;
  double best_bytes = 0.0;
  bool have = false;
  for (GradCompression codec : PsCodecMenu(layer, r)) {
    const double bytes =
        PushBytesPerFloat(codec, r.topk_density) + PullBytesPerFloat(codec);
    if (!have || bytes < best_bytes) {
      best = codec;
      best_bytes = bytes;
      have = true;
    }
  }
  return best;
}

// -------------------------------------------------------------- assembly --

/// Fills the plan's framing/batching model and (time basis) the predicted
/// time from the finished per-layer assignments.
void FinishPlan(const PlanRequest& r, const CostBasis& basis, CommPlan* plan) {
  double payload = 0.0;
  double msgs = 0.0;
  double encode_floats = 0.0;
  for (size_t l = 0; l < plan->layers.size(); ++l) {
    const PlanLayerChoice& choice = plan->layers[l];
    payload += choice.predicted_bytes;
    msgs += MessagesFor(choice.scheme, r.layers[l], r, plan->ps_shards);
    if (choice.scheme == PlannedScheme::kOneBit ||
        (choice.scheme == PlannedScheme::kPS &&
         choice.compression != GradCompression::kNone)) {
      encode_floats += static_cast<double>(r.layers[l].params);
    }
  }
  plan->predicted_wire_bytes = payload;

  // Framing model: every wire frame pays kWireFrameBytes; a batched frame
  // pays it once for up to batch_max_messages entries, each entry paying the
  // chunk header instead. Destinations bound the achievable coalescing.
  const double destinations =
      std::max(1, std::max(r.num_workers, r.num_servers) - 1);
  const double frames_batched =
      std::max(destinations, std::ceil(msgs / std::max(1, r.batch_max_messages)));
  const double framing_unbatched = msgs * kWireFrameBytes;
  const double framing_batched =
      frames_batched * kWireFrameBytes + msgs * kWireChunkHeaderBytes;
  if (r.joint && r.allow_batching) {
    plan->batch_egress = framing_batched < framing_unbatched;
  } else {
    plan->batch_egress = r.batch_egress;
  }
  plan->predicted_msgs = plan->batch_egress ? frames_batched : msgs;
  plan->predicted_framing_bytes =
      plan->batch_egress ? framing_batched : framing_unbatched;

  plan->staleness = r.staleness;
  plan->planned_gbps = r.nic_gbps;
  if (basis.time) {
    const double comm_s = payload / basis.wire_bytes_per_s +
                          plan->predicted_msgs * basis.latency_s +
                          2.0 * encode_floats / basis.cpu_flops;
    // An SSP bound of s lets communication overlap the next s iterations, so
    // the steady-state visible tail divides by s + 1 (docs/PLANNER.md).
    plan->predicted_time_s = comm_s / (1.0 + plan->staleness);
  }
}

}  // namespace

const char* PlanPolicyName(PlanPolicy policy) {
  switch (policy) {
    case PlanPolicy::kAuto:
      return "auto";
    case PlanPolicy::kDense:
      return "dense";
    case PlanPolicy::kSfb:
      return "sfb";
    case PlanPolicy::kHybrid:
      return "hybrid";
    case PlanPolicy::kOneBit:
      return "1bit";
    case PlanPolicy::kRingAllreduce:
      return "ring";
    case PlanPolicy::kTreeAllreduce:
      return "tree";
  }
  return "?";
}

const char* PlanCodecPolicyName(PlanCodecPolicy policy) {
  switch (policy) {
    case PlanCodecPolicy::kNone:
      return "none";
    case PlanCodecPolicy::kInt8:
      return "int8";
    case PlanCodecPolicy::kTopK:
      return "topk";
    case PlanCodecPolicy::kAuto:
      return "auto";
  }
  return "?";
}

std::string PlanRequestSignature(const PlanRequest& r) {
  uint64_t layer_digest = 1469598103934665603ULL;
  for (const LayerSpec& layer : r.layers) {
    uint64_t h = 0;
    h = MixString(h, layer.name);
    h = Mix(h, static_cast<uint64_t>(layer.type));
    h = Mix(h, static_cast<uint64_t>(layer.params));
    h = Mix(h, static_cast<uint64_t>(layer.fc_m));
    h = Mix(h, static_cast<uint64_t>(layer.fc_n));
    layer_digest = Mix(layer_digest, h);
  }
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(layer_digest));
  std::string s;
  s += "model=" + r.model_name;
  s += "|layers=" + std::to_string(r.layers.size()) + ":" + digest_hex;
  s += "|w=" + std::to_string(r.num_workers);
  s += "|srv=" + std::to_string(r.num_servers);
  s += "|b=" + std::to_string(r.batch_per_worker);
  s += "|kv=" + std::to_string(r.kv_pair_bytes);
  s += "|bw=" + Fmt(r.nic_gbps);
  s += "|lat=" + Fmt(r.latency_s);
  s += "|eff=" + Fmt(r.transport_efficiency);
  s += "|cpu=" + Fmt(r.cpu_flops);
  s += "|pin=" + std::to_string(r.ps_shards_pinned);
  s += "|maxsh=" + std::to_string(r.max_shards);
  s += "|stale=" + std::to_string(r.staleness);
  s += std::string("|batch=") + (r.batch_egress ? "1" : "0");
  s += std::string("|allowbatch=") + (r.allow_batching ? "1" : "0");
  s += "|bmax=" + std::to_string(r.batch_max_messages);
  s += std::string("|pol=") + PlanPolicyName(r.policy);
  s += std::string("|codec=") + PlanCodecPolicyName(r.codec);
  s += "|dens=" + Fmt(r.topk_density);
  s += "|minfl=" + std::to_string(r.compression_min_floats);
  s += std::string("|joint=") + (r.joint ? "1" : "0");
  return s;
}

CommPlan PlanComm(const PlanRequest& r) {
  CHECK_GT(r.num_workers, 0);
  CHECK_GT(r.num_servers, 0);
  CHECK_GT(r.batch_per_worker, 0);
  CHECK_GE(r.ps_shards_pinned, 0);
  CHECK_GT(r.max_shards, 0);
  CHECK_GE(r.staleness, 0);
  if (r.codec == PlanCodecPolicy::kTopK || r.codec == PlanCodecPolicy::kAuto) {
    CHECK_GT(r.topk_density, 0.0);
    CHECK_LE(r.topk_density, 1.0);
  }
  const CostBasis basis = BasisFor(r);
  CommPlan plan;
  plan.model = r.model_name;
  plan.signature = PlanRequestSignature(r);
  plan.topk_density = r.topk_density;

  const size_t num_layers = r.layers.size();
  if (!r.joint) {
    // Paper mode: the pre-planner sequential decisions, reproduced exactly.
    // A searched shard count costs the scheme pass at one shard first, then
    // re-resolves the schemes at the chosen count.
    const int s0 = r.ps_shards_pinned > 0 ? r.ps_shards_pinned : 1;
    const std::vector<PlannedScheme> schemes0 = PaperSchemes(r, s0, basis);
    const int best_s =
        r.ps_shards_pinned > 0 ? r.ps_shards_pinned : PaperShards(r, schemes0, basis);
    const std::vector<PlannedScheme> schemes =
        best_s == s0 ? schemes0 : PaperSchemes(r, best_s, basis);
    plan.ps_shards = best_s;
    for (size_t l = 0; l < num_layers; ++l) {
      const LayerSpec& layer = r.layers[l];
      PlanLayerChoice choice;
      choice.layer = layer.name;
      choice.scheme = schemes[l];
      if (choice.scheme == PlannedScheme::kPS) {
        choice.compression = PaperCodec(layer, r);
      }
      if (choice.scheme != PlannedScheme::kNone) {
        choice.predicted_bytes =
            EvalCandidate(choice.scheme, choice.compression, layer, r, best_s, basis)
                .payload_bytes;
      }
      plan.layers.push_back(std::move(choice));
    }
  } else {
    // Joint mode: per-layer argmin over the full menu at every candidate
    // shard count. Tail candidates (SFB / collectives) are shard-independent
    // and evaluated once per layer (dominance pruning).
    std::vector<LayerMenu> menus;
    std::vector<std::vector<CandidateCost>> tails(num_layers);
    menus.reserve(num_layers);
    for (size_t l = 0; l < num_layers; ++l) {
      menus.push_back(MenuFor(r.layers[l], r));
      tails[l] = TailCosts(r.layers[l], r, menus[l], basis);
    }
    const int s_lo = r.ps_shards_pinned > 0 ? r.ps_shards_pinned : 1;
    const int s_hi = r.ps_shards_pinned > 0 ? r.ps_shards_pinned : r.max_shards;
    int best_s = s_lo;
    double best_total = 0.0;
    bool have_total = false;
    for (int s = s_lo; s <= s_hi; ++s) {
      double total = 0.0;
      for (size_t l = 0; l < num_layers; ++l) {
        if (menus[l].stateless) {
          continue;
        }
        total += BestForLayer(r.layers[l], r, menus[l], tails[l], s, basis).cost;
      }
      if (!have_total || total < best_total) {  // strict: ties keep fewer shards
        best_total = total;
        best_s = s;
        have_total = true;
      }
    }
    plan.ps_shards = best_s;
    for (size_t l = 0; l < num_layers; ++l) {
      const LayerSpec& layer = r.layers[l];
      PlanLayerChoice choice;
      choice.layer = layer.name;
      if (!menus[l].stateless) {
        const CandidateCost best =
            BestForLayer(layer, r, menus[l], tails[l], best_s, basis);
        choice.scheme = best.scheme;
        choice.compression = best.codec;
        choice.predicted_bytes = best.payload_bytes;
      }
      plan.layers.push_back(std::move(choice));
    }
  }

  FinishPlan(r, basis, &plan);
  plan.hash = plan.ComputeHash();
  return plan;
}

PlanRequest JointAutoRequest(const ModelSpec& model, int num_nodes, double nic_gbps,
                             int max_shards, double topk_density,
                             int64_t compression_min_floats) {
  PlanRequest req;
  req.model_name = model.name;
  req.layers = model.layers;
  req.num_workers = num_nodes;
  req.num_servers = num_nodes;
  req.batch_per_worker = model.default_batch;
  req.nic_gbps = nic_gbps;
  req.max_shards = max_shards;
  req.allow_batching = true;
  req.policy = PlanPolicy::kAuto;
  req.codec = PlanCodecPolicy::kAuto;
  req.topk_density = topk_density;
  req.compression_min_floats = compression_min_floats;
  req.joint = true;
  return req;
}

PlanRequest LayerRequest(const LayerSpec& layer, int64_t batch_k, int num_nodes,
                         PlanPolicy policy) {
  PlanRequest req;
  req.model_name = layer.name;
  req.layers = {layer};
  req.num_workers = num_nodes;
  req.num_servers = num_nodes;
  req.batch_per_worker = static_cast<int>(batch_k);
  req.ps_shards_pinned = 1;
  req.policy = policy;
  return req;
}

PlanRequest PaperDefaultRequest(const ModelSpec& model, int num_nodes, double nic_gbps) {
  PlanRequest req;
  req.model_name = model.name;
  req.layers = model.layers;
  req.num_workers = num_nodes;
  req.num_servers = num_nodes;
  req.batch_per_worker = model.default_batch;
  req.nic_gbps = nic_gbps;
  req.ps_shards_pinned = 1;
  req.policy = PlanPolicy::kHybrid;
  req.codec = PlanCodecPolicy::kNone;
  req.joint = false;
  return req;
}

}  // namespace poseidon

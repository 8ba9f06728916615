#include "src/cluster/protocol_sim.h"

#include "src/transport/bus.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/collective/topology.h"
#include "src/common/logging.h"
#include "src/sim/fabric.h"
#include "src/sim/simulator.h"

namespace poseidon {
namespace {

// Effective label for what a layer's synchronization does in a given system.
enum class WireScheme { kPsDense, kSfb, kAdamSf, kOneBit, kRing, kTree };

const char* WireSchemeName(WireScheme scheme) {
  switch (scheme) {
    case WireScheme::kPsDense:
      return "PS";
    case WireScheme::kSfb:
      return "SFB";
    case WireScheme::kAdamSf:
      return "SF->PS";
    case WireScheme::kOneBit:
      return "1bit";
    case WireScheme::kRing:
      return "Ring";
    case WireScheme::kTree:
      return "Tree";
  }
  return "?";
}

WireScheme WireFromCommScheme(CommScheme scheme) {
  switch (scheme) {
    case CommScheme::kPS:
      return WireScheme::kPsDense;
    case CommScheme::kSFB:
      return WireScheme::kSfb;
    case CommScheme::kRing:
      return WireScheme::kRing;
    case CommScheme::kTree:
      return WireScheme::kTree;
  }
  return WireScheme::kPsDense;
}

WireScheme WireFromPlannedScheme(PlannedScheme scheme) {
  switch (scheme) {
    case PlannedScheme::kNone:
    case PlannedScheme::kPS:
      return WireScheme::kPsDense;
    case PlannedScheme::kSFB:
      return WireScheme::kSfb;
    case PlannedScheme::kOneBit:
      return WireScheme::kOneBit;
    case PlannedScheme::kRing:
      return WireScheme::kRing;
    case PlannedScheme::kTree:
      return WireScheme::kTree;
  }
  return WireScheme::kPsDense;
}

// Static per-layer wire plan, precomputed before the simulation starts
// (HybComm's point: the model and cluster are known upfront, so the best
// scheme is decidable before any byte moves).
struct LayerWire {
  WireScheme scheme = WireScheme::kPsDense;
  // Wire codec of the dense-PS path (docs/COMPRESSION.md): rescales
  // push/pull bytes by the per-direction byte rows and charges the encode /
  // decode CPU passes through quant_cpu_s, like the 1-bit row.
  GradCompression compression = GradCompression::kNone;
  double dense_bytes = 0.0;    // full fp32 gradient/parameter size
  double push_bytes = 0.0;     // per destination server (PS-style schemes)
  double pull_bytes = 0.0;     // per source server
  int owner = 0;               // per-tensor / Adam owner node
  bool sharded = true;         // false: single owner server
  double sf_msg_bytes = 0.0;   // one worker's sufficient factors
  double recon_flops_per_sf = 0.0;
  double quant_cpu_s = 0.0;    // one-bit (de)quantization pass on the CPU
  double apply_cpu_s = 0.0;    // server-side update application per shard
  double local_reduce_s = 0.0; // multi-GPU intra-node aggregation
  // Collective (ring/tree) extensions.
  double collective_add_s = 0.0;  // one incoming-buffer reduction on the CPU
  double local_apply_s = 0.0;     // replicated SGD step on the whole layer
};

class ProtocolSim {
 public:
  ProtocolSim(const ModelSpec& model, const SystemConfig& system, const ClusterSpec& cluster,
              Engine engine, int batch, const SimOptions& options)
      : model_(model),
        system_(system),
        cluster_(cluster),
        engine_(engine),
        batch_(batch),
        options_(options),
        num_nodes_(cluster.num_nodes),
        num_layers_(model.num_layers()),
        total_iters_(options.warmup_iters + options.measure_iters + 1),
        timings_(MakeComputeTimings(model, engine, batch)) {
    CHECK_GT(num_nodes_, 0);
    CHECK_GT(num_layers_, 0);
    CHECK_GT(system.shards_per_server, 0);
    CHECK_GE(system.staleness, 0);
    CHECK_GE(system.loss_rate, 0.0);
    CHECK_LT(system.loss_rate, 1.0) << "a link that loses everything never delivers";
    FabricConfig fabric_config;
    const double wire_rate = cluster.nic_bytes_per_sec() * system.transport_efficiency;
    fabric_config.egress_bytes_per_sec = wire_rate;
    fabric_config.ingress_bytes_per_sec = wire_rate;
    fabric_config.latency_s = cluster.latency_s;
    fabric_ = std::make_unique<NetworkFabric>(&sim_, num_nodes_, fabric_config);
    BuildWirePlan();
    InitState();
  }

  SimResult Run() {
    for (int n = 0; n < num_nodes_; ++n) {
      TryRunOps(n);
    }
    sim_.Run();
    return Collect();
  }

 private:
  // ---------------------------------------------------------------- setup --
  void BuildWirePlan() {
    wires_.resize(num_layers_);
    const int p = num_nodes_;
    for (int l = 0; l < num_layers_; ++l) {
      const LayerSpec& layer = model_.layers[l];
      LayerWire& wire = wires_[l];
      wire.dense_bytes = static_cast<double>(layer.param_bytes());
      wire.owner = l % p;
      wire.apply_cpu_s =
          2.0 * static_cast<double>(layer.params) / p / cluster_.cpu_flops;

      // Pick the scheme for this layer under the configured system. The
      // collective modes apply to every parameter layer; the paper's FC
      // schemes only to FC layers.
      wire.scheme = WireScheme::kPsDense;
      GradCompression compression = GradCompression::kNone;
      // A CommPlan overrides the policy switches: the planner already made
      // the per-layer call, this simulator just prices it. Layers the plan
      // does not name (or marks stateless) fall through to the policies.
      bool planned = false;
      if (system_.plan != nullptr) {
        const PlanLayerChoice* choice = system_.plan->Find(layer.name);
        if (choice != nullptr && choice->scheme != PlannedScheme::kNone) {
          planned = true;
          if (p > 1) {
            wire.scheme = WireFromPlannedScheme(choice->scheme);
            compression = choice->compression;
          }
          // p == 1 degenerates to the raw dense PS, like the runtime.
        }
      }
      if (!planned && p > 1) {
        switch (system_.fc_scheme) {
          case FcScheme::kRing:
            wire.scheme = WireScheme::kRing;
            break;
          case FcScheme::kTree:
            wire.scheme = WireScheme::kTree;
            break;
          case FcScheme::kHybridCollective:
            if (system_.auto_ps_compression) {
              // Compression joins the scheme menu: the chooser minimizes
              // wire bytes over (PS, codec) and the raw-float alternatives.
              const SchemeChoice choice = BestSchemeExtendedCompressed(
                  layer, batch_, p, p, system_.shards_per_server,
                  system_.topk_density);
              wire.scheme = WireFromCommScheme(choice.scheme);
              compression = choice.compression;
            } else {
              wire.scheme = WireFromCommScheme(BestSchemeExtended(
                  layer, batch_, p, p, system_.shards_per_server));
            }
            break;
          case FcScheme::kDense:
            break;
          case FcScheme::kSfb:
            if (layer.type == LayerType::kFC) {
              wire.scheme = WireScheme::kSfb;
            }
            break;
          case FcScheme::kAdam:
            if (layer.type == LayerType::kFC) {
              wire.scheme = WireScheme::kAdamSf;
            }
            break;
          case FcScheme::kOneBit:
            if (layer.type == LayerType::kFC) {
              wire.scheme = WireScheme::kOneBit;
            }
            break;
          case FcScheme::kHybrid:
            if (layer.type == LayerType::kFC &&
                BestScheme(layer, batch_, p, p) == CommScheme::kSFB) {
              wire.scheme = WireScheme::kSfb;
            }
            break;
        }
      }

      // Fixed-policy compression of the dense-PS path (mirrors the planner's
      // paper-mode codec pass): every PS layer clearing the size gate runs the
      // configured codec, or its per-layer BestCompression pick under auto.
      // The hybrid-collective chooser above resolved it jointly with the
      // scheme instead.
      if (!planned && p > 1 && wire.scheme == WireScheme::kPsDense &&
          system_.fc_scheme != FcScheme::kHybridCollective) {
        if (system_.auto_ps_compression) {
          compression = BestCompression(layer.params, system_.topk_density,
                                        system_.compression_min_floats);
        } else if (layer.params >= system_.compression_min_floats) {
          compression = system_.ps_compression;
        }
      }

      const int64_t m = layer.fc_m;
      const int64_t n = layer.fc_n;
      const int64_t k_eff = static_cast<int64_t>(batch_) * cluster_.gpus_per_node;
      switch (wire.scheme) {
        case WireScheme::kPsDense: {
          wire.sharded = system_.sharding == ShardingMode::kKvPairs;
          wire.compression = compression;
          // Per-direction byte rows (docs/COST_MODEL.md): the raw fp32 base
          // rescaled by push (quantized / sparse frames) and pull (binary16
          // round-to-nearest replies) bytes per float.
          const double base = wire.sharded ? wire.dense_bytes / p : wire.dense_bytes;
          wire.push_bytes =
              base * PushBytesPerFloat(compression, system_.topk_density) / 4.0;
          wire.pull_bytes = base * PullBytesPerFloat(compression) / 4.0;
          if (wire.sharded) {
            // Key-range shards apply their slices on independent threads, so
            // the per-server apply latency divides by the shard count; the
            // bytes on the wire do not change.
            wire.apply_cpu_s /= system_.shards_per_server;
          }
          if (compression != GradCompression::kNone) {
            // One encode pass over the gradient before each push, and the
            // matching decode passes downstream — charged on the same aux
            // engine as the 1-bit row's quantizer.
            wire.quant_cpu_s =
                2.0 * static_cast<double>(layer.params) / cluster_.cpu_flops;
          }
          break;
        }
        case WireScheme::kSfb:
          wire.sf_msg_bytes = static_cast<double>(k_eff) * static_cast<double>(m + n) * 4.0;
          wire.recon_flops_per_sf = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                                    static_cast<double>(k_eff);
          break;
        case WireScheme::kAdamSf:
          wire.sharded = false;
          wire.sf_msg_bytes = static_cast<double>(k_eff) * static_cast<double>(m + n) * 4.0;
          wire.recon_flops_per_sf = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                                    static_cast<double>(k_eff);
          wire.pull_bytes = wire.dense_bytes;
          break;
        case WireScheme::kOneBit: {
          // 1 bit per element plus two fp32 levels per column.
          const double compressed =
              static_cast<double>(m) * static_cast<double>(n) / 8.0 +
              2.0 * static_cast<double>(n) * 4.0;
          wire.sharded = system_.sharding == ShardingMode::kKvPairs;
          wire.push_bytes = wire.sharded ? compressed / p : compressed;
          wire.pull_bytes = wire.push_bytes;
          // No shards_per_server division: the runtime pins a 1-bit layer
          // wholly to one owner shard endpoint (its encoding is not
          // sliceable), so the per-layer apply stays serialized.
          wire.quant_cpu_s =
              2.0 * static_cast<double>(m) * static_cast<double>(n) / cluster_.cpu_flops;
          break;
        }
        case WireScheme::kRing:
          // One ring hop moves a 1/p chunk; each of the p-1 reduce-scatter
          // receives folds one chunk on the CPU, and the final averaged
          // gradient is applied locally on every node (replicated updates).
          wire.push_bytes = wire.dense_bytes / p;
          wire.collective_add_s =
              static_cast<double>(layer.params) / p / cluster_.cpu_flops;
          wire.local_apply_s = 2.0 * static_cast<double>(layer.params) / cluster_.cpu_flops;
          break;
        case WireScheme::kTree:
          // Reduce and broadcast messages both carry the dense tensor; each
          // child contribution is one full-tensor add at its parent.
          wire.push_bytes = wire.dense_bytes;
          wire.collective_add_s = static_cast<double>(layer.params) / cluster_.cpu_flops;
          wire.local_apply_s = 2.0 * static_cast<double>(layer.params) / cluster_.cpu_flops;
          break;
      }

      if (cluster_.gpus_per_node > 1) {
        // Leader-GPU aggregation over device-to-device copies (§5.1).
        wire.local_reduce_s = static_cast<double>(cluster_.gpus_per_node - 1) *
                              wire.dense_bytes / cluster_.d2d_bytes_per_sec;
      }
    }
  }

  struct ServerShardState {
    int pushes = 0;
    bool applied = false;
    std::vector<bool> requested;  // TF fetch mode: per worker
    std::vector<bool> sent;       // per worker
  };

  struct LayerSyncState {
    // Indexed by server node for sharded schemes; only [owner] used
    // otherwise.
    std::vector<ServerShardState> shards;
    std::vector<int> pull_parts;  // per worker: received server parts
    std::vector<int> sf_arrived;  // per worker: peer SF messages landed
    std::vector<bool> done;       // per worker
    // Collective state, per node. A node joins its collective once its d2h
    // staging finished (collective_started); ring hops arriving earlier are
    // buffered and drained then (single-predecessor FIFO keeps them in step
    // order).
    std::vector<bool> collective_started;
    std::vector<int> ring_buffered;   // arrived, not yet processed
    std::vector<int> ring_next_step;  // next hop step to process
    std::vector<int> tree_arrived;    // children subtree sums landed
  };

  struct NodeState {
    int iter = 0;
    int op = 0;              // 0..2L-1 within the iteration
    bool gpu_idle = true;    // true when not executing and not scheduled
    bool iter_marked = false;  // OnIterationStart already ran for `iter`
    bool finished = false;   // reached the final (unexecuted) iteration
    double gpu_busy = 0.0;   // cumulative compute seconds
    double copy_free_at = 0.0;
    double aux_free_at = 0.0;
    std::vector<int> synced_through;  // per layer: last iter fully synced
    int received_layers = 0;          // overlap-none: layers pulled this iter
  };

  void InitState() {
    nodes_.assign(num_nodes_, NodeState{});
    for (auto& node : nodes_) {
      node.synced_through.assign(num_layers_, -1);
    }
    sync_.resize(total_iters_);
    for (auto& per_iter : sync_) {
      per_iter.resize(num_layers_);
      for (auto& layer_state : per_iter) {
        layer_state.shards.assign(num_nodes_, ServerShardState{});
        for (auto& shard : layer_state.shards) {
          shard.requested.assign(num_nodes_, false);
          shard.sent.assign(num_nodes_, false);
        }
        layer_state.pull_parts.assign(num_nodes_, 0);
        layer_state.sf_arrived.assign(num_nodes_, 0);
        layer_state.done.assign(num_nodes_, false);
        layer_state.collective_started.assign(num_nodes_, false);
        layer_state.ring_buffered.assign(num_nodes_, 0);
        layer_state.ring_next_step.assign(num_nodes_, 0);
        layer_state.tree_arrived.assign(num_nodes_, 0);
      }
    }
    iter_start_.assign(total_iters_, -1.0);
    wire_msgs_.assign(num_nodes_, 0);
    logical_msgs_.assign(num_nodes_, 0);
    node_busy_at_begin_.assign(num_nodes_, 0.0);
    node_busy_at_end_.assign(num_nodes_, 0.0);
  }

  // ------------------------------------------------------------- op engine --
  int ForwardLayerOf(int op) const { return op; }
  int BackwardLayerOf(int op) const { return 2 * num_layers_ - 1 - op; }
  bool IsForward(int op) const { return op < num_layers_; }

  void TryRunOps(int n) {
    NodeState& node = nodes_[n];
    if (!node.gpu_idle || node.finished) {
      return;
    }
    const int op = node.op;
    double duration = 0.0;
    if (IsForward(op)) {
      const int layer = ForwardLayerOf(op);
      // BSP blocks until the previous iteration's sync landed; SSP tolerates
      // a bounded clock gap (the worker reads values at most `staleness`
      // iterations behind its own clock).
      if (node.iter > 0 && node.synced_through[layer] < node.iter - 1 - system_.staleness) {
        return;  // blocked on this layer's synchronization; stall
      }
      if (op == 0 && !node.iter_marked) {
        // The iteration's compute is actually beginning now.
        node.iter_marked = true;
        OnIterationStart(n);
        if (node.finished) {
          return;
        }
      }
      duration = timings_.layers[layer].fwd_s;
    } else {
      duration = timings_.layers[BackwardLayerOf(op)].bwd_s;
    }
    if (n == cluster_.straggler_node) {
      duration *= cluster_.straggler_slowdown;
    }
    node.gpu_idle = false;
    node.gpu_busy += duration;
    sim_.Schedule(duration, [this, n] { OnOpComplete(n); });
  }

  void OnIterationStart(int n) {
    NodeState& node = nodes_[n];
    if (n == 0) {
      CHECK_LT(node.iter, total_iters_);
      iter_start_[node.iter] = sim_.Now();
      // Frame groups of long-finished iterations can never match again
      // (keys embed the iteration); prune them so the map stays bounded.
      const int64_t done_iter =
          static_cast<int64_t>(node.iter) - system_.staleness - 2;
      if (system_.batch_egress && done_iter > 0) {
        const int64_t cutoff =
            done_iter * 4096 * num_nodes_ * num_nodes_;
        for (auto it = frame_groups_.begin(); it != frame_groups_.end();) {
          if (it->first < cutoff) {
            it = frame_groups_.erase(it);
          } else {
            ++it;
          }
        }
      }
      if (node.iter == options_.warmup_iters) {
        SnapshotTraffic(&traffic_begin_);
        for (int i = 0; i < num_nodes_; ++i) {
          node_busy_at_begin_[i] = nodes_[i].gpu_busy;
        }
        window_begin_ = sim_.Now();
      }
      if (node.iter == options_.warmup_iters + options_.measure_iters) {
        SnapshotTraffic(&traffic_end_);
        for (int i = 0; i < num_nodes_; ++i) {
          node_busy_at_end_[i] = nodes_[i].gpu_busy;
        }
        window_end_ = sim_.Now();
      }
    }
    if (node.iter == total_iters_ - 1) {
      node.finished = true;  // final iteration exists only to timestamp
    }
  }

  void OnOpComplete(int n) {
    NodeState& node = nodes_[n];
    node.gpu_idle = true;
    const int op = node.op;
    ++node.op;
    if (!IsForward(op)) {
      const int layer = BackwardLayerOf(op);
      if (system_.overlap != OverlapMode::kNone) {
        LaunchLayerSync(n, layer, node.iter);
      }
      if (node.op == 2 * num_layers_) {
        OnBackwardDone(n);
        return;
      }
    }
    TryRunOps(n);
  }

  void OnBackwardDone(int n) {
    NodeState& node = nodes_[n];
    const int iter = node.iter;
    node.op = 0;
    ++node.iter;
    node.iter_marked = false;
    node.received_layers = 0;

    if (system_.overlap == OverlapMode::kNone) {
      // Vanilla PS: one blocking DRAM<->GPU staging pass, then synchronize
      // every layer. The GPU sits idle throughout (stall time).
      double d2h_total = 0.0;
      for (const auto& wire : wires_) {
        d2h_total += DeviceCopyBytes(wire) / cluster_.pcie_bytes_per_sec;
      }
      sim_.Schedule(d2h_total, [this, n, iter] {
        for (int l = 0; l < num_layers_; ++l) {
          StartSend(n, l, iter);
        }
      });
      return;
    }

    if (system_.overlap == OverlapMode::kTfFetch) {
      // TensorFlow issues parameter fetches only at the iteration boundary:
      // send pull requests for every layer now.
      for (int l = 0; l < num_layers_; ++l) {
        if (wires_[l].scheme != WireScheme::kPsDense &&
            wires_[l].scheme != WireScheme::kOneBit) {
          continue;
        }
        SendPullRequests(n, l, iter);
      }
    }
    TryRunOps(n);
  }

  // ------------------------------------------------------- sync pipelines --
  double DeviceCopyBytes(const LayerWire& wire) const {
    switch (wire.scheme) {
      case WireScheme::kPsDense:
      case WireScheme::kOneBit:
      case WireScheme::kRing:
      case WireScheme::kTree:
        return wire.dense_bytes;
      case WireScheme::kSfb:
      case WireScheme::kAdamSf:
        return wire.sf_msg_bytes;
    }
    return 0.0;
  }

  // Reserves the node's copy engine and invokes `done` when the transfer
  // completes. Models CUDA async memcpy on a dedicated engine.
  void CopyEngine(int n, double bytes, std::function<void()> done) {
    NodeState& node = nodes_[n];
    const double start = std::max(node.copy_free_at, sim_.Now());
    const double finish = start + bytes / cluster_.pcie_bytes_per_sec;
    node.copy_free_at = finish;
    sim_.ScheduleAt(finish, std::move(done));
  }

  // Reserves the node's CPU worker (update application, quantization).
  void AuxEngine(int n, double seconds, std::function<void()> done) {
    NodeState& node = nodes_[n];
    const double start = std::max(node.aux_free_at, sim_.Now());
    const double finish = start + seconds;
    node.aux_free_at = finish;
    sim_.ScheduleAt(finish, std::move(done));
  }

  // All modeled wire traffic funnels through here so framing overhead and
  // message counts mirror the real transport (src/transport/message.h):
  // every message pays kWireFrameBytes, unless egress batching is on, in
  // which case same-(src, dst, iter) messages share one frame and pay only
  // the per-entry header after the first.
  // `frame_tag` separates sends that can never share a frame in the real
  // batcher because they are causally ordered (e.g. successive ring hops:
  // hop s+1 is only produced after hop s was received, so only same-step
  // hops of different layers coalesce). Frames are cut by the same
  // message-count and byte thresholds as the real batcher (its defaults),
  // so large layers that overflow max_batch_bytes get no modeled merging
  // the transport could not deliver.
  void WireSend(int src, int dst, double payload_bytes, int iter,
                std::function<void()> done, int frame_tag = 0) {
    if (src == dst) {
      // Loopback: the real bus bypasses the NIC for local traffic and
      // excludes it from framing and message accounting; mirror that.
      fabric_->Send(src, dst, payload_bytes, std::move(done));
      return;
    }
    double framed = payload_bytes;
    if (system_.batch_egress) {
      static const EgressBatchOptions kModeledBatch;  // the real defaults
      const int64_t key =
          ((static_cast<int64_t>(iter) * 4096 + frame_tag) * num_nodes_ + src) *
              num_nodes_ +
          dst;
      FrameGroup& group = frame_groups_[key];
      framed += static_cast<double>(kBatchEntryHeaderBytes);
      if (group.entries == 0) {
        // First entry of a (possibly continuation) frame: pay the frame
        // header, count one wire message.
        framed += static_cast<double>(kWireFrameBytes);
        ++wire_msgs_[static_cast<size_t>(src)];
      }
      ++group.entries;
      group.bytes += static_cast<double>(kBatchEntryHeaderBytes) + payload_bytes;
      if (group.entries >= kModeledBatch.max_batch_messages ||
          group.bytes >= static_cast<double>(kModeledBatch.max_batch_bytes)) {
        group = FrameGroup{};  // frame cut; the next send opens a new one
      }
    } else {
      framed += static_cast<double>(kWireFrameBytes);
      ++wire_msgs_[static_cast<size_t>(src)];
    }
    ++logical_msgs_[static_cast<size_t>(src)];
    if (system_.loss_rate > 0.0) {
      // Reliable link layer over a lossy wire, in expectation: the message
      // is transmitted 1/(1-p) times (bytes inflate) and arrives late by the
      // expected retransmit backlog p/(1-p) * RTO. Deterministic, so the
      // simulation stays bit-reproducible.
      const double p = system_.loss_rate;
      framed /= (1.0 - p);
      const double retx_delay_s = p / (1.0 - p) * system_.retransmit_timeout_s;
      fabric_->Send(src, dst, framed, [this, retx_delay_s, done = std::move(done)] {
        sim_.Schedule(retx_delay_s, done);
      });
      return;
    }
    fabric_->Send(src, dst, framed, std::move(done));
  }

  void LaunchLayerSync(int n, int layer, int iter) {
    const LayerWire& wire = wires_[layer];
    double pre = wire.local_reduce_s;
    const double d2h = DeviceCopyBytes(wire);
    // The copy engine runs the local reduce then the host transfer.
    NodeState& node = nodes_[n];
    const double start = std::max(node.copy_free_at, sim_.Now());
    const double finish = start + pre + d2h / cluster_.pcie_bytes_per_sec;
    node.copy_free_at = finish;
    sim_.ScheduleAt(finish, [this, n, layer, iter] {
      // Quantized schemes (1-bit, and the compressed dense-PS codecs) pay
      // the encode pass on the CPU before any byte moves.
      if (wires_[layer].quant_cpu_s > 0.0) {
        AuxEngine(n, wires_[layer].quant_cpu_s, [this, n, layer, iter] {
          StartSend(n, layer, iter);
        });
      } else {
        StartSend(n, layer, iter);
      }
    });
  }

  void StartSend(int n, int layer, int iter) {
    const LayerWire& wire = wires_[layer];
    switch (wire.scheme) {
      case WireScheme::kPsDense:
      case WireScheme::kOneBit:
        if (wire.sharded) {
          for (int s = 0; s < num_nodes_; ++s) {
            WireSend(n, s, wire.push_bytes, iter,
                     [this, layer, iter, s] { OnPushArrived(layer, iter, s); });
          }
        } else {
          WireSend(n, wire.owner, wire.push_bytes, iter,
                   [this, layer, iter, owner = wire.owner] {
                     OnPushArrived(layer, iter, owner);
                   });
        }
        break;
      case WireScheme::kSfb:
        for (int peer = 0; peer < num_nodes_; ++peer) {
          if (peer == n) {
            OnSfArrived(peer, layer, iter, /*local=*/true);
            continue;
          }
          WireSend(n, peer, wire.sf_msg_bytes, iter, [this, peer, layer, iter] {
            OnSfArrived(peer, layer, iter, /*local=*/false);
          });
        }
        break;
      case WireScheme::kAdamSf:
        WireSend(n, wire.owner, wire.sf_msg_bytes, iter,
                 [this, layer, iter, owner = wire.owner] {
                   OnPushArrived(layer, iter, owner);
                 });
        break;
      case WireScheme::kRing: {
        // The node's staged gradient exists now: join the ring by sending
        // hop 0 downstream, then drain any hops that arrived early.
        LayerSyncState& state = sync_[iter][layer];
        state.collective_started[n] = true;
        WireSend(
            n, RingNext(n, num_nodes_), wire.push_bytes, iter,
            [this, layer, iter, next = RingNext(n, num_nodes_)] {
              OnRingHopArrived(layer, iter, next);
            },
            /*frame_tag=*/1);
        DrainRingHops(layer, iter, n);
        break;
      }
      case WireScheme::kTree: {
        LayerSyncState& state = sync_[iter][layer];
        state.collective_started[n] = true;
        MaybeTreeReduceDone(layer, iter, n);
        break;
      }
    }
  }

  // ------------------------------------------- collective sync pipelines --
  // Ring allreduce: 2(P-1) pipelined hops of a 1/P chunk around the ring.
  // Receiving hop s triggers the node's hop s+1 send; the first P-1 hops
  // fold the incoming chunk on the CPU (reduce-scatter), the rest only relay
  // (all-gather). The final hop completes the node's buffer.
  void OnRingHopArrived(int layer, int iter, int node) {
    LayerSyncState& state = sync_[iter][layer];
    ++state.ring_buffered[node];
    DrainRingHops(layer, iter, node);
  }

  void DrainRingHops(int layer, int iter, int node) {
    LayerSyncState& state = sync_[iter][layer];
    if (!state.collective_started[node]) {
      return;  // gradients not staged yet; hops stay buffered
    }
    while (state.ring_buffered[node] > 0) {
      --state.ring_buffered[node];
      HandleRingHop(layer, iter, node, state.ring_next_step[node]++);
    }
  }

  void HandleRingHop(int layer, int iter, int node, int step) {
    const LayerWire& wire = wires_[layer];
    const int last_step = 2 * num_nodes_ - 3;
    auto forward = [this, layer, iter, node, step, last_step] {
      if (step < last_step) {
        WireSend(
            node, RingNext(node, num_nodes_), wires_[layer].push_bytes, iter,
            [this, layer, iter, next = RingNext(node, num_nodes_)] {
              OnRingHopArrived(layer, iter, next);
            },
            /*frame_tag=*/2 + step);
      } else {
        CompleteCollective(layer, iter, node);
      }
    };
    if (step < num_nodes_ - 1) {
      AuxEngine(node, wire.collective_add_s, forward);  // reduce-scatter fold
    } else {
      forward();  // all-gather relay
    }
  }

  // Binary-tree reduce-broadcast: subtree sums flow to the root, which
  // broadcasts the aggregate back down. A node reduces once its own staged
  // gradient and all children's sums are present.
  void OnTreeReduceArrived(int layer, int iter, int node) {
    LayerSyncState& state = sync_[iter][layer];
    ++state.tree_arrived[node];
    MaybeTreeReduceDone(layer, iter, node);
  }

  void MaybeTreeReduceDone(int layer, int iter, int node) {
    LayerSyncState& state = sync_[iter][layer];
    const int num_children = static_cast<int>(TreeChildren(node, num_nodes_).size());
    if (!state.collective_started[node] || state.tree_arrived[node] != num_children) {
      return;
    }
    const LayerWire& wire = wires_[layer];
    const double add_s = num_children * wire.collective_add_s;
    AuxEngine(node, add_s, [this, layer, iter, node] {
      if (node == 0) {
        OnTreeBroadcastArrived(layer, iter, 0);  // root holds the global sum
      } else {
        WireSend(node, TreeParent(node), wires_[layer].push_bytes, iter,
                 [this, layer, iter, parent = TreeParent(node)] {
                   OnTreeReduceArrived(layer, iter, parent);
                 });
      }
    });
  }

  void OnTreeBroadcastArrived(int layer, int iter, int node) {
    for (int child : TreeChildren(node, num_nodes_)) {
      WireSend(node, child, wires_[layer].push_bytes, iter, [this, layer, iter, child] {
        OnTreeBroadcastArrived(layer, iter, child);
      });
    }
    CompleteCollective(layer, iter, node);
  }

  // The node holds the full aggregate: replicated SGD apply on the CPU, then
  // stage the fresh parameters back into GPU memory.
  void CompleteCollective(int layer, int iter, int node) {
    AuxEngine(node, wires_[layer].local_apply_s, [this, layer, iter, node] {
      if (system_.overlap == OverlapMode::kNone) {
        OnLayerReceivedNoOverlap(layer, iter, node);
        return;
      }
      CopyEngine(node, wires_[layer].dense_bytes,
                 [this, layer, iter, node] { FinishSync(layer, iter, node); });
    });
  }

  // BSP quorum: all workers, or all-but-one under the drop-straggler policy.
  int PushQuorum() const {
    return (system_.drop_stragglers && num_nodes_ > 1) ? num_nodes_ - 1 : num_nodes_;
  }

  // A push (dense shard, compressed shard or SF set) arrived at server `s`.
  void OnPushArrived(int layer, int iter, int s) {
    LayerSyncState& state = sync_[iter][layer];
    ServerShardState& shard = state.shards[s];
    ++shard.pushes;
    if (shard.pushes != PushQuorum()) {
      return;  // either still waiting, or a dropped straggler arriving late
    }
    // All workers contributed: apply the update, then make the shard
    // available (bulk synchronous consistency, §4.1 "Managing Consistency").
    const LayerWire& wire = wires_[layer];
    double apply_s = wire.apply_cpu_s;
    if (wire.quant_cpu_s > 0.0) {
      // Dequantize P inputs + requantize the replies. For a sharded
      // compressed layer each of the P shards decodes P slices of 1/P of the
      // layer and re-encodes P reply slices, which sums to the same two
      // whole-layer passes the unsharded 1-bit row charges.
      apply_s += wire.quant_cpu_s * 2.0;
    }
    if (wire.scheme == WireScheme::kAdamSf) {
      // Reconstruct P workers' SF outer products on the server.
      apply_s += num_nodes_ * wire.recon_flops_per_sf / cluster_.recon_flops;
    }
    AuxEngine(s, apply_s, [this, layer, iter, s] { OnShardReady(layer, iter, s); });
  }

  void OnShardReady(int layer, int iter, int s) {
    LayerSyncState& state = sync_[iter][layer];
    ServerShardState& shard = state.shards[s];
    shard.applied = true;
    for (int w = 0; w < num_nodes_; ++w) {
      const bool eager = system_.overlap != OverlapMode::kTfFetch;
      if (eager || shard.requested[w]) {
        SendPull(layer, iter, s, w);
      }
    }
  }

  void SendPullRequests(int n, int layer, int iter) {
    const LayerWire& wire = wires_[layer];
    if (wire.sharded) {
      for (int s = 0; s < num_nodes_; ++s) {
        WireSend(
            n, s, 0.0, iter,
            [this, layer, iter, s, n] { OnPullRequest(layer, iter, s, n); },
            /*frame_tag=*/4000);
      }
    } else {
      WireSend(
          n, wire.owner, 0.0, iter,
          [this, layer, iter, owner = wire.owner, n] {
            OnPullRequest(layer, iter, owner, n);
          },
          /*frame_tag=*/4000);
    }
  }

  void OnPullRequest(int layer, int iter, int s, int w) {
    LayerSyncState& state = sync_[iter][layer];
    ServerShardState& shard = state.shards[s];
    shard.requested[w] = true;
    if (shard.applied) {
      SendPull(layer, iter, s, w);
    }
  }

  void SendPull(int layer, int iter, int s, int w) {
    LayerSyncState& state = sync_[iter][layer];
    ServerShardState& shard = state.shards[s];
    if (shard.sent[w]) {
      return;
    }
    shard.sent[w] = true;
    WireSend(s, w, wires_[layer].pull_bytes, iter,
             [this, layer, iter, w] { OnPullArrived(layer, iter, w); });
  }

  void OnPullArrived(int layer, int iter, int w) {
    LayerSyncState& state = sync_[iter][layer];
    const LayerWire& wire = wires_[layer];
    const int parts_needed = wire.sharded ? num_nodes_ : 1;
    if (++state.pull_parts[w] < parts_needed) {
      return;
    }
    // Whole layer received: optional CPU dequantization, then stage back
    // into GPU memory.
    auto stage_in = [this, layer, iter, w] {
      if (system_.overlap == OverlapMode::kNone) {
        OnLayerReceivedNoOverlap(layer, iter, w);
        return;
      }
      CopyEngine(w, wires_[layer].dense_bytes,
                 [this, layer, iter, w] { FinishSync(layer, iter, w); });
    };
    if (wire.quant_cpu_s > 0.0) {
      // Dequantize the reply (1-bit levels, or the binary16 frames of the
      // compressed PS codecs) before staging back to the GPU.
      AuxEngine(w, wire.quant_cpu_s, stage_in);
    } else {
      stage_in();
    }
  }

  void OnSfArrived(int peer, int layer, int iter, bool local) {
    const LayerWire& wire = wires_[layer];
    auto count = [this, peer, layer, iter] {
      LayerSyncState& state = sync_[iter][layer];
      if (++state.sf_arrived[peer] != PushQuorum()) {
        return;
      }
      // All peers' factors present: reconstruct (P-1) outer products on
      // spare GPU streams, then the layer is synchronized.
      const double recon_s =
          (num_nodes_ - 1) * wires_[layer].recon_flops_per_sf / cluster_.recon_flops;
      sim_.Schedule(recon_s, [this, layer, iter, peer] { FinishSync(layer, iter, peer); });
    };
    if (local) {
      count();
    } else {
      CopyEngine(peer, wire.sf_msg_bytes, count);  // stage peer SFs to GPU
    }
  }

  // Overlap-none: layers complete individually, but the node re-stages
  // everything in one blocking host->GPU pass at the end.
  void OnLayerReceivedNoOverlap(int /*layer*/, int iter, int w) {
    NodeState& node = nodes_[w];
    ++node.received_layers;
    if (node.received_layers < num_layers_) {
      return;
    }
    double h2d_total = 0.0;
    for (const auto& wire : wires_) {
      h2d_total += wire.dense_bytes / cluster_.pcie_bytes_per_sec;
    }
    sim_.Schedule(h2d_total, [this, iter, w] {
      for (int l = 0; l < num_layers_; ++l) {
        FinishSync(l, iter, w);
      }
    });
  }

  void FinishSync(int layer, int iter, int w) {
    LayerSyncState& state = sync_[iter][layer];
    if (state.done[w]) {
      return;
    }
    state.done[w] = true;
    NodeState& node = nodes_[w];
    node.synced_through[layer] = std::max(node.synced_through[layer], iter);
    TryRunOps(w);
  }

  // -------------------------------------------------------------- metrics --
  struct TrafficSnapshot {
    std::vector<double> tx;
    std::vector<double> rx;
    std::vector<int64_t> wire_msgs;
    std::vector<int64_t> logical_msgs;
  };

  void SnapshotTraffic(TrafficSnapshot* snap) {
    snap->tx = fabric_->stats().tx_bytes;
    snap->rx = fabric_->stats().rx_bytes;
    snap->wire_msgs = wire_msgs_;
    snap->logical_msgs = logical_msgs_;
  }

  SimResult Collect() {
    SimResult result;
    result.system = system_.name;
    result.model = model_.name;
    result.num_nodes = num_nodes_;
    result.nic_gbps = cluster_.nic_gbps;
    result.single_node_iter_s = timings_.batch_time_s;

    const int w = options_.warmup_iters;
    const int m = options_.measure_iters;
    CHECK_GE(iter_start_[w], 0.0) << "simulation ended before warmup completed";
    CHECK_GE(iter_start_[w + m], 0.0) << "simulation ended before measurement completed";
    result.iter_time_s = (iter_start_[w + m] - iter_start_[w]) / m;
    const double images_per_iter = static_cast<double>(batch_) * num_nodes_ *
                                   cluster_.gpus_per_node;
    result.images_per_sec = images_per_iter / result.iter_time_s;
    const double single_node_rate =
        static_cast<double>(batch_) * cluster_.gpus_per_node / timings_.batch_time_s;
    result.speedup = result.images_per_sec / (single_node_rate / cluster_.gpus_per_node);

    const double span = window_end_ - window_begin_;
    double busy_frac = 0.0;
    for (int n = 0; n < num_nodes_; ++n) {
      busy_frac += (node_busy_at_end_[n] - node_busy_at_begin_[n]) / span;
    }
    result.gpu_busy_frac = busy_frac / num_nodes_;

    result.tx_gbits_per_iter.resize(num_nodes_);
    result.rx_gbits_per_iter.resize(num_nodes_);
    result.wire_msgs_per_iter.resize(num_nodes_);
    result.logical_msgs_per_iter.resize(num_nodes_);
    for (int n = 0; n < num_nodes_; ++n) {
      result.tx_gbits_per_iter[n] =
          BytesToGigabits(traffic_end_.tx[n] - traffic_begin_.tx[n]) / m;
      result.rx_gbits_per_iter[n] =
          BytesToGigabits(traffic_end_.rx[n] - traffic_begin_.rx[n]) / m;
      result.wire_msgs_per_iter[n] = static_cast<double>(traffic_end_.wire_msgs[n] -
                                                         traffic_begin_.wire_msgs[n]) /
                                     m;
      result.logical_msgs_per_iter[n] =
          static_cast<double>(traffic_end_.logical_msgs[n] -
                              traffic_begin_.logical_msgs[n]) /
          m;
    }

    for (int l = 0; l < num_layers_; ++l) {
      // Compressed PS layers report as e.g. "PS+int8" so plan assertions and
      // bench tables can see the codec choice alongside the scheme.
      std::string scheme = WireSchemeName(wires_[l].scheme);
      if (wires_[l].compression != GradCompression::kNone) {
        scheme += std::string("+") + GradCompressionName(wires_[l].compression);
      }
      result.layer_schemes[model_.layers[l].name] = std::move(scheme);
    }

    result.expected_transmissions = 1.0 / (1.0 - system_.loss_rate);
    if (system_.detect_timeout_s > 0.0 || system_.restart_s > 0.0) {
      // One crash episode: the detector's deadline, the restart +
      // rehydration, and the replay of the in-flight iteration. Survivors
      // proceed up to `staleness` clocks before blocking on the dead
      // worker, so the SSP bound absorbs that much of the outage.
      const double outage =
          system_.detect_timeout_s + system_.restart_s + result.iter_time_s;
      const double absorbed =
          std::min(outage, static_cast<double>(system_.staleness) * result.iter_time_s);
      result.recovery_stall_s = outage - absorbed;
    }
    return result;
  }

  const ModelSpec& model_;
  const SystemConfig& system_;
  const ClusterSpec& cluster_;
  const Engine engine_;
  const int batch_;
  const SimOptions options_;
  const int num_nodes_;
  const int num_layers_;
  const int total_iters_;
  const ComputeTimings timings_;

  Simulator sim_;
  std::unique_ptr<NetworkFabric> fabric_;
  std::vector<LayerWire> wires_;
  std::vector<NodeState> nodes_;
  std::vector<std::vector<LayerSyncState>> sync_;  // [iter][layer]

  std::vector<double> iter_start_;  // node 0's forward start per iteration
  std::vector<int64_t> wire_msgs_;     // per node, cumulative wire frames
  std::vector<int64_t> logical_msgs_;  // per node, cumulative messages
  /// One modeled open frame per (iter, tag, src, dst) group.
  struct FrameGroup {
    int entries = 0;
    double bytes = 0.0;
  };
  std::unordered_map<int64_t, FrameGroup> frame_groups_;
  TrafficSnapshot traffic_begin_;
  TrafficSnapshot traffic_end_;
  std::vector<double> node_busy_at_begin_;
  std::vector<double> node_busy_at_end_;
  double window_begin_ = 0.0;
  double window_end_ = 0.0;
};

}  // namespace

SimResult RunProtocolSimulation(const ModelSpec& model, const SystemConfig& system,
                                const ClusterSpec& cluster, Engine engine, int batch_per_node,
                                const SimOptions& options) {
  ProtocolSim sim(model, system, cluster, engine, batch_per_node, options);
  return sim.Run();
}

SimResult RunProtocolSimulation(const ModelSpec& model, const SystemConfig& system,
                                const ClusterSpec& cluster, Engine engine) {
  return RunProtocolSimulation(model, system, cluster, engine, model.default_batch);
}

}  // namespace poseidon

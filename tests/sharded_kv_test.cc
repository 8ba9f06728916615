// Sharded KV-store invariants: the coordinator's partition plan must give
// every key exactly one owning shard endpoint, striping must stay balanced,
// and — the acceptance bar for the sharding refactor — a layer striped over
// any number of shard endpoints must reassemble bitwise: the number of
// shards is a pure serving-topology knob with zero effect on the training
// trajectory under BSP.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/builders.h"
#include "src/nn/layers.h"
#include "src/poseidon/coordinator.h"
#include "src/poseidon/kv_store.h"
#include "src/poseidon/trainer.h"
#include "src/poseidon/workloads.h"
#include "src/simd/quant.h"
#include "src/tensor/onebit.h"
#include "src/transport/bus.h"
#include "src/transport/codec.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace {

ClusterInfo ShardedCluster(int workers, int servers, int shards, int64_t kv_bytes = 1024) {
  ClusterInfo cluster;
  cluster.num_workers = workers;
  cluster.num_servers = servers;
  cluster.shards_per_server = shards;
  cluster.batch_per_worker = 8;
  cluster.kv_pair_bytes = kv_bytes;
  return cluster;
}

TEST(ShardedPartitionTest, EveryKeyOwnedByExactlyOneShard) {
  Rng rng(21);
  auto net = BuildCifarQuick(3, 16, 10, rng);
  const int servers = 3;
  const int shards = 4;
  Coordinator coordinator(*net, ShardedCluster(2, servers, shards, /*kv_bytes=*/4096));
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    const LayerInfo& info = coordinator.layer(l);
    // Contiguous full coverage of the flat parameter space...
    int64_t expected_offset = 0;
    for (const KvPairInfo& pair : info.pairs) {
      EXPECT_EQ(pair.offset, expected_offset);
      EXPECT_GT(pair.length, 0);
      EXPECT_GE(pair.server, 0);
      EXPECT_LT(pair.server, servers);
      EXPECT_GE(pair.shard, 0);
      EXPECT_LT(pair.shard, shards);
      expected_offset += pair.length;
    }
    EXPECT_EQ(expected_offset, info.total_floats);
    // ...and the per-endpoint views partition it: each pair shows up in
    // exactly one PairsOnShard answer.
    size_t across_shards = 0;
    for (int s = 0; s < servers; ++s) {
      size_t on_server = 0;
      for (int h = 0; h < shards; ++h) {
        on_server += coordinator.PairsOnShard(l, {"", PlannedScheme::kPS}, s, h).size();
      }
      EXPECT_EQ(on_server, static_cast<size_t>(std::count_if(
                               info.pairs.begin(), info.pairs.end(),
                               [s](const KvPairInfo& pair) { return pair.server == s; })));
      across_shards += on_server;
    }
    EXPECT_EQ(across_shards, info.pairs.size());
  }
}

TEST(ShardedPartitionTest, SmallLayersStillSpreadAcrossServers) {
  // The endpoint cursor is server-major: consecutive pairs alternate server
  // nodes before reusing a node's next shard, so even a layer with fewer
  // pairs than total endpoints spreads its push traffic over every server
  // NIC it can reach (a shard-major cursor would pile such a layer onto one
  // node while the others idle).
  Rng rng(26);
  auto net = BuildCifarQuick(3, 16, 10, rng);
  const int servers = 4;
  Coordinator coordinator(*net, ShardedCluster(2, servers, /*shards=*/4,
                                               /*kv_bytes=*/4096));
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    const LayerInfo& info = coordinator.layer(l);
    std::vector<bool> seen(static_cast<size_t>(servers), false);
    int distinct = 0;
    for (const KvPairInfo& pair : info.pairs) {
      if (!seen[static_cast<size_t>(pair.server)]) {
        seen[static_cast<size_t>(pair.server)] = true;
        ++distinct;
      }
    }
    const int want = static_cast<int>(
        std::min<size_t>(info.pairs.size(), static_cast<size_t>(servers)));
    EXPECT_EQ(distinct, want) << "layer " << l << " (" << info.pairs.size()
                              << " pairs) does not alternate servers";
  }
}

TEST(ShardedPartitionTest, StripingBalancesShardEndpoints) {
  Rng rng(22);
  auto net = BuildMlp(/*input_dim=*/2048, /*hidden_dim=*/512, /*hidden_layers=*/1,
                      /*classes=*/10, rng);
  const int servers = 2;
  const int shards = 4;
  Coordinator coordinator(*net, ShardedCluster(4, servers, shards, /*kv_bytes=*/8192));
  const std::vector<int64_t> load = testing::RawPsShardLoadFloats(coordinator);
  ASSERT_EQ(load.size(), static_cast<size_t>(servers * shards));
  const int64_t max = *std::max_element(load.begin(), load.end());
  const int64_t min = *std::min_element(load.begin(), load.end());
  EXPECT_GT(min, 0);
  EXPECT_LT(static_cast<double>(max) / static_cast<double>(min), 1.2);
  // Shard loads must sum to the partition plan's server loads they subdivide.
  std::vector<int64_t> server_load(static_cast<size_t>(servers), 0);
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    for (const KvPairInfo& pair : coordinator.layer(l).pairs) {
      server_load[static_cast<size_t>(pair.server)] += pair.length;
    }
  }
  for (int s = 0; s < servers; ++s) {
    int64_t sum = 0;
    for (int h = 0; h < shards; ++h) {
      sum += load[static_cast<size_t>(s * shards + h)];
    }
    EXPECT_EQ(sum, server_load[static_cast<size_t>(s)]);
  }
}

TEST(ShardedPartitionTest, SingleShardReproducesSeedPartition) {
  // With one shard per server the partition must be the seed's round-robin
  // over servers: pair i of the global sequence lands on server i mod S.
  Rng rng(23);
  auto net = BuildMlp(256, 64, 1, 4, rng);
  Coordinator coordinator(*net, ShardedCluster(2, 3, 1, /*kv_bytes=*/512));
  int global = 0;
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    for (const KvPairInfo& pair : coordinator.layer(l).pairs) {
      EXPECT_EQ(pair.server, global % 3);
      EXPECT_EQ(pair.shard, 0);
      ++global;
    }
  }
}

std::vector<float> AllParams(Network& net) {
  std::vector<float> out;
  for (auto& layer_params : net.LayerParams()) {
    for (ParamBlock& p : layer_params) {
      out.insert(out.end(), p.value->data(), p.value->data() + p.value->size());
    }
  }
  return out;
}

std::vector<float> TrainWithShards(int shards, PlanPolicy policy, int staleness = 0) {
  DatasetConfig data;
  data.num_classes = 3;
  data.channels = 1;
  data.height = 8;
  data.width = 8;
  data.train_size = 96;
  data.noise_stddev = 0.4f;
  data.seed = 2024;
  SyntheticDataset dataset(data);

  NetworkFactory factory = [] {
    Rng rng(13);
    return BuildMlp(/*input_dim=*/64, /*hidden_dim=*/20, /*hidden_layers=*/2,
                    /*classes=*/3, rng);
  };
  TrainerOptions options;
  options.num_workers = 3;
  options.num_servers = 2;
  options.shards_per_server = shards;
  options.staleness = staleness;
  options.batch_per_worker = 6;
  options.sgd = {.learning_rate = 0.05f, .momentum = 0.9f};
  options.fc_policy = policy;
  options.kv_pair_bytes = 256;  // many pairs, so layers really stripe
  options.syncer_threads = 2;

  PoseidonTrainer trainer(factory, options);
  const auto stats = trainer.Train(dataset, 12);
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss) << "no learning";
  for (int w = 1; w < options.num_workers; ++w) {
    EXPECT_EQ(AllParams(trainer.worker_net(0)), AllParams(trainer.worker_net(w)))
        << "replica " << w << " diverged";
  }
  return AllParams(trainer.worker_net(0));
}

TEST(ShardedKvStoreTest, StripedLayersReassembleBitwise) {
  // The acceptance criterion: under BSP (s = 0) the shard count must not
  // perturb a single bit of the trajectory — 1 shard (the seed's PS path),
  // 2 and 4 shards must produce identical parameters.
  const std::vector<float> one = TrainWithShards(1, PlanPolicy::kDense);
  EXPECT_EQ(one, TrainWithShards(2, PlanPolicy::kDense));
  EXPECT_EQ(one, TrainWithShards(4, PlanPolicy::kDense));
}

TEST(ShardedKvStoreTest, OneBitLayersFollowTheirOwnerShard) {
  // 1-bit layers route whole to one owner endpoint; sharding must relocate
  // them without corrupting training (the trajectory is shard-invariant
  // there too: a single endpoint applies the same worker-ordered math).
  const std::vector<float> one = TrainWithShards(1, PlanPolicy::kOneBit);
  EXPECT_EQ(one, TrainWithShards(3, PlanPolicy::kOneBit));
}

// The VGG-22K stand-in's joint auto plan in miniature — ring convs, one
// top-k PS conv, SFB FCs — on 2 workers colocated with 2 one-shard servers.
// Ring hops and SF broadcasts cost both nodes alike; the top-k conv's stripes
// split its binary16 replies over both server NICs, so neither node sends
// more than the other. A whole-layer pair would put every reply on one node.
TEST(ShardedKvStoreTest, TopKLayerStripesBalanceNodeEgress) {
  const SyntheticDataset dataset = workloads::TinyDataset();  // 8x8x1, 3 classes
  NetworkFactory factory = [] {
    Rng rng(31);
    auto net = std::make_unique<Network>();
    int64_t in_c = 1;
    const int64_t widths[] = {8, 16, 32};  // 8x8 -> 4x4 -> 2x2 -> 1x1
    for (int b = 0; b < 3; ++b) {
      const std::string id = std::to_string(b + 1);
      net->Add(std::make_unique<Conv2dLayer>("conv" + id, in_c, widths[b], 3, 1, 1, rng));
      net->Add(std::make_unique<ReluLayer>("relu" + id));
      net->Add(std::make_unique<MaxPool2Layer>("pool" + id));
      in_c = widths[b];
    }
    net->Add(std::make_unique<FullyConnectedLayer>("fc6", 64, 32, rng));
    net->Add(std::make_unique<ReluLayer>("relu6"));
    net->Add(std::make_unique<FullyConnectedLayer>("fc7", 3, 64, rng));
    return net;
  };

  auto plan = std::make_shared<CommPlan>();
  plan->model = "vgg-mini";
  auto init = factory();
  for (int l = 0; l < init->num_layers(); ++l) {
    PlanLayerChoice choice;
    choice.layer = init->layer(l).name();
    if (choice.layer == "conv3") {
      choice.scheme = PlannedScheme::kPS;
      choice.compression = GradCompression::kTopK;
    } else if (choice.layer.rfind("conv", 0) == 0) {
      choice.scheme = PlannedScheme::kRing;
    } else if (choice.layer.rfind("fc", 0) == 0) {
      choice.scheme = PlannedScheme::kSFB;
    }
    plan->layers.push_back(choice);
  }
  ASSERT_GE(init->layer(6).num_params(), 2 * simd::kInt8ChunkSize);
  plan->hash = plan->ComputeHash();

  TrainerOptions options;
  options.num_workers = 2;
  options.num_servers = 2;
  options.shards_per_server = 1;
  options.batch_per_worker = 6;
  options.sgd = {.learning_rate = 0.05f, .momentum = 0.9f};
  options.syncer_threads = 1;
  options.plan_mode = TrainerPlanMode::kFixed;
  options.fixed_plan = plan;
  PoseidonTrainer trainer(factory, options);
  ASSERT_EQ(trainer.bus().num_nodes(), 2) << "servers must be colocated with the workers";

  trainer.Train(dataset, 2);
  trainer.bus().FlushEgress();
  const std::vector<int64_t> before = trainer.bus().TxBytes();
  const int iterations = 4;
  trainer.Train(dataset, iterations);
  trainer.bus().FlushEgress();
  const std::vector<int64_t> after = trainer.bus().TxBytes();
  const double node0 = static_cast<double>(after[0] - before[0]) / iterations;
  const double node1 = static_cast<double>(after[1] - before[1]) / iterations;
  ASSERT_GT(node0, 0.0);
  EXPECT_NEAR(node0, node1, 0.02 * std::max(node0, node1))
      << "per-iteration tx: node 0 " << node0 << " B, node 1 " << node1 << " B";
}

TrainerOptions AutoShardOptions(int workers, int servers) {
  TrainerOptions options;
  options.num_workers = workers;
  options.num_servers = servers;
  options.shards_per_server = 0;  // auto
  options.batch_per_worker = 8;
  options.fc_policy = PlanPolicy::kDense;
  return options;
}

TEST(ShardedKvStoreTest, AutoShardCountFollowsCostModel) {
  Rng rng(24);
  auto net = BuildMlp(64, 20, 2, 3, rng);
  const TrainerOptions options = AutoShardOptions(3, 2);
  const std::shared_ptr<const CommPlan> plan = ResolveTrainerPlan(options, *net);
  ASSERT_GE(plan->ps_shards, 1);
  ASSERT_LE(plan->ps_shards, kMaxAutoShards);
  // P1 = 3 > 2: the sharded colocated row is strictly decreasing in the
  // shard count, so the recommendation saturates at the cap.
  EXPECT_EQ(plan->ps_shards, kMaxAutoShards);

  // shards_per_server = 0 asks the trainer to adopt exactly that plan.
  NetworkFactory factory = [] {
    Rng rng_inner(13);
    return BuildMlp(64, 20, 2, 3, rng_inner);
  };
  PoseidonTrainer trainer(factory, options);
  EXPECT_EQ(trainer.shards_per_server(), plan->ps_shards);
  EXPECT_EQ(trainer.plan()->ps_shards, plan->ps_shards);
}

TEST(ShardedKvStoreTest, TwoWorkersNeverAutoShard) {
  // P1 = 2: each endpoint already serves exactly one remote worker's worth
  // of traffic; the row is flat in S and auto-sharding must stay at 1.
  Rng rng(25);
  auto net = BuildMlp(64, 20, 1, 3, rng);
  EXPECT_EQ(ResolveTrainerPlan(AutoShardOptions(2, 2), *net)->ps_shards, 1);
}

TEST(ShardedPartitionTest, OneBitLayerIsOneWholePairOnItsOwner) {
  // A 1-bit layer's encoding is not sliceable: the placement rule gives it
  // one whole-layer pair on server l % S, shard (l / S) % shards, and no
  // pair anywhere else.
  Rng rng(27);
  auto net = BuildMlp(64, 20, 2, 3, rng);
  const int servers = 2;
  const int shards = 3;
  Coordinator coordinator(*net, ShardedCluster(3, servers, shards, /*kv_bytes=*/256));
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    int found = 0;
    for (int s = 0; s < servers; ++s) {
      for (int h = 0; h < shards; ++h) {
        const std::vector<KvPairInfo> pairs =
            coordinator.PairsOnShard(l, {"", PlannedScheme::kOneBit}, s, h);
        if (s != l % servers || h != (l / servers) % shards) {
          EXPECT_TRUE(pairs.empty()) << "layer " << l << " on (" << s << ", " << h << ")";
          continue;
        }
        ASSERT_EQ(pairs.size(), 1u);
        EXPECT_EQ(pairs[0].layer, l);
        EXPECT_EQ(pairs[0].offset, 0);
        EXPECT_EQ(pairs[0].length, coordinator.layer(l).total_floats);
        ++found;
      }
    }
    EXPECT_EQ(found, 1);
  }
}

// --------------------------------------------------------- KvShard step --

// A two-layer plan over a BuildMlp(8, 6, 1, 3) net: fc1 on dense PS, relu1
// unsynced, fc_out on 1-bit.
constexpr int kDenseLayer = 0;
constexpr int kOneBitLayer = 2;

CommPlan DenseAndOneBitPlan(const Coordinator& coordinator) {
  CommPlan plan;
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    PlanLayerChoice choice;
    choice.layer = coordinator.layer(l).name;
    choice.scheme = l == kDenseLayer    ? PlannedScheme::kPS
                    : l == kOneBitLayer ? PlannedScheme::kOneBit
                                        : PlannedScheme::kNone;
    plan.layers.push_back(choice);
  }
  return plan;
}

std::unique_ptr<Network> StepNet() {
  Rng rng(28);
  return BuildMlp(/*input_dim=*/8, /*hidden_dim=*/6, /*hidden_layers=*/1,
                  /*classes=*/3, rng);
}

/// Worker `w`'s clock-`clock` push for `layer`, exactly as the syncer frames
/// it: raw chunks per pair, or one 1-bit frame (weight then bias).
Message StepPush(const Coordinator& coordinator, int layer, int w, int64_t clock,
                 OneBitQuantizer* quantizer) {
  const LayerInfo& info = coordinator.layer(layer);
  Rng rng(1000 + 10 * static_cast<uint64_t>(w) + static_cast<uint64_t>(clock));
  Message push;
  push.from = Address{w, kSyncerPortBase + layer};
  push.to = coordinator.cluster().ShardAddress(0, 0);
  push.layer = layer;
  push.worker = w;
  push.iter = clock;
  if (layer == kOneBitLayer) {
    const Tensor grad = Tensor::RandomUniform({info.fc_m, info.fc_n}, -1.0f, 1.0f, rng);
    const Tensor bias = Tensor::RandomUniform({info.fc_m}, -1.0f, 1.0f, rng);
    push.type = MessageType::kOneBitPush;
    push.codec = WireCodec::kOneBit;
    push.chunks.push_back(
        {0, OneBitCodec::Encode(grad, quantizer, bias.data(), bias.size()).View()});
    return push;
  }
  const Tensor grad = Tensor::RandomUniform({info.total_floats}, -1.0f, 1.0f, rng);
  Payload slab = RawFloatCodec::Encode(grad.data(), grad.size());
  push.type = MessageType::kGradPush;
  push.codec = WireCodec::kRawFloat;
  for (const KvPairInfo& pair : info.pairs) {
    push.chunks.push_back({pair.offset, slab.View(pair.offset, pair.length)});
  }
  return push;
}

std::vector<float> ReplyFloats(const Message& reply) {
  std::vector<float> out;
  for (const WireChunk& chunk : reply.chunks) {
    out.insert(out.end(), chunk.view.data(), chunk.view.data() + chunk.view.size());
  }
  return out;
}

TEST(KvShardStepTest, EveryArrivalOrderAppliesOnceAndRepliesUnderTheGate) {
  // KvShard::Handle with no thread and no mailbox: W = 2 workers, clocks
  // 0-1, s in {0, 1}, every arrival order of the four pushes, plus one
  // duplicate of a buffered slot (right after the first push) and one
  // replay of an applied clock (at the end), on a dense and a 1-bit layer.
  auto net = StepNet();
  const int workers = 2;
  for (int layer : {kDenseLayer, kOneBitLayer}) {
    std::vector<float> final_params;
    for (int staleness : {0, 1}) {
      ClusterInfo cluster = ShardedCluster(workers, 1, 1, /*kv_bytes=*/64);
      cluster.staleness = staleness;
      Coordinator coordinator(*net, cluster);
      if (layer == kDenseLayer) {
        ASSERT_GT(coordinator.layer(layer).pairs.size(), 1u) << "dense layer must stripe";
      }
      const CommPlan plan = DenseAndOneBitPlan(coordinator);
      // The pushes, framed once in clock order (the 1-bit quantizers carry
      // their residuals per worker).
      std::vector<OneBitQuantizer> quantizers(workers);
      std::vector<Message> pushes;  // index = clock * workers + worker
      for (int64_t clock = 0; clock < 2; ++clock) {
        for (int w = 0; w < workers; ++w) {
          pushes.push_back(StepPush(coordinator, layer, w, clock,
                                    &quantizers[static_cast<size_t>(w)]));
        }
      }
      std::vector<int> order = {0, 1, 2, 3};
      do {
        SCOPED_TRACE("layer " + std::to_string(layer) + " s=" + std::to_string(staleness) +
                     " order " + std::to_string(order[0]) + std::to_string(order[1]) +
                     std::to_string(order[2]) + std::to_string(order[3]));
        KvShard shard(0, 0, /*first_iter=*/0, coordinator, plan, *net, /*bus=*/nullptr,
                      SgdConfig{.learning_rate = 0.05f, .momentum = 0.9f});
        std::vector<int> schedule = order;
        schedule.insert(schedule.begin() + 1, order[0]);  // duplicate of a buffered slot
        schedule.push_back(order[0]);                     // replay of an applied clock

        // The reference model: the applied clock is the highest clock every
        // worker delivered, with every clock below it; a delivery queues a
        // read unless one is already pending for its (worker, clock); a read
        // is answered exactly when applied >= clock - s.
        std::vector<bool> delivered(pushes.size(), false);
        std::vector<std::pair<int, int64_t>> pending;
        std::map<std::pair<int, int64_t>, int> want;  // (worker, clock) -> replies
        std::map<std::pair<int, int64_t>, int> got;
        std::vector<float> last_reply;
        for (size_t step = 0; step < schedule.size(); ++step) {
          const Message& push = pushes[static_cast<size_t>(schedule[step])];
          delivered[static_cast<size_t>(schedule[step])] = true;
          int64_t applied = -1;
          while (applied + 1 < 2 && delivered[static_cast<size_t>((applied + 1) * workers)] &&
                 delivered[static_cast<size_t>((applied + 1) * workers + 1)]) {
            ++applied;
          }
          const std::pair<int, int64_t> read = {push.worker, push.iter};
          if (std::find(pending.begin(), pending.end(), read) == pending.end()) {
            pending.push_back(read);
          }
          for (auto it = pending.begin(); it != pending.end();) {
            if (applied >= it->second - staleness) {
              ++want[*it];
              it = pending.erase(it);
            } else {
              ++it;
            }
          }
          for (const Message& reply : shard.Handle(push)) {
            EXPECT_EQ(reply.type, MessageType::kParamReply);
            EXPECT_EQ(reply.codec, WireCodec::kRawFloat);
            EXPECT_EQ(reply.to.port, kSyncerPortBase + layer);
            ++got[{reply.to.node, reply.iter}];
            last_reply = ReplyFloats(reply);
          }
          EXPECT_EQ(got, want) << "after step " << step;
        }
        // Every push the schedule does not repeat earned exactly one reply.
        for (int index : order) {
          if (index != order[0]) {
            const Message& push = pushes[static_cast<size_t>(index)];
            EXPECT_EQ((got[{push.worker, push.iter}]), 1);
          }
        }
        EXPECT_EQ(shard.applies(), 2) << "one apply per (layer, clock)";
        EXPECT_EQ(shard.reconciled_pushes(), 2);
        EXPECT_EQ(shard.rejected_pushes(), 0);
        EXPECT_EQ(shard.pushes_processed(), static_cast<int64_t>(schedule.size()));
        // The replay's reply carries the final parameters; it must be the
        // same bytes for every order and staleness.
        ASSERT_EQ(static_cast<int64_t>(last_reply.size()),
                  coordinator.layer(layer).total_floats);
        if (final_params.empty()) {
          final_params = last_reply;
        } else {
          EXPECT_EQ(std::memcmp(final_params.data(), last_reply.data(),
                                final_params.size() * sizeof(float)),
                    0)
              << "final parameters depend on the arrival order";
        }
      } while (std::next_permutation(order.begin(), order.end()));
    }
  }
}

TEST(KvShardServiceTest, MalformedOneBitPushesAreRejectedNotFatal) {
  // A 1-bit push is wire input like any other: the wrong codec, a bad chunk
  // count, a truncated frame or a frame without its bias trailer is counted
  // in rejected_pushes, earns no reply, and the next well-formed clock still
  // applies.
  auto net = StepNet();
  const int workers = 2;
  Coordinator coordinator(*net, ShardedCluster(workers, 1, 1, /*kv_bytes=*/64));
  const CommPlan plan = DenseAndOneBitPlan(coordinator);
  MessageBus bus(coordinator.cluster().NumNodes());
  std::vector<std::shared_ptr<MessageBus::Mailbox>> inbox;
  for (int w = 0; w < workers; ++w) {
    inbox.push_back(bus.Register(Address{w, kSyncerPortBase + kOneBitLayer}));
  }
  KvServer server(0, /*first_iter=*/0, coordinator, plan, *net, &bus,
                  SgdConfig{.learning_rate = 0.05f, .momentum = 0.9f});
  server.Start();

  std::vector<OneBitQuantizer> quantizers(workers);
  std::vector<Message> good;
  for (int w = 0; w < workers; ++w) {
    good.push_back(StepPush(coordinator, kOneBitLayer, w, /*clock=*/0,
                            &quantizers[static_cast<size_t>(w)]));
  }
  const PayloadView frame = good[0].chunks[0].view;
  std::vector<Message> bad;
  Message wrong_codec = good[0];
  wrong_codec.codec = WireCodec::kRawFloat;
  bad.push_back(wrong_codec);
  Message two_chunks = good[0];
  two_chunks.chunks.push_back(two_chunks.chunks[0]);
  bad.push_back(two_chunks);
  Message truncated = good[0];
  truncated.chunks[0].view = frame.Sub(0, frame.size() - 1);
  bad.push_back(truncated);
  Message no_bias = good[0];
  const LayerInfo& info = coordinator.layer(kOneBitLayer);
  OneBitQuantizer fresh;
  no_bias.chunks[0].view =
      OneBitCodec::Encode(Tensor::Zeros({info.fc_m, info.fc_n}), &fresh, nullptr, 0).View();
  bad.push_back(no_bias);
  // Worker 1's good push first, so a malformed worker-0 frame that got
  // buffered would complete (and poison) the clock.
  ASSERT_TRUE(bus.Send(good[1]).ok());
  for (const Message& push : bad) {
    ASSERT_TRUE(bus.Send(push).ok());
  }
  ASSERT_TRUE(bus.Send(good[0]).ok());

  for (int w = 0; w < workers; ++w) {
    const std::optional<Message> reply =
        inbox[static_cast<size_t>(w)]->PopFor(std::chrono::milliseconds(10000));
    ASSERT_TRUE(reply.has_value()) << "worker " << w << " got no reply";
    EXPECT_EQ(reply->iter, 0);
    EXPECT_EQ(ReplyFloats(*reply).size(), static_cast<size_t>(info.total_floats));
  }
  server.Stop();
  for (int w = 0; w < workers; ++w) {
    EXPECT_FALSE(inbox[static_cast<size_t>(w)]->TryPop().has_value())
        << "a malformed push earned a reply";
  }
  EXPECT_EQ(server.rejected_pushes(), static_cast<int64_t>(bad.size()));
  EXPECT_EQ(server.applies(), 1);
  EXPECT_EQ(server.reconciled_pushes(), 0);
}

}  // namespace
}  // namespace poseidon

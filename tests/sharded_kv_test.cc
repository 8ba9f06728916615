// Sharded KV-store invariants: the coordinator's partition plan must give
// every key exactly one owning shard endpoint, striping must stay balanced,
// and — the acceptance bar for the sharding refactor — a layer striped over
// any number of shard endpoints must reassemble bitwise: the number of
// shards is a pure serving-topology knob with zero effect on the training
// trajectory under BSP.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/builders.h"
#include "src/poseidon/coordinator.h"
#include "src/poseidon/trainer.h"

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
        on_server += coordinator.PairsOnShard(l, s, h).size();
      }
      EXPECT_EQ(on_server, coordinator.PairsOnServer(l, s).size());
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
  const std::vector<int64_t> load = coordinator.ShardLoadFloats();
  ASSERT_EQ(load.size(), static_cast<size_t>(servers * shards));
  const int64_t max = *std::max_element(load.begin(), load.end());
  const int64_t min = *std::min_element(load.begin(), load.end());
  EXPECT_GT(min, 0);
  EXPECT_LT(static_cast<double>(max) / static_cast<double>(min), 1.2);
  // Shard loads must sum to the server loads they subdivide.
  const std::vector<int64_t> server_load = coordinator.ServerLoadFloats();
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

}  // namespace
}  // namespace poseidon

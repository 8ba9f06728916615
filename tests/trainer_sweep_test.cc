// Parameterized end-to-end sweep of the threaded runtime across cluster
// shapes, sync policies and KV granularities: every configuration must (a)
// keep replicas bitwise identical, (b) reduce the training loss, and (c) be
// deterministic. This is the broad-coverage counterpart to the targeted
// equivalence tests in integration_test.cc.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/nn/builders.h"
#include "src/poseidon/trainer.h"

namespace poseidon {
namespace {

struct SweepCase {
  int workers;
  int servers;
  PlanPolicy policy;
  int64_t kv_bytes;
  int threads;
  int shards = 1;  // KV shard endpoints per server (0 = auto)
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string policy;
  switch (c.policy) {
    case PlanPolicy::kAuto:  // paper mode: the three-way PS/SFB/collective fold
      policy = "Hybrid3";
      break;
    case PlanPolicy::kDense:
      policy = "Dense";
      break;
    case PlanPolicy::kSfb:
      policy = "Sfb";
      break;
    case PlanPolicy::kHybrid:
      policy = "Hybrid";
      break;
    case PlanPolicy::kOneBit:
      policy = "OneBit";
      break;
    case PlanPolicy::kRingAllreduce:
      policy = "Ring";
      break;
    case PlanPolicy::kTreeAllreduce:
      policy = "Tree";
      break;
  }
  return "w" + std::to_string(c.workers) + "s" + std::to_string(c.servers) + policy + "kv" +
         std::to_string(c.kv_bytes) + "t" + std::to_string(c.threads) +
         (c.shards != 1 ? "sh" + std::to_string(c.shards) : "");
}

class TrainerSweepTest : public ::testing::TestWithParam<SweepCase> {};

std::vector<float> AllParams(Network& net) {
  std::vector<float> out;
  for (auto& layer_params : net.LayerParams()) {
    for (ParamBlock& p : layer_params) {
      out.insert(out.end(), p.value->data(), p.value->data() + p.value->size());
    }
  }
  return out;
}

TEST_P(TrainerSweepTest, ConvergesConsistentlyAndDeterministically) {
  const SweepCase param = GetParam();

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
  options.num_workers = param.workers;
  options.num_servers = param.servers;
  options.shards_per_server = param.shards;
  options.batch_per_worker = 6;
  options.sgd = {.learning_rate = 0.05f, .momentum = 0.9f};
  options.fc_policy = param.policy;
  options.kv_pair_bytes = param.kv_bytes;
  options.syncer_threads = param.threads;

  auto run = [&] {
    PoseidonTrainer trainer(factory, options);
    const auto stats = trainer.Train(dataset, 15);
    EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss) << "no learning";
    // (a) replica identity
    const std::vector<float> w0 = AllParams(trainer.worker_net(0));
    for (int w = 1; w < param.workers; ++w) {
      EXPECT_EQ(w0, AllParams(trainer.worker_net(w))) << "replica " << w << " diverged";
    }
    return w0;
  };
  // (c) determinism across full trainer lifecycles
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TrainerSweepTest,
    ::testing::Values(
        SweepCase{1, 1, PlanPolicy::kDense, 2048, 1},
        SweepCase{2, 1, PlanPolicy::kDense, 2048, 2},
        SweepCase{2, 2, PlanPolicy::kSfb, 2048, 2},
        SweepCase{3, 2, PlanPolicy::kHybrid, 512, 2},
        SweepCase{4, 4, PlanPolicy::kHybrid, 128, 3},
        SweepCase{4, 2, PlanPolicy::kOneBit, 2048, 2},
        SweepCase{2, 4, PlanPolicy::kDense, 256, 1},   // more servers than workers
        SweepCase{5, 3, PlanPolicy::kHybrid, 1024, 4},
        SweepCase{2, 2, PlanPolicy::kOneBit, 64, 1},
        SweepCase{8, 8, PlanPolicy::kHybrid, 2048, 2},
        SweepCase{1, 1, PlanPolicy::kRingAllreduce, 2048, 1},  // degenerate world -> PS
        SweepCase{2, 2, PlanPolicy::kRingAllreduce, 2048, 2},
        SweepCase{5, 2, PlanPolicy::kRingAllreduce, 1024, 3},
        SweepCase{3, 3, PlanPolicy::kTreeAllreduce, 2048, 2},
        SweepCase{8, 4, PlanPolicy::kTreeAllreduce, 512, 2},
        SweepCase{4, 4, PlanPolicy::kAuto, 1024, 3},
        SweepCase{8, 8, PlanPolicy::kAuto, 2048, 2},
        SweepCase{3, 2, PlanPolicy::kDense, 512, 2, /*shards=*/3},
        SweepCase{4, 4, PlanPolicy::kHybrid, 128, 3, /*shards=*/2},
        SweepCase{4, 2, PlanPolicy::kOneBit, 2048, 2, /*shards=*/4},
        SweepCase{5, 3, PlanPolicy::kHybrid, 1024, 4, /*shards=*/0},  // auto
        SweepCase{2, 4, PlanPolicy::kDense, 256, 1, /*shards=*/8}),
    CaseName);

}  // namespace
}  // namespace poseidon

// Tests for the coordinator's information book and KV partition plan, and
// the FlatParamView the KV machinery is built on.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/nn/builders.h"
#include "src/nn/layers.h"
#include "src/poseidon/coordinator.h"
#include "src/poseidon/flat_params.h"
#include "src/poseidon/trainer.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace {

using testing::SmallClusterInfo;

TEST(CoordinatorTest, QueryInformationBook) {
  Rng rng(1);
  auto net = BuildMlp(64, 32, 2, 10, rng);
  Coordinator coordinator(*net, SmallClusterInfo(4, 2, 16));
  EXPECT_EQ(coordinator.Query("n_worker").value(), 4);
  EXPECT_EQ(coordinator.Query("n_server").value(), 2);
  EXPECT_EQ(coordinator.Query("batchsize").value(), 16);
  EXPECT_EQ(coordinator.Query("n_layer").value(), net->num_layers());
  EXPECT_FALSE(coordinator.Query("bogus").ok());
}

TEST(CoordinatorTest, PairsCoverEveryParameterExactlyOnce) {
  Rng rng(2);
  auto net = BuildCifarQuick(3, 16, 10, rng);
  Coordinator coordinator(*net, SmallClusterInfo(2, 3, 8, /*kv_bytes=*/4096));
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    const LayerInfo& info = coordinator.layer(l);
    int64_t covered = 0;
    int64_t expected_offset = 0;
    for (const KvPairInfo& pair : info.pairs) {
      EXPECT_EQ(pair.offset, expected_offset);
      EXPECT_GT(pair.length, 0);
      EXPECT_GE(pair.server, 0);
      EXPECT_LT(pair.server, 3);
      expected_offset += pair.length;
      covered += pair.length;
    }
    EXPECT_EQ(covered, info.total_floats);
  }
}

TEST(CoordinatorTest, KvPairsBalanceServerLoad) {
  // The point of fine-grained KV pairs (§5.1): no shard should hold much
  // more than its share, even when one tensor dominates the model.
  Rng rng(3);
  auto net = BuildMlp(/*input_dim=*/2048, /*hidden_dim=*/512, /*hidden_layers=*/1,
                      /*classes=*/10, rng);
  const int servers = 4;
  Coordinator coordinator(*net, SmallClusterInfo(4, servers, 8, /*kv_bytes=*/8192));
  const std::vector<int64_t> load = coordinator.ServerLoadFloats();
  const int64_t max = *std::max_element(load.begin(), load.end());
  const int64_t min = *std::min_element(load.begin(), load.end());
  EXPECT_LT(static_cast<double>(max) / static_cast<double>(min), 1.1);
}

TEST(CoordinatorTest, BestSchemeUsesAlgorithm1) {
  Rng rng(4);
  // Wide FC layers, tiny batch: SFB should win on multiple workers.
  auto net = BuildMlp(/*input_dim=*/4096, /*hidden_dim=*/1024, /*hidden_layers=*/1,
                      /*classes=*/10, rng);
  Coordinator multi(*net, SmallClusterInfo(8, 8, 8));
  bool any_sfb = false;
  for (int l = 0; l < multi.num_layers(); ++l) {
    if (multi.layer(l).type == LayerType::kFC && multi.BestScheme(l) == CommScheme::kSFB) {
      any_sfb = true;
    }
  }
  EXPECT_TRUE(any_sfb);

  // Single worker: everything through the PS.
  Coordinator single(*net, SmallClusterInfo(1, 1, 8));
  for (int l = 0; l < single.num_layers(); ++l) {
    EXPECT_EQ(single.BestScheme(l), CommScheme::kPS);
  }
}

TEST(CoordinatorTest, BestSchemeByNameAndUnknownName) {
  Rng rng(5);
  auto net = BuildMlp(64, 32, 1, 4, rng);
  Coordinator coordinator(*net, SmallClusterInfo(2, 2, 8));
  EXPECT_TRUE(coordinator.BestScheme("fc1").ok());
  EXPECT_FALSE(coordinator.BestScheme("nope").ok());
}

TEST(PaperPlanTest, ResolvesPolicies) {
  Rng rng(6);
  auto net = BuildCifarQuick(3, 16, 10, rng);
  Coordinator coordinator(*net, SmallClusterInfo(4, 4, 8));
  auto schemes = [&](PlanPolicy policy) {
    TrainerOptions options;
    options.num_workers = 4;
    options.num_servers = 4;
    options.batch_per_worker = 8;
    options.fc_policy = policy;
    const std::shared_ptr<const CommPlan> plan = ResolveTrainerPlan(options, *net);
    std::vector<PlannedScheme> out;
    for (const PlanLayerChoice& choice : plan->layers) {
      out.push_back(choice.scheme);
    }
    return out;
  };

  const auto dense = schemes(PlanPolicy::kDense);
  const auto sfb = schemes(PlanPolicy::kSfb);
  const auto onebit = schemes(PlanPolicy::kOneBit);
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    const LayerInfo& info = coordinator.layer(l);
    if (info.total_floats == 0) {
      EXPECT_EQ(dense[l], PlannedScheme::kNone);
      EXPECT_EQ(sfb[l], PlannedScheme::kNone);
    } else if (info.type == LayerType::kFC) {
      EXPECT_EQ(dense[l], PlannedScheme::kPS);
      EXPECT_EQ(sfb[l], PlannedScheme::kSFB);
      EXPECT_EQ(onebit[l], PlannedScheme::kOneBit);
    } else {
      EXPECT_EQ(dense[l], PlannedScheme::kPS);
      EXPECT_EQ(sfb[l], PlannedScheme::kPS);  // conv never broadcasts
    }
  }
}

TEST(FlatParamViewTest, GatherScatterRoundTrip) {
  Rng rng(7);
  FullyConnectedLayer fc("fc", 4, 6, rng);
  FlatParamView view(fc.Params());
  EXPECT_EQ(view.size(), 4 * 6 + 4);

  std::vector<float> values = view.GatherValues();
  for (float& v : values) {
    v += 1.0f;
  }
  view.ScatterValues(values);
  const std::vector<float> back = view.GatherValues();
  EXPECT_EQ(back, values);
}

TEST(FlatParamViewTest, SlicesSpanBlockBoundaries) {
  Rng rng(8);
  FullyConnectedLayer fc("fc", 2, 3, rng);  // weight 6 floats + bias 2 floats
  FlatParamView view(fc.Params());
  ASSERT_EQ(view.size(), 8);
  // A slice [4, 8) covers the last 2 weight floats and both bias floats.
  std::vector<float> slice(4);
  view.GatherValueSlice(4, &slice);
  std::vector<float> all = view.GatherValues();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(slice[static_cast<size_t>(i)], all[static_cast<size_t>(4 + i)]);
  }
  // Scatter through the same boundary.
  slice = {10.0f, 11.0f, 12.0f, 13.0f};
  view.ScatterValueSlice(4, slice);
  all = view.GatherValues();
  EXPECT_EQ(all[5], 11.0f);
  EXPECT_EQ(all[7], 13.0f);
}

TEST(FlatParamViewTest, GradGatherReadsGradients) {
  Rng rng(9);
  FullyConnectedLayer fc("fc", 2, 2, rng);
  fc.weight_grad().Fill(3.0f);
  FlatParamView view(fc.Params());
  std::vector<float> grads(static_cast<size_t>(view.size()));
  view.GatherGradSlice(0, &grads);
  EXPECT_EQ(grads[0], 3.0f);
  EXPECT_EQ(grads[3], 3.0f);
  EXPECT_EQ(grads[4], 0.0f);  // bias grad untouched
}

}  // namespace
}  // namespace poseidon

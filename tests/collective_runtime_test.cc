// End-to-end tests of the collective synchronization path in the threaded
// runtime: a conv+FC network trained under ring/tree allreduce must keep all
// replicas bitwise identical (the collective guarantees a rank-independent
// association order), actually learn, be deterministic across trainer
// lifecycles, and stay statistically equivalent to the dense-PS trajectory
// (the same averaged gradient up to float reassociation).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/builders.h"
#include "src/poseidon/trainer.h"

namespace poseidon {
namespace {

DatasetConfig SmallData() {
  DatasetConfig data;
  data.num_classes = 4;
  data.channels = 1;
  data.height = 8;
  data.width = 8;
  data.train_size = 64;
  data.noise_stddev = 0.3f;
  data.seed = 515;
  return data;
}

NetworkFactory ConvFactory() {
  return [] {
    Rng rng(99);
    // Conv layers exercise the collective path for indecomposable gradients;
    // the FC head rides the same schemes.
    return BuildCifarQuick(/*channels=*/1, /*image_hw=*/8, /*classes=*/4, rng);
  };
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

std::vector<float> TrainOnce(PlanPolicy policy, int workers, int iterations,
                             double* first_loss = nullptr, double* last_loss = nullptr) {
  SyntheticDataset dataset(SmallData());
  TrainerOptions options;
  options.num_workers = workers;
  options.num_servers = workers;
  options.batch_per_worker = 4;
  options.sgd = {.learning_rate = 0.05f, .momentum = 0.9f};
  options.fc_policy = policy;
  options.syncer_threads = 2;
  PoseidonTrainer trainer(ConvFactory(), options);
  const auto stats = trainer.Train(dataset, iterations);
  if (first_loss != nullptr) {
    *first_loss = stats.front().mean_loss;
  }
  if (last_loss != nullptr) {
    *last_loss = stats.back().mean_loss;
  }
  // Replicas must be bitwise identical under BSP.
  const std::vector<float> w0 = AllParams(trainer.worker_net(0));
  for (int w = 1; w < workers; ++w) {
    EXPECT_EQ(w0, AllParams(trainer.worker_net(w))) << "replica " << w << " diverged";
  }
  return w0;
}

class CollectiveRuntimeTest
    : public ::testing::TestWithParam<std::pair<PlanPolicy, int>> {};

TEST_P(CollectiveRuntimeTest, LearnsWithIdenticalReplicasDeterministically) {
  const auto [policy, workers] = GetParam();
  double first = 0.0;
  double last = 0.0;
  const std::vector<float> run1 = TrainOnce(policy, workers, /*iterations=*/12, &first, &last);
  EXPECT_LT(last, first) << "no learning";
  const std::vector<float> run2 = TrainOnce(policy, workers, /*iterations=*/12);
  EXPECT_EQ(run1, run2) << "not deterministic across trainer lifecycles";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CollectiveRuntimeTest,
    ::testing::Values(std::make_pair(PlanPolicy::kRingAllreduce, 2),
                      std::make_pair(PlanPolicy::kRingAllreduce, 4),
                      std::make_pair(PlanPolicy::kRingAllreduce, 5),
                      std::make_pair(PlanPolicy::kTreeAllreduce, 2),
                      std::make_pair(PlanPolicy::kTreeAllreduce, 4),
                      std::make_pair(PlanPolicy::kTreeAllreduce, 7),
                      std::make_pair(PlanPolicy::kAuto, 4)));

TEST(CollectiveRuntimeTest, TrajectoryMatchesDensePsUpToReassociation) {
  // Ring/tree average the same per-worker gradients as the PS, only in a
  // different association order, so after a few iterations the parameter
  // vectors must agree to float-accumulation tolerance.
  const int iters = 10;
  const std::vector<float> dense = TrainOnce(PlanPolicy::kDense, 4, iters);
  for (PlanPolicy policy : {PlanPolicy::kRingAllreduce, PlanPolicy::kTreeAllreduce}) {
    const std::vector<float> collective = TrainOnce(policy, 4, iters);
    ASSERT_EQ(dense.size(), collective.size());
    double max_abs = 0.0;
    for (size_t i = 0; i < dense.size(); ++i) {
      max_abs = std::max(max_abs, static_cast<double>(std::abs(dense[i] - collective[i])));
    }
    EXPECT_LT(max_abs, 2e-4);
  }
}

TEST(CollectiveRuntimeTest, SingleWorkerFallsBackToPs) {
  // The paper plan degrades a world-of-one collective to the PS, so training
  // still applies updates.
  double first = 0.0;
  double last = 0.0;
  TrainOnce(PlanPolicy::kRingAllreduce, /*workers=*/1, /*iterations=*/12, &first, &last);
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace poseidon

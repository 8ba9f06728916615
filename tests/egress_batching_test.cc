// Egress batching is a transport-level optimization: grouping same-
// destination wire messages into one frame must never change what the
// training algorithm computes. These tests train identical runs with and
// without batching and require bitwise-identical parameters, plus strictly
// fewer (never more) wire messages with batching on.
#include <gtest/gtest.h>

#include <vector>

#include "src/poseidon/trainer.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace {

using testing::AllParams;

struct RunResult {
  std::vector<float> params;
  int64_t wire_messages = 0;
  int64_t logical_messages = 0;
};

RunResult TrainRun(PlanPolicy policy, int workers, int servers, int shards, bool batch) {
  const SyntheticDataset dataset = testing::TinyDataset();
  TrainerOptions options =
      testing::SmallTrainerOptions(workers, servers, shards, /*staleness=*/0, policy);
  options.kv_pair_bytes = 512;
  options.batch_egress = batch;
  // A generous window so a backprop burst reliably lands in one frame.
  options.batch_options.flush_interval_us = 2000;

  PoseidonTrainer trainer(testing::TinyMlpFactory(/*hidden_layers=*/3), options);
  trainer.Train(dataset, 10);
  trainer.bus().FlushEgress();
  RunResult result;
  result.params = AllParams(trainer.worker_net(0));
  for (int64_t m : trainer.bus().TxMessages()) {
    result.wire_messages += m;
  }
  for (int64_t e : trainer.bus().TxEntries()) {
    result.logical_messages += e;
  }
  return result;
}

class EgressBatchingTest : public ::testing::TestWithParam<PlanPolicy> {};

TEST_P(EgressBatchingTest, TrajectoryBitwiseIdenticalWithBatching) {
  const PlanPolicy policy = GetParam();
  const RunResult plain = TrainRun(policy, 3, 2, 2, /*batch=*/false);
  const RunResult batched = TrainRun(policy, 3, 2, 2, /*batch=*/true);

  EXPECT_EQ(plain.params, batched.params)
      << "batching changed the training trajectory";
  // Batching can only merge frames, never add them; the logical message
  // stream is identical.
  EXPECT_EQ(plain.logical_messages, batched.logical_messages);
  EXPECT_LE(batched.wire_messages, plain.wire_messages);
  EXPECT_GT(batched.wire_messages, 0);
}

INSTANTIATE_TEST_SUITE_P(Policies, EgressBatchingTest,
                         ::testing::Values(PlanPolicy::kDense, PlanPolicy::kHybrid,
                                           PlanPolicy::kOneBit,
                                           PlanPolicy::kRingAllreduce,
                                           PlanPolicy::kTreeAllreduce),
                         [](const ::testing::TestParamInfo<PlanPolicy>& info) {
                           switch (info.param) {
                             case PlanPolicy::kDense:
                               return std::string("Dense");
                             case PlanPolicy::kHybrid:
                               return std::string("Hybrid");
                             case PlanPolicy::kOneBit:
                               return std::string("OneBit");
                             case PlanPolicy::kRingAllreduce:
                               return std::string("Ring");
                             case PlanPolicy::kTreeAllreduce:
                               return std::string("Tree");
                             default:
                               return std::string("Other");
                           }
                         });

TEST(EgressBatchingTest, ManyLayerModelBatchesPushes) {
  // A deeper model gives the batcher same-destination pushes to merge: the
  // wire message count must drop measurably, with an identical trajectory.
  const RunResult plain = TrainRun(PlanPolicy::kDense, 2, 2, 1, /*batch=*/false);
  const RunResult batched = TrainRun(PlanPolicy::kDense, 2, 2, 1, /*batch=*/true);
  EXPECT_EQ(plain.params, batched.params);
  EXPECT_LT(batched.wire_messages, plain.wire_messages)
      << "no frames were merged on a multi-layer PS run";
}

// SSP staleness > 0 legitimately reorders reads, so trajectories are only
// comparable batched-vs-batched; this guards the SSP reply-snapshot path
// (replies must not alias a slab a later apply can mutate).
TEST(EgressBatchingTest, SspRunIsDeterministicUnderBatching) {
  const SyntheticDataset dataset = testing::TinyDataset();
  TrainerOptions options = testing::SmallTrainerOptions(
      /*workers=*/3, /*servers=*/2, /*shards=*/1, /*staleness=*/1);
  options.kv_pair_bytes = 512;
  options.batch_egress = true;
  PoseidonTrainer trainer(testing::TinyMlpFactory(/*hidden_layers=*/2), options);
  const auto stats = trainer.Train(dataset, 12);
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss) << "no learning under SSP";
}

}  // namespace
}  // namespace poseidon

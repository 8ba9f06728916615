// SSP (bounded-staleness) property tests for the sharded KV runtime.
//
// The load-bearing invariant is the staleness bound itself: no worker ever
// observes a clock gap greater than `s` — every parameter read a shard
// releases to a worker at clock c already contains all updates through
// clock c - s — and no worker's push ever leads the applied clock by more
// than s + 1. The KV shards record the maxima of both quantities over the
// whole run, so the property is checked against everything that actually
// happened, not a sample.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/poseidon/trainer.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace {

using testing::TinyDataset;
using testing::TinyMlpFactory;

SyntheticDataset MakeDataset() { return TinyDataset(); }

NetworkFactory MlpFactory() { return TinyMlpFactory(/*hidden_layers=*/2); }

TrainerOptions SspOptions(int staleness, int shards = 2,
                          PlanPolicy policy = PlanPolicy::kDense) {
  return testing::SmallTrainerOptions(/*workers=*/4, /*servers=*/2, shards, staleness,
                                      policy);
}

void ExpectClockGapBounded(PoseidonTrainer& trainer, const TrainerOptions& options) {
  for (int s = 0; s < options.num_servers; ++s) {
    EXPECT_LE(trainer.server(s).max_reply_gap(), options.staleness)
        << "a worker observed a clock gap beyond the SSP bound";
    EXPECT_LE(trainer.server(s).max_push_lead(), options.staleness + 1)
        << "a worker ran further ahead than SSP permits";
  }
}

TEST(SspTest, BspNeverObservesAnyGap) {
  const SyntheticDataset dataset = MakeDataset();
  TrainerOptions options = SspOptions(/*staleness=*/0);
  PoseidonTrainer trainer(MlpFactory(), options);
  const auto stats = trainer.Train(dataset, 10);
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
  ExpectClockGapBounded(trainer, options);  // gap <= 0, lead <= 1
}

TEST(SspTest, ClockGapNeverExceedsStaleness) {
  const SyntheticDataset dataset = MakeDataset();
  for (int staleness : {1, 2, 3}) {
    TrainerOptions options = SspOptions(staleness);
    PoseidonTrainer trainer(MlpFactory(), options);
    const auto stats = trainer.Train(dataset, 15);
    EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss)
        << "SSP s=" << staleness << " stopped learning";
    ExpectClockGapBounded(trainer, options);
  }
}

TEST(SspTest, BoundHoldsAcrossRepeatedTrainCalls) {
  // The SSP clock is global across Train() invocations (clocks keep
  // counting), so the bound must hold over a resumed run too.
  const SyntheticDataset dataset = MakeDataset();
  TrainerOptions options = SspOptions(/*staleness=*/2);
  PoseidonTrainer trainer(MlpFactory(), options);
  trainer.Train(dataset, 6);
  trainer.Train(dataset, 6);
  EXPECT_EQ(trainer.next_iter(), 12);
  ExpectClockGapBounded(trainer, options);
}

TEST(SspTest, BoundHoldsForOneBitLayers) {
  const SyntheticDataset dataset = MakeDataset();
  TrainerOptions options = SspOptions(/*staleness=*/2, /*shards=*/2, PlanPolicy::kOneBit);
  PoseidonTrainer trainer(MlpFactory(), options);
  const auto stats = trainer.Train(dataset, 12);
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
  ExpectClockGapBounded(trainer, options);
}

TEST(SspTest, RestoredRunContinuesUnderSsp) {
  // A checkpoint restore starts the SSP clock at the restored cursor; pushes
  // for the first restored iteration must not trip the clock-order checks.
  const SyntheticDataset dataset = MakeDataset();
  const std::string path = ::testing::TempDir() + "/ssp_restore.ckpt";
  {
    TrainerOptions options = SspOptions(/*staleness=*/1);
    PoseidonTrainer trainer(MlpFactory(), options);
    trainer.Train(dataset, 5);
    ASSERT_TRUE(trainer.SaveCheckpointTo(path).ok());
  }
  TrainerOptions options = SspOptions(/*staleness=*/1);
  options.restore_path = path;
  PoseidonTrainer trainer(MlpFactory(), options);
  EXPECT_EQ(trainer.next_iter(), 5);
  const auto stats = trainer.Train(dataset, 5);
  EXPECT_EQ(stats.front().iter, 5);
  ExpectClockGapBounded(trainer, options);
  std::remove(path.c_str());
}

TEST(SspTest, StalenessZeroMatchesUnshardedBspBitwise) {
  // s = 0 with shards is the acceptance criterion's "existing PS path":
  // identical parameters, bit for bit, to the 1-shard BSP run.
  const SyntheticDataset dataset = MakeDataset();
  auto run = [&](int shards, int staleness) {
    TrainerOptions options = SspOptions(staleness, shards);
    PoseidonTrainer trainer(MlpFactory(), options);
    trainer.Train(dataset, 12);
    return testing::AllParams(trainer.worker_net(0));
  };
  EXPECT_EQ(run(/*shards=*/1, /*staleness=*/0), run(/*shards=*/4, /*staleness=*/0));
}

}  // namespace
}  // namespace poseidon

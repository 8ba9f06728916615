// Trainer-level CommPlan integration: plan modes, mid-training AdoptPlan
// swaps, and bandwidth-feedback determinism.
//
// The load-bearing invariants:
//   * kPaper trains bitwise identically to a kFixed run adopting the very
//     plan paper mode resolved — the plan object is a faithful encoding of
//     the legacy configuration, not an approximation of it;
//   * a kFixed run takes the plan's global knobs (top-k density, staleness)
//     over the options it was handed;
//   * AdoptPlan between Train() windows changes how gradients move, never
//     their values, so a fixed swap schedule reproduces bitwise;
//   * plan_feedback that never fires (huge hysteresis) is bitwise identical
//     to feedback off — observation alone must not perturb training.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/planner/comm_plan.h"
#include "src/poseidon/trainer.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace {

using testing::AllParams;
using testing::CaptureTrajectory;
using testing::SmallTrainerOptions;
using testing::TinyDataset;
using testing::TinyMlpFactory;
using testing::Trajectory;

constexpr int kIters = 8;

TEST(PlanTrainerTest, PaperModeRecordsAPlan) {
  PoseidonTrainer trainer(TinyMlpFactory(), SmallTrainerOptions());
  const auto plan = trainer.plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->ps_shards, trainer.shards_per_server());
  EXPECT_EQ(plan->layers.size(),
            static_cast<size_t>(trainer.coordinator().num_layers()));
  EXPECT_EQ(plan->hash, plan->ComputeHash());
}

TEST(PlanTrainerTest, FixedPlanCoincidingWithPaperIsBitwiseIdentical) {
  const TrainerOptions paper = SmallTrainerOptions();
  const Trajectory baseline = CaptureTrajectory(paper, kIters);

  // Capture the plan paper mode resolves, then train again adopting that
  // exact plan verbatim.
  std::shared_ptr<const CommPlan> plan;
  {
    PoseidonTrainer trainer(TinyMlpFactory(), paper);
    plan = trainer.plan();
  }
  TrainerOptions fixed = paper;
  fixed.plan_mode = TrainerPlanMode::kFixed;
  fixed.fixed_plan = plan;
  const Trajectory adopted = CaptureTrajectory(fixed, kIters);

  EXPECT_TRUE(adopted == baseline)
      << "adopting paper mode's own plan changed the trajectory";
}

// The top-k density sizes every push, so a fixed run moves exactly the bytes
// of the run that produced its plan only if the plan's density is the one in
// force; the staleness bound is the one the shards enforce.
TEST(PlanTrainerTest, FixedPlanGlobalKnobsAreInForce) {
  const SyntheticDataset dataset = TinyDataset();
  auto bytes_moved = [&](PoseidonTrainer& trainer) {
    trainer.Train(dataset, 5);
    trainer.bus().FlushEgress();
    int64_t total = 0;
    for (int64_t bytes : trainer.bus().TxBytes()) {
      total += bytes;
    }
    return total;
  };

  TrainerOptions source = SmallTrainerOptions();
  source.ps_compression = PlanCodecPolicy::kTopK;
  source.topk_density = 0.5;
  source.compression_min_floats = 1;
  PoseidonTrainer planned(TinyMlpFactory(), source);
  ASSERT_EQ(planned.plan()->topk_density, 0.5);
  const int64_t expected = bytes_moved(planned);

  TrainerOptions fixed = SmallTrainerOptions();  // density 0.01, BSP
  fixed.plan_mode = TrainerPlanMode::kFixed;
  fixed.fixed_plan = planned.plan();
  PoseidonTrainer adopted(TinyMlpFactory(), fixed);
  EXPECT_EQ(bytes_moved(adopted), expected)
      << "the fixed plan's top-k density is not the one in force";

  source.staleness = 1;
  PoseidonTrainer ssp(TinyMlpFactory(), source);
  ASSERT_EQ(ssp.plan()->staleness, 1);
  fixed.fixed_plan = ssp.plan();
  PoseidonTrainer adopted_ssp(TinyMlpFactory(), fixed);
  EXPECT_EQ(adopted_ssp.coordinator().cluster().staleness, 1)
      << "the fixed plan's staleness bound is not the one in force";
}

TEST(PlanTrainerTest, AutoPlanIsDeterministicAndTrains) {
  TrainerOptions options = SmallTrainerOptions();
  options.plan_mode = TrainerPlanMode::kAuto;
  options.model_name = "tiny-mlp";

  const Trajectory first = CaptureTrajectory(options, kIters);
  const Trajectory second = CaptureTrajectory(options, kIters);
  EXPECT_TRUE(first == second) << "auto-planned training must be deterministic";
  ASSERT_GE(first.mean_losses.size(), 2u);
  EXPECT_LT(first.mean_losses.back(), first.mean_losses.front())
      << "auto-planned run failed to reduce the training loss";
}

TEST(PlanTrainerTest, AdoptPlanIsANoOpOnMatchingHash) {
  TrainerOptions options = SmallTrainerOptions();
  const SyntheticDataset dataset = TinyDataset();
  PoseidonTrainer trainer(TinyMlpFactory(), options);
  trainer.Train(dataset, 2);
  const auto before = trainer.plan();
  trainer.AdoptPlan(before);  // same hash: must not rebuild anything
  EXPECT_EQ(trainer.plan().get(), before.get());
  trainer.Train(dataset, 2);
  EXPECT_EQ(trainer.next_iter(), 4);
}

// Swapping between real plans mid-run: train under the paper plan, adopt the
// joint-auto plan at a window boundary, keep training. The swap schedule is
// fixed, so two runs must agree bitwise; and the run must agree with an
// unswapped run up to the swap point.
TEST(PlanTrainerTest, FixedSwapScheduleReproducesBitwise) {
  const TrainerOptions options = SmallTrainerOptions();
  const SyntheticDataset dataset = TinyDataset();

  auto run_with_swap = [&] {
    PoseidonTrainer trainer(TinyMlpFactory(), options);
    Trajectory trajectory;
    for (const IterationStats& stats : trainer.Train(dataset, kIters / 2)) {
      trajectory.mean_losses.push_back(stats.mean_loss);
    }
    // Swap onto the joint-auto plan for the same model and cluster shape. A
    // probe trainer resolves it exactly as kAuto mode would.
    TrainerOptions auto_options = options;
    auto_options.plan_mode = TrainerPlanMode::kAuto;
    std::shared_ptr<const CommPlan> joint_plan;
    {
      PoseidonTrainer probe(TinyMlpFactory(), auto_options);
      joint_plan = probe.plan();
    }
    trainer.AdoptPlan(joint_plan);
    for (const IterationStats& stats : trainer.Train(dataset, kIters / 2)) {
      trajectory.mean_losses.push_back(stats.mean_loss);
    }
    trainer.bus().FlushEgress();
    trajectory.final_params = AllParams(trainer.worker_net(0));
    return trajectory;
  };

  const Trajectory swapped_a = run_with_swap();
  const Trajectory swapped_b = run_with_swap();
  EXPECT_TRUE(swapped_a == swapped_b)
      << "the same swap schedule produced different trajectories";

  // Up to the swap the run is the plain paper-plan run, so the loss prefix
  // matches the never-swapped baseline bitwise. (Past the swap the joint
  // plan may route FC layers over SFB, whose receiver-side recompute sums
  // floats in a different order — deterministic, but not bitwise equal to
  // the dense-PS baseline.)
  const Trajectory baseline = CaptureTrajectory(options, kIters);
  ASSERT_GE(baseline.mean_losses.size(), static_cast<size_t>(kIters / 2));
  for (int i = 0; i < kIters / 2; ++i) {
    EXPECT_EQ(swapped_a.mean_losses[static_cast<size_t>(i)],
              baseline.mean_losses[static_cast<size_t>(i)])
        << "pre-swap loss diverged at iteration " << i;
  }
}

TEST(PlanTrainerTest, FeedbackThatNeverFiresIsBitwiseIdentical) {
  TrainerOptions off = SmallTrainerOptions();
  off.plan_mode = TrainerPlanMode::kAuto;

  TrainerOptions on = off;
  on.plan_feedback = true;
  on.replan_options.hysteresis = 1e9;  // can never trip

  const SyntheticDataset dataset = TinyDataset();
  auto run = [&](const TrainerOptions& options) {
    PoseidonTrainer trainer(TinyMlpFactory(), options);
    Trajectory trajectory;
    // Several windows so the feedback hook actually samples between them.
    for (int window = 0; window < 4; ++window) {
      for (const IterationStats& stats : trainer.Train(dataset, 2)) {
        trajectory.mean_losses.push_back(stats.mean_loss);
      }
    }
    EXPECT_EQ(trainer.replan_count(), 0);
    trainer.bus().FlushEgress();
    trajectory.final_params = AllParams(trainer.worker_net(0));
    return trajectory;
  };

  const Trajectory without = run(off);
  const Trajectory with = run(on);
  EXPECT_TRUE(with == without)
      << "link-stats observation without a replan changed the trajectory";
}

}  // namespace
}  // namespace poseidon

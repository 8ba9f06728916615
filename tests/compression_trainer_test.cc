// End-to-end tests of the compressed PS path: a real small-cluster training
// run under each wire codec (fp16 / int8 / top-k with error feedback) must
//   * converge — error feedback keeps the quantized trajectory close to the
//     raw one, and nothing may be silently dropped along the way;
//   * be bitwise reproducible — the per-(layer, clock) seeded rounding makes
//     two identical runs land on identical losses and final weights;
//   * be SIMD-dispatch invariant — scalar and vector encoders produce the
//     same bits (the PR-8 contract extended to the quantization kernels).
// Plus the plan-resolution seams: the size gate, the per-layer auto choice,
// and the server-side rejection of malformed compressed frames.
#include <gtest/gtest.h>

#include <vector>

#include "src/models/comm_cost.h"
#include "src/poseidon/trainer.h"
#include "src/simd/vec.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace {

// The tiny MLP's layers sit far below kCompressionMinFloats, so trainer
// tests drop the gate to exercise the codecs on every PS layer.
TrainerOptions CompressedOptions(PlanCodecPolicy policy, double density = 0.25) {
  TrainerOptions options = testing::SmallTrainerOptions();
  options.ps_compression = policy;
  options.topk_density = density;
  options.compression_min_floats = 1;
  return options;
}

int64_t TotalRejectedPushes(PoseidonTrainer& trainer, int num_servers) {
  int64_t total = 0;
  for (int s = 0; s < num_servers; ++s) {
    total += trainer.server(s).rejected_pushes();
  }
  return total;
}

TEST(CompressionTrainerTest, EveryCodecConvergesWithoutDrops) {
  const SyntheticDataset dataset = testing::TinyDataset();
  for (PlanCodecPolicy policy :
       {PlanCodecPolicy::kFp16, PlanCodecPolicy::kInt8,
        PlanCodecPolicy::kTopK}) {
    SCOPED_TRACE(PlanCodecPolicyName(policy));
    TrainerOptions options = CompressedOptions(policy);
    PoseidonTrainer trainer(testing::TinyMlpFactory(), options);

    // The plan actually compresses: every PS layer runs the policy's codec.
    int compressed_layers = 0;
    for (const PlanLayerChoice& choice : trainer.plan()->layers) {
      if (choice.scheme == PlannedScheme::kPS) {
        EXPECT_NE(choice.compression, GradCompression::kNone);
        ++compressed_layers;
      } else {
        EXPECT_EQ(choice.compression, GradCompression::kNone);
      }
    }
    ASSERT_GT(compressed_layers, 0);

    const std::vector<IterationStats> stats = trainer.Train(dataset, 12);
    ASSERT_EQ(stats.size(), 12u);
    EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss)
        << "compressed training did not reduce the loss";
    EXPECT_EQ(TotalRejectedPushes(trainer, options.num_servers), 0)
        << "well-formed compressed pushes must never be rejected";
  }
}

TEST(CompressionTrainerTest, QuantizedTrajectoryIsBitwiseReproducible) {
  for (PlanCodecPolicy policy :
       {PlanCodecPolicy::kFp16, PlanCodecPolicy::kInt8,
        PlanCodecPolicy::kTopK}) {
    SCOPED_TRACE(PlanCodecPolicyName(policy));
    const TrainerOptions options = CompressedOptions(policy);
    const testing::Trajectory first = testing::CaptureTrajectory(options, 8);
    const testing::Trajectory second = testing::CaptureTrajectory(options, 8);
    EXPECT_TRUE(first == second)
        << "two identical compressed runs diverged — the stochastic rounding "
           "is not a pure function of (layer, clock, index)";
  }
}

TEST(CompressionTrainerTest, QuantizedTrajectoryIsDispatchInvariant) {
  const TrainerOptions options = CompressedOptions(PlanCodecPolicy::kInt8);
  testing::Trajectory scalar_run, vector_run;
  {
    simd::ScopedLevel pinned(simd::Level::kScalar);
    scalar_run = testing::CaptureTrajectory(options, 6);
  }
  {
    simd::ScopedLevel pinned(simd::BestLevel());
    vector_run = testing::CaptureTrajectory(options, 6);
  }
  EXPECT_TRUE(scalar_run == vector_run)
      << "int8 trajectory differs between scalar and "
      << simd::LevelName(simd::BestLevel()) << " dispatch";

  const TrainerOptions fp16 = CompressedOptions(PlanCodecPolicy::kFp16);
  {
    simd::ScopedLevel pinned(simd::Level::kScalar);
    scalar_run = testing::CaptureTrajectory(fp16, 6);
  }
  {
    simd::ScopedLevel pinned(simd::BestLevel());
    vector_run = testing::CaptureTrajectory(fp16, 6);
  }
  EXPECT_TRUE(scalar_run == vector_run)
      << "fp16 trajectory differs between scalar and "
      << simd::LevelName(simd::BestLevel()) << " dispatch";
}

TEST(CompressionTrainerTest, SizeGateKeepsSmallLayersRaw) {
  // At the default gate the tiny MLP compresses nothing: the plan resolves
  // to kNone everywhere and training is the plain raw-fp32 runtime.
  TrainerOptions options = CompressedOptions(PlanCodecPolicy::kAuto);
  options.compression_min_floats = kCompressionMinFloats;
  PoseidonTrainer trainer(testing::TinyMlpFactory(), options);
  for (const PlanLayerChoice& choice : trainer.plan()->layers) {
    EXPECT_EQ(choice.compression, GradCompression::kNone);
  }
}

TEST(CompressionTrainerTest, AutoPolicyPicksTopKForPsLayers) {
  // At density 0.25 top-k costs 8 * 0.25 = 2 push bytes/float, tying fp16's
  // 2 but losing to int8's ~1.016; auto must therefore resolve int8. At
  // density 0.05 top-k (0.4 B/float) wins.
  EXPECT_EQ(BestCompression(1 << 20, 0.25), GradCompression::kInt8);
  EXPECT_EQ(BestCompression(1 << 20, 0.05), GradCompression::kTopK);
  EXPECT_EQ(BestCompression(1024, 0.05), GradCompression::kNone) << "below the gate";

  TrainerOptions options = CompressedOptions(PlanCodecPolicy::kAuto, 0.05);
  PoseidonTrainer trainer(testing::TinyMlpFactory(), options);
  int topk_layers = 0;
  for (const PlanLayerChoice& choice : trainer.plan()->layers) {
    if (choice.scheme == PlannedScheme::kPS) {
      EXPECT_EQ(choice.compression, GradCompression::kTopK);
      ++topk_layers;
    }
  }
  EXPECT_GT(topk_layers, 0);
}

TEST(CompressionTrainerTest, SspRunsUnderCompression) {
  // Staleness > 0 exercises the snapshot-free binary16 reply path (the frame
  // is a fresh snapshot either way) and the SSP release gate together.
  TrainerOptions options = CompressedOptions(PlanCodecPolicy::kFp16);
  options.staleness = 1;
  PoseidonTrainer trainer(testing::TinyMlpFactory(), options);
  const std::vector<IterationStats> stats = trainer.Train(testing::TinyDataset(), 10);
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
  EXPECT_EQ(TotalRejectedPushes(trainer, options.num_servers), 0);
}

}  // namespace
}  // namespace poseidon

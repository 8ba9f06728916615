// Tests for the communication codecs: sufficient factors (exact) and 1-bit
// quantization with error feedback (approximate but unbiased over time).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/common/rng.h"
#include "src/simd/vec.h"
#include "src/tensor/onebit.h"
#include "src/tensor/ops.h"
#include "src/tensor/sufficient_factor.h"
#include "src/transport/codec.h"

namespace poseidon {
namespace {

// ------------------------------------------------------ sufficient factors --

TEST(SufficientFactorTest, ReconstructionIsExact) {
  Rng rng(3);
  const int64_t k = 8;
  const int64_t m = 12;
  const int64_t n = 20;
  Tensor errors = Tensor::RandomUniform({k, m}, -1.0f, 1.0f, rng);
  Tensor inputs = Tensor::RandomUniform({k, n}, -1.0f, 1.0f, rng);

  // Dense gradient: dW = errors^T * inputs.
  Tensor dense({m, n});
  GemmTransA(errors, inputs, &dense);

  const SufficientFactors factors = MakeSufficientFactors(errors, inputs);
  Tensor recon({m, n});
  ReconstructGradient(factors, &recon);
  EXPECT_DOUBLE_EQ(MaxAbsDiff(dense, recon), 0.0)
      << "SF reconstruction must be bitwise exact";
}

TEST(SufficientFactorTest, AccumulateAddsWithoutZeroing) {
  Rng rng(5);
  Tensor errors = Tensor::RandomUniform({4, 6}, -1.0f, 1.0f, rng);
  Tensor inputs = Tensor::RandomUniform({4, 5}, -1.0f, 1.0f, rng);
  const SufficientFactors factors = MakeSufficientFactors(errors, inputs);

  Tensor once({6, 5});
  ReconstructGradient(factors, &once);
  Tensor twice = Tensor::Zeros({6, 5});
  AccumulateGradient(factors, &twice);
  AccumulateGradient(factors, &twice);
  for (int64_t i = 0; i < once.size(); ++i) {
    EXPECT_FLOAT_EQ(twice[i], 2.0f * once[i]);
  }
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// The SF wire path reconstructs through the same GemmTransB kernel as
// ReconstructGradient, so decoding an encoded frame gives the same bits — on
// every backend and on both lane axes (m = 8 or 16 puts rows in the lanes,
// other m columns; the rest are ragged tails). The syncer's fused aggregate
// (AccumulateReconstruct into a zeroed tensor, frame after frame) gives the
// bits of separate reconstructions summed with Axpy(1.0f, ...).
TEST(SufficientFactorTest, FrameReconstructionIsBitwiseReconstructGradient) {
  Rng rng(17);
  struct Shape {
    int64_t m, n, k;
  };
  for (simd::Level level : simd::SupportedLevels()) {
    const simd::ScopedLevel pinned(level);
    for (const Shape& s : {Shape{8, 40, 8}, Shape{16, 33, 5}, Shape{37, 70, 8},
                           Shape{6, 20, 6}}) {
      SCOPED_TRACE(std::string(simd::LevelName(level)) + " " + std::to_string(s.m) +
                   "x" + std::to_string(s.n) + " rank " + std::to_string(s.k));
      Tensor separate = Tensor::Zeros({s.m, s.n});
      Tensor fused = Tensor::Zeros({s.m, s.n});
      for (int worker = 0; worker < 2; ++worker) {
        const SufficientFactors factors =
            MakeSufficientFactors(Tensor::RandomUniform({s.k, s.m}, -1.0f, 1.0f, rng),
                                  Tensor::RandomUniform({s.k, s.n}, -1.0f, 1.0f, rng));
        Tensor want({s.m, s.n});
        ReconstructGradient(factors, &want);
        const Payload frame = SufficientFactorCodec::Encode(factors, nullptr, 0);
        Tensor got({s.m, s.n});
        ASSERT_TRUE(SufficientFactorCodec::DecodeReconstruct(frame.View(), &got).ok());
        EXPECT_TRUE(SameBits(want, got));

        Axpy(1.0f, want, &separate);
        StatusOr<SufficientFactorCodec::Frame> parsed =
            SufficientFactorCodec::Parse(frame.View());
        ASSERT_TRUE(parsed.ok());
        ASSERT_TRUE(SufficientFactorCodec::AccumulateReconstruct(*parsed, &fused).ok());
      }
      EXPECT_TRUE(SameBits(separate, fused));
    }
  }
}

TEST(SufficientFactorTest, WireBytesBeatDenseForWideLayers) {
  // VGG19's fc6 (4096 x 25088) at batch 32: SFs are ~86x smaller.
  Rng rng(7);
  Tensor errors = Tensor::RandomUniform({32, 64}, -1.0f, 1.0f, rng);   // scaled stand-in
  Tensor inputs = Tensor::RandomUniform({32, 392}, -1.0f, 1.0f, rng);
  const SufficientFactors factors = MakeSufficientFactors(errors, inputs);
  EXPECT_LT(factors.WireBytes(), factors.DenseWireBytes());
  EXPECT_EQ(factors.rank(), 32);
  EXPECT_EQ(factors.rows(), 64);
  EXPECT_EQ(factors.cols(), 392);
}

TEST(SufficientFactorTest, RankOneOuterProduct) {
  Tensor errors = Tensor::FromVector({1, 2}, {2, 3});
  Tensor inputs = Tensor::FromVector({1, 3}, {1, 10, 100});
  const SufficientFactors factors = MakeSufficientFactors(errors, inputs);
  Tensor recon({2, 3});
  ReconstructGradient(factors, &recon);
  EXPECT_FLOAT_EQ(recon.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(recon.At(0, 2), 200.0f);
  EXPECT_FLOAT_EQ(recon.At(1, 1), 30.0f);
}

// ------------------------------------------------------------- 1-bit codec --

TEST(OneBitTest, DecodePlusResidualRecoversInputExactly) {
  // Error feedback invariant: Decode(Encode(g)) + residual' == g + residual.
  Rng rng(11);
  Tensor grad = Tensor::RandomUniform({16, 24}, -1.0f, 1.0f, rng);
  OneBitQuantizer quantizer;
  const OneBitEncoded encoded = quantizer.Encode(grad);
  const Tensor decoded = OneBitQuantizer::Decode(encoded);
  for (int64_t i = 0; i < grad.size(); ++i) {
    EXPECT_NEAR(decoded[i] + quantizer.residual()[i], grad[i], 1e-6);
  }
}

TEST(OneBitTest, SignsArePreserved) {
  Tensor grad = Tensor::FromVector({2, 2}, {1.0f, -2.0f, 3.0f, -4.0f});
  OneBitQuantizer quantizer;
  const Tensor decoded = OneBitQuantizer::Decode(quantizer.Encode(grad));
  EXPECT_GE(decoded.At(0, 0), 0.0f);
  EXPECT_LT(decoded.At(0, 1), 0.0f);
  EXPECT_GE(decoded.At(1, 0), 0.0f);
  EXPECT_LT(decoded.At(1, 1), 0.0f);
}

TEST(OneBitTest, ColumnLevelsAreClassMeans) {
  // One column, values {1, 3, -2}: positive level (1+3)/2 = 2, negative -2.
  Tensor grad = Tensor::FromVector({3, 1}, {1.0f, 3.0f, -2.0f});
  OneBitQuantizer quantizer;
  const OneBitEncoded encoded = quantizer.Encode(grad);
  EXPECT_FLOAT_EQ(encoded.positive_level[0], 2.0f);
  EXPECT_FLOAT_EQ(encoded.negative_level[0], -2.0f);
}

TEST(OneBitTest, WireSizeIsRoughly32xSmaller) {
  Rng rng(13);
  Tensor grad = Tensor::RandomUniform({256, 256}, -1.0f, 1.0f, rng);
  OneBitQuantizer quantizer;
  const OneBitEncoded encoded = quantizer.Encode(grad);
  const int64_t dense_bytes = grad.size() * 4;
  EXPECT_LT(encoded.WireBytes(), dense_bytes / 20);  // bits + per-column levels
}

TEST(OneBitTest, ResidualCarriesAcrossSteps) {
  // Feeding the same gradient repeatedly: with error feedback, the running
  // sum of decoded outputs approaches the running sum of inputs.
  Rng rng(17);
  Tensor grad = Tensor::RandomUniform({8, 8}, -1.0f, 1.0f, rng);
  OneBitQuantizer quantizer;
  Tensor decoded_sum = Tensor::Zeros({8, 8});
  const int steps = 50;
  for (int s = 0; s < steps; ++s) {
    const Tensor decoded = OneBitQuantizer::Decode(quantizer.Encode(grad));
    Axpy(1.0f, decoded, &decoded_sum);
  }
  for (int64_t i = 0; i < grad.size(); ++i) {
    // Exact up to the final residual, which is bounded.
    EXPECT_NEAR(decoded_sum[i], steps * grad[i], 2.0f);
  }
}

TEST(OneBitTest, AllPositiveColumn) {
  Tensor grad = Tensor::FromVector({3, 1}, {1.0f, 2.0f, 3.0f});
  OneBitQuantizer quantizer;
  const OneBitEncoded encoded = quantizer.Encode(grad);
  EXPECT_FLOAT_EQ(encoded.positive_level[0], 2.0f);
  EXPECT_FLOAT_EQ(encoded.negative_level[0], 0.0f);  // empty class
  const Tensor decoded = OneBitQuantizer::Decode(encoded);
  EXPECT_FLOAT_EQ(decoded.At(1, 0), 2.0f);
}

TEST(OneBitTest, ZeroGradientIsStable) {
  Tensor grad = Tensor::Zeros({4, 4});
  OneBitQuantizer quantizer;
  const Tensor decoded = OneBitQuantizer::Decode(quantizer.Encode(grad));
  for (int64_t i = 0; i < decoded.size(); ++i) {
    EXPECT_FLOAT_EQ(decoded[i], 0.0f);
  }
  EXPECT_DOUBLE_EQ(Norm(quantizer.residual()), 0.0);
}

}  // namespace
}  // namespace poseidon

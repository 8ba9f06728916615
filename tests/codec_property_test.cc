// Property tests for the wire-codec registry: random tensors through each
// Codec's encode -> wire -> decode, checking bit-exactness (raw floats), the
// error-feedback residual invariant and reference-decoder equality (1-bit),
// and exact rank-k reconstruction (sufficient factors) — plus fuzzed
// truncated/corrupt frames, which must come back as Status, never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/simd/quant.h"
#include "src/tensor/ops.h"
#include "src/transport/codec.h"

namespace poseidon {
namespace {

// Models the wire hop: the receiver sees the same words in a different
// slab (a batched frame is memcpy'd by the NIC, never reinterpreted).
PayloadView Transit(const Payload& frame, Payload* storage) {
  *storage = Payload::Allocate(frame.size());
  std::memcpy(storage->data(), frame.data(),
              static_cast<size_t>(frame.size()) * sizeof(float));
  return storage->View();
}

// ------------------------------------------------------------- raw floats --

TEST(CodecPropertyTest, RawFloatRoundTripIsBitExact) {
  Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t n = 1 + static_cast<int64_t>(rng.NextDouble() * 300);
    Tensor values = Tensor::RandomUniform({n}, -10.0f, 10.0f, rng);
    Payload frame = RawFloatCodec::Encode(values.data(), n);
    Payload wire;
    const PayloadView view = Transit(frame, &wire);

    Tensor decoded;
    const Status status = CodecRegistry::Get(WireCodec::kRawFloat).Decode(view, &decoded,
                                                                          nullptr);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(decoded.size(), n);
    EXPECT_DOUBLE_EQ(MaxAbsDiff(values.Reshaped({n}), decoded), 0.0);
  }
}

// ------------------------------------------------------------------- 1-bit --

TEST(CodecPropertyTest, OneBitMatchesReferenceDecoderBitwise) {
  Rng rng(202);
  for (int trial = 0; trial < 5; ++trial) {
    const int64_t rows = 1 + static_cast<int64_t>(rng.NextDouble() * 40);
    const int64_t cols = 1 + static_cast<int64_t>(rng.NextDouble() * 40);
    Tensor grad = Tensor::RandomUniform({rows, cols}, -1.0f, 1.0f, rng);

    OneBitQuantizer through_codec;
    OneBitQuantizer reference;
    Payload frame = OneBitCodec::Encode(grad, &through_codec, nullptr, 0);
    const Tensor want = OneBitQuantizer::Decode(reference.Encode(grad));

    Payload wire;
    Tensor got;
    const Status status = OneBitCodec::DecodeDense(Transit(frame, &wire), &got);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_DOUBLE_EQ(MaxAbsDiff(want, got), 0.0)
        << "codec decode must be bitwise identical to OneBitQuantizer::Decode";
    // Both quantizers saw the same input: identical residuals.
    EXPECT_DOUBLE_EQ(MaxAbsDiff(through_codec.residual(), reference.residual()), 0.0);
  }
}

TEST(CodecPropertyTest, OneBitResidualInvariantHoldsAcrossTheWire) {
  // Error feedback: Decode(frame) + residual' == gradient + residual.
  Rng rng(203);
  Tensor grad = Tensor::RandomUniform({16, 24}, -1.0f, 1.0f, rng);
  OneBitQuantizer quantizer;
  Payload frame = OneBitCodec::Encode(grad, &quantizer, nullptr, 0);
  Payload wire;
  Tensor decoded;
  ASSERT_TRUE(OneBitCodec::DecodeDense(Transit(frame, &wire), &decoded).ok());
  for (int64_t i = 0; i < grad.size(); ++i) {
    EXPECT_NEAR(decoded[i] + quantizer.residual()[i], grad[i], 1e-6);
  }
}

TEST(CodecPropertyTest, OneBitBiasRidesInFrame) {
  Rng rng(204);
  Tensor grad = Tensor::RandomUniform({8, 6}, -1.0f, 1.0f, rng);
  const std::vector<float> bias = {0.5f, -1.25f, 3.0f, 0.0f, -7.5f, 2.25f, 1.0f, -0.5f};
  OneBitQuantizer quantizer;
  Payload frame = OneBitCodec::Encode(grad, &quantizer, bias.data(),
                                      static_cast<int64_t>(bias.size()));
  Payload wire;
  Tensor dense;
  std::vector<float> decoded_bias;
  const Status status = CodecRegistry::Get(WireCodec::kOneBit)
                            .Decode(Transit(frame, &wire), &dense, &decoded_bias);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded_bias, bias);
}

// ------------------------------------------------------ sufficient factors --

TEST(CodecPropertyTest, SufficientFactorReconstructionIsExact) {
  Rng rng(303);
  for (int trial = 0; trial < 5; ++trial) {
    const int64_t k = 1 + static_cast<int64_t>(rng.NextDouble() * 16);
    const int64_t m = 1 + static_cast<int64_t>(rng.NextDouble() * 30);
    const int64_t n = 1 + static_cast<int64_t>(rng.NextDouble() * 30);
    Tensor errors = Tensor::RandomUniform({k, m}, -1.0f, 1.0f, rng);
    Tensor inputs = Tensor::RandomUniform({k, n}, -1.0f, 1.0f, rng);
    const SufficientFactors factors = MakeSufficientFactors(errors, inputs);

    Tensor want({m, n});
    ReconstructGradient(factors, &want);

    Payload frame = SufficientFactorCodec::Encode(factors, nullptr, 0);
    Payload wire;
    Tensor got({m, n});
    const Status status =
        SufficientFactorCodec::DecodeReconstruct(Transit(frame, &wire), &got);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_DOUBLE_EQ(MaxAbsDiff(want, got), 0.0)
        << "frame reconstruction must be bitwise identical to ReconstructGradient";
  }
}

TEST(CodecPropertyTest, SufficientFactorRankOne) {
  Tensor errors = Tensor::FromVector({1, 2}, {2, 3});
  Tensor inputs = Tensor::FromVector({1, 3}, {1, 10, 100});
  Payload frame =
      SufficientFactorCodec::Encode(MakeSufficientFactors(errors, inputs), nullptr, 0);
  Tensor recon({2, 3});
  ASSERT_TRUE(SufficientFactorCodec::DecodeReconstruct(frame.View(), &recon).ok());
  EXPECT_FLOAT_EQ(recon.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(recon.At(0, 2), 200.0f);
  EXPECT_FLOAT_EQ(recon.At(1, 1), 30.0f);
}

// -------------------------------------------------------------------- fp16 --

TEST(CodecPropertyTest, Fp16ReplyRoundTripIsWithinHalfAnUlp) {
  // Round-to-nearest: every in-range value comes back within half a binary16
  // ulp (2^-11 relative); magnitudes below 2^-14 flush to zero.
  Rng rng(601);
  for (int trial = 0; trial < 8; ++trial) {
    const int64_t n = 1 + static_cast<int64_t>(rng.NextDouble() * 700);
    Tensor params = Tensor::RandomUniform({n}, -4.0f, 4.0f, rng);
    Payload frame = Fp16Codec::EncodeRn(params.data(), n);
    Payload wire;
    Tensor decoded;
    ASSERT_TRUE(Fp16Codec::DecodeDense(Transit(frame, &wire), &decoded).ok());
    ASSERT_EQ(decoded.size(), n);
    for (int64_t i = 0; i < n; ++i) {
      const float x = params[i];
      EXPECT_LE(std::abs(decoded[i] - x), std::max(std::abs(x) * 0x1p-11f, 0x1p-14f))
          << "at " << i;
    }
  }
}

TEST(CodecPropertyTest, Fp16ReplyEncodingIsDeterministicAndShardInvariant) {
  Rng rng(602);
  const int64_t n = 513;
  Tensor params = Tensor::RandomUniform({n}, -2.0f, 2.0f, rng);
  Payload a = Fp16Codec::EncodeRn(params.data(), n);
  Payload b = Fp16Codec::EncodeRn(params.data(), n);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * 4), 0)
      << "identical inputs (odd n: one padding half) must give identical frames";

  // Striping the layer across shards must not change any element's bits:
  // the second half encoded alone matches the corresponding halves of the
  // whole-layer frame.
  const int64_t split = 200;
  Payload tail = Fp16Codec::EncodeRn(params.data() + split, n - split);
  StatusOr<Fp16Codec::Frame> whole = Fp16Codec::Parse(a.View());
  StatusOr<Fp16Codec::Frame> part = Fp16Codec::Parse(tail.View());
  ASSERT_TRUE(whole.ok() && part.ok());
  for (int64_t i = 0; i < n - split; ++i) {
    EXPECT_EQ(whole->half(split + i), part->half(i)) << "at " << i;
  }
}

TEST(CodecPropertyTest, Fp16OutOfRangeValuesClampAndFlush) {
  const std::vector<float> extremes = {1e9f, -1e9f, 65504.0f, -70000.0f,
                                       1e-8f, -1e-8f, 0.0f, -0.0f};
  const int64_t n = static_cast<int64_t>(extremes.size());
  Payload frame = Fp16Codec::EncodeRn(extremes.data(), n);
  Tensor decoded;
  ASSERT_TRUE(Fp16Codec::DecodeDense(frame.View(), &decoded).ok());
  EXPECT_FLOAT_EQ(decoded[0], 65504.0f);   // clamp, not inf
  EXPECT_FLOAT_EQ(decoded[1], -65504.0f);
  EXPECT_FLOAT_EQ(decoded[2], 65504.0f);   // max finite half is exact
  EXPECT_FLOAT_EQ(decoded[3], -65504.0f);
  EXPECT_FLOAT_EQ(decoded[4], 0.0f);       // subnormal flush
  EXPECT_FLOAT_EQ(decoded[5], 0.0f);
  EXPECT_FLOAT_EQ(decoded[6], 0.0f);
  EXPECT_FLOAT_EQ(decoded[7], 0.0f);
}

// -------------------------------------------------------------------- int8 --

TEST(CodecPropertyTest, Int8ErrorBoundedByChunkScale) {
  Rng rng(701);
  for (int trial = 0; trial < 8; ++trial) {
    const int64_t n = 1 + static_cast<int64_t>(rng.NextDouble() * 900);
    Tensor quant = Tensor::RandomUniform({n}, -3.0f, 3.0f, rng);
    std::vector<float> residual(static_cast<size_t>(n), 0.0f);
    Payload frame = Int8Codec::EncodeSr(quant.data(), n, /*seed=*/trial, 0,
                                        residual.data(), nullptr, 0);
    Payload wire;
    Tensor decoded;
    ASSERT_TRUE(Int8Codec::DecodeDense(Transit(frame, &wire), &decoded).ok());
    ASSERT_EQ(decoded.size(), n);
    StatusOr<Int8Codec::Frame> parsed = Int8Codec::Parse(frame.View());
    ASSERT_TRUE(parsed.ok());
    for (int64_t i = 0; i < n; ++i) {
      const float scale = parsed->scales.data()[i / simd::kInt8ChunkSize];
      // Stochastic rounding moves at most one quantization step.
      EXPECT_LE(std::abs(decoded[i] - quant[i]), scale * 1.0001f) << "at " << i;
      EXPECT_NEAR(decoded[i] + residual[static_cast<size_t>(i)], quant[i], 1e-5);
    }
  }
}

TEST(CodecPropertyTest, Int8BadChunksDecodeToZeroAndCarryResidual) {
  // A chunk with a non-finite max|x| (or all zeros) gets scale 0: it decodes
  // to zeros and the residual keeps the finite content for the next clock.
  std::vector<float> quant(static_cast<size_t>(simd::kInt8ChunkSize) * 2, 0.0f);
  quant[3] = std::numeric_limits<float>::infinity();  // poisons chunk 0
  quant[5] = 1.5f;
  quant[static_cast<size_t>(simd::kInt8ChunkSize) + 7] = -2.0f;  // chunk 1 is fine
  std::vector<float> residual(quant.size(), 0.0f);
  const int64_t n = static_cast<int64_t>(quant.size());
  Payload frame = Int8Codec::EncodeSr(quant.data(), n, 9, 0, residual.data(), nullptr, 0);
  Tensor decoded;
  ASSERT_TRUE(Int8Codec::DecodeDense(frame.View(), &decoded).ok());
  EXPECT_FLOAT_EQ(decoded[5], 0.0f) << "poisoned chunk must decode to zeros";
  EXPECT_FLOAT_EQ(residual[5], 1.5f) << "finite content must survive in the residual";
  EXPECT_NE(decoded[simd::kInt8ChunkSize + 7], 0.0f) << "healthy chunk still encodes";
}

TEST(CodecPropertyTest, Int8EncodingIsSeedDeterministic) {
  Rng rng(702);
  const int64_t n = 700;
  Tensor quant = Tensor::RandomUniform({n}, -1.0f, 1.0f, rng);
  Payload a = Int8Codec::EncodeSr(quant.data(), n, 5, 128, nullptr, nullptr, 0);
  Payload b = Int8Codec::EncodeSr(quant.data(), n, 5, 128, nullptr, nullptr, 0);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * 4), 0);
}

// ------------------------------------------------------------------- top-k --

TEST(CodecPropertyTest, TopKSelectsLargestMagnitudesExactly) {
  Rng rng(801);
  for (int trial = 0; trial < 8; ++trial) {
    const int64_t n = 16 + static_cast<int64_t>(rng.NextDouble() * 500);
    const int64_t k = 1 + static_cast<int64_t>(rng.NextDouble() * (n - 1));
    Tensor quant = Tensor::RandomUniform({n}, -5.0f, 5.0f, rng);
    std::vector<float> residual(static_cast<size_t>(n), 0.0f);
    Payload frame = TopKCodec::Encode(quant.data(), n, k, residual.data(), nullptr, 0);
    Payload wire;
    StatusOr<TopKCodec::Frame> parsed = TopKCodec::Parse(Transit(frame, &wire));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed->k, k);

    // Selected values are sent exact, with zero residual; every unselected
    // coordinate keeps its full value in the residual. No selected magnitude
    // may be smaller than an unselected one.
    std::vector<bool> selected(static_cast<size_t>(n), false);
    float min_selected = std::numeric_limits<float>::infinity();
    for (int64_t i = 0; i < k; ++i) {
      const int64_t idx = parsed->index(i);
      selected[static_cast<size_t>(idx)] = true;
      EXPECT_EQ(parsed->values.data()[i], quant[idx]) << "values must be exact";
      EXPECT_FLOAT_EQ(residual[static_cast<size_t>(idx)], 0.0f);
      min_selected = std::min(min_selected, std::abs(quant[idx]));
    }
    for (int64_t i = 0; i < n; ++i) {
      if (!selected[static_cast<size_t>(i)]) {
        EXPECT_EQ(residual[static_cast<size_t>(i)], quant[i]);
        EXPECT_LE(std::abs(quant[i]), min_selected);
      }
    }

    Tensor decoded;
    ASSERT_TRUE(TopKCodec::DecodeDense(wire.View(), &decoded).ok());
    ASSERT_EQ(decoded.size(), n);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(decoded[i], selected[static_cast<size_t>(i)] ? quant[i] : 0.0f);
    }
  }
}

TEST(CodecPropertyTest, TopKBreaksTiesInIndexOrder) {
  const std::vector<float> quant = {1.0f, -1.0f, 0.5f, 1.0f, -1.0f, 1.0f};
  std::vector<float> residual(quant.size(), 0.0f);
  Payload frame = TopKCodec::Encode(quant.data(), 6, /*k=*/3, residual.data(), nullptr, 0);
  StatusOr<TopKCodec::Frame> parsed = TopKCodec::Parse(frame.View());
  ASSERT_TRUE(parsed.ok());
  // Five elements tie at |1.0|; the three lowest indices win, in order.
  EXPECT_EQ(parsed->index(0), 0);
  EXPECT_EQ(parsed->index(1), 1);
  EXPECT_EQ(parsed->index(2), 3);
}

// A stripe of a layer-wide top-k selection may hold no selected element:
// its frame has k = 0 and decodes to zeros plus its bias trailer.
TEST(CodecPropertyTest, TopKFrameWithNoElementRoundTrips) {
  const std::vector<float> quant = {0.25f, -0.5f, 0.75f, -1.0f, 0.125f};
  const std::vector<float> bias = {2.0f, -3.0f};
  std::vector<float> residual(quant.size(), 9.0f);
  Payload frame = TopKCodec::Encode(quant.data(), 5, /*k=*/0, residual.data(), bias.data(), 2);
  EXPECT_EQ(frame.size(), 3 + 2) << "header and bias, no (index, value) pairs";
  EXPECT_EQ(residual, quant) << "nothing sent: the whole slice carries over";
  Payload wire;
  const PayloadView view = Transit(frame, &wire);
  StatusOr<TopKCodec::Frame> parsed = TopKCodec::Parse(view);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->n, 5);
  EXPECT_EQ(parsed->k, 0);
  const StatusOr<int64_t> floats = CodecRegistry::Get(WireCodec::kTopK).Validate(view);
  ASSERT_TRUE(floats.ok());
  EXPECT_EQ(*floats, 5 + 2);
  Tensor dense;
  std::vector<float> decoded_bias;
  ASSERT_TRUE(CodecRegistry::Get(WireCodec::kTopK).Decode(view, &dense, &decoded_bias).ok());
  ASSERT_EQ(dense.size(), 5);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(dense[i], 0.0f);
  }
  EXPECT_EQ(decoded_bias, bias);
}

// Cutting one layer-wide selection into per-stripe frames (what the syncer
// sends for a striped top-k layer) sends exactly the whole-layer frame's
// elements and leaves exactly its residual, wherever the cuts fall.
TEST(CodecPropertyTest, TopKStripesOfOneSelectionMatchTheWholeFrame) {
  Rng rng(803);
  const int64_t n = 700;
  const int64_t k = 37;
  Tensor quant = Tensor::RandomUniform({n}, -2.0f, 2.0f, rng);
  for (int64_t i = 0; i < n; i += 50) {
    quant[i] = 1.5f;  // ties at the threshold straddle the cuts
  }
  std::vector<float> whole_residual(static_cast<size_t>(n));
  Payload whole = TopKCodec::Encode(quant.data(), n, k, whole_residual.data(), nullptr, 0);
  Tensor want;
  ASSERT_TRUE(TopKCodec::DecodeDense(whole.View(), &want).ok());

  const std::vector<int64_t> selected = TopKCodec::Select(quant.data(), n, k);
  for (const std::vector<int64_t>& cuts :
       {std::vector<int64_t>{0, 256, 512, n}, std::vector<int64_t>{0, 1, 2, 699, n}}) {
    std::vector<float> residual(static_cast<size_t>(n), -1.0f);
    std::vector<float> got(static_cast<size_t>(n), -1.0f);
    int64_t sent = 0;
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      const int64_t begin = cuts[c];
      const int64_t length = cuts[c + 1] - begin;
      const auto first = std::lower_bound(selected.begin(), selected.end(), begin);
      const auto last = std::lower_bound(first, selected.end(), begin + length);
      Payload stripe = TopKCodec::EncodeSelected(
          quant.data() + begin, length, selected.data() + (first - selected.begin()),
          last - first, begin, residual.data() + begin, nullptr, 0);
      Tensor dense;
      ASSERT_TRUE(TopKCodec::DecodeDense(stripe.View(), &dense).ok());
      std::copy(dense.data(), dense.data() + length, got.data() + begin);
      sent += last - first;
    }
    EXPECT_EQ(sent, k);
    EXPECT_EQ(got, std::vector<float>(want.data(), want.data() + n));
    EXPECT_EQ(residual, whole_residual);
  }
}

TEST(CodecPropertyTest, TopKRejectsNonIncreasingIndices) {
  const std::vector<float> quant = {3.0f, 2.0f, 1.0f, 4.0f};
  Payload frame = TopKCodec::Encode(quant.data(), 4, 2, nullptr, nullptr, 0);
  // Swap the two (sorted) index words: Parse must reject the frame.
  StatusOr<TopKCodec::Frame> parsed = TopKCodec::Parse(frame.View());
  ASSERT_TRUE(parsed.ok());
  uint32_t i0, i1;
  std::memcpy(&i0, frame.data() + 3, 4);
  std::memcpy(&i1, frame.data() + 4, 4);
  std::memcpy(frame.data() + 3, &i1, 4);
  std::memcpy(frame.data() + 4, &i0, 4);
  EXPECT_FALSE(TopKCodec::Parse(frame.View()).ok());
  Tensor dense;
  EXPECT_FALSE(TopKCodec::DecodeDense(frame.View(), &dense).ok());
}

// -------------------------------------------------- error-feedback convergence --

// Iterated quantize-with-residual of a constant gradient: the mean of the
// decoded transmissions converges to the true gradient for every codec. For
// top-k this is the "every coordinate eventually escapes" property — with
// k = 1 of 8 the residual accumulates each skipped coordinate until it wins.
TEST(CodecPropertyTest, ErrorFeedbackMeansConvergeToTrueGradient) {
  const std::vector<float> grad = {0.011f, -0.007f, 0.0301f, -0.052f,
                                   0.0009f, 0.0404f, -0.0203f, 0.0101f};
  const int64_t n = static_cast<int64_t>(grad.size());
  const int rounds = 400;
  for (int mode = 0; mode < 2; ++mode) {
    SCOPED_TRACE(mode == 0 ? "int8" : "topk");
    std::vector<float> residual(grad.size(), 0.0f);
    std::vector<double> applied(grad.size(), 0.0);
    for (int t = 0; t < rounds; ++t) {
      std::vector<float> quant = grad;
      for (size_t i = 0; i < quant.size(); ++i) {
        quant[i] += residual[i];
      }
      Payload frame;
      if (mode == 0) {
        frame = Int8Codec::EncodeSr(quant.data(), n, static_cast<uint32_t>(t), 0,
                                    residual.data(), nullptr, 0);
      } else {
        frame = TopKCodec::Encode(quant.data(), n, /*k=*/1, residual.data(), nullptr, 0);
      }
      Tensor decoded;
      const Codec& codec =
          CodecRegistry::Get(mode == 0 ? WireCodec::kInt8 : WireCodec::kTopK);
      ASSERT_TRUE(codec.Decode(frame.View(), &decoded, nullptr).ok());
      for (int64_t i = 0; i < n; ++i) {
        applied[static_cast<size_t>(i)] += decoded[i];
      }
    }
    for (size_t i = 0; i < grad.size(); ++i) {
      EXPECT_NEAR(applied[i] / rounds, grad[i], 5e-4)
          << "coordinate " << i << " did not converge under error feedback";
    }
  }
}

// ------------------------------------------------------------------ fuzzing --

// Every truncation of a valid frame must fail with a Status, never crash.
void ExpectAllTruncationsFail(const Codec& codec, const Payload& frame) {
  for (int64_t len = 0; len < frame.size(); ++len) {
    const PayloadView truncated = frame.View(0, len);
    const StatusOr<int64_t> validated = codec.Validate(truncated);
    EXPECT_FALSE(validated.ok()) << codec.name() << " accepted a frame truncated to "
                                 << len << "/" << frame.size() << " words";
    Tensor dense;
    std::vector<float> bias;
    EXPECT_FALSE(codec.Decode(truncated, &dense, &bias).ok());
  }
}

TEST(CodecPropertyTest, TruncatedOneBitFramesReturnStatus) {
  Rng rng(404);
  Tensor grad = Tensor::RandomUniform({5, 9}, -1.0f, 1.0f, rng);
  OneBitQuantizer quantizer;
  const std::vector<float> bias = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  Payload frame = OneBitCodec::Encode(grad, &quantizer, bias.data(), 5);
  ExpectAllTruncationsFail(CodecRegistry::Get(WireCodec::kOneBit), frame);
}

TEST(CodecPropertyTest, TruncatedSufficientFactorFramesReturnStatus) {
  Rng rng(405);
  Tensor errors = Tensor::RandomUniform({4, 7}, -1.0f, 1.0f, rng);
  Tensor inputs = Tensor::RandomUniform({4, 11}, -1.0f, 1.0f, rng);
  Payload frame = SufficientFactorCodec::Encode(MakeSufficientFactors(errors, inputs),
                                                nullptr, 0);
  ExpectAllTruncationsFail(CodecRegistry::Get(WireCodec::kSufficientFactor), frame);
}

TEST(CodecPropertyTest, TruncatedCompressedFramesReturnStatus) {
  Rng rng(406);
  const int64_t n = 73;
  Tensor quant = Tensor::RandomUniform({n}, -1.0f, 1.0f, rng);
  const std::vector<float> bias = {1.0f, -2.0f, 3.0f};
  Payload fp16 = Fp16Codec::EncodeRn(quant.data(), n);
  ExpectAllTruncationsFail(CodecRegistry::Get(WireCodec::kFp16), fp16);
  Payload int8 = Int8Codec::EncodeSr(quant.data(), n, 1, 0, nullptr, bias.data(), 3);
  ExpectAllTruncationsFail(CodecRegistry::Get(WireCodec::kInt8), int8);
  Payload topk = TopKCodec::Encode(quant.data(), n, 9, nullptr, bias.data(), 3);
  ExpectAllTruncationsFail(CodecRegistry::Get(WireCodec::kTopK), topk);
}

TEST(CodecPropertyTest, FuzzedHeadersNeverCrash) {
  // Random junk words as frames: decode must either succeed (self-consistent
  // junk) or return a Status; it must never abort or read out of bounds.
  Rng rng(506);
  for (WireCodec id : CodecRegistry::Ids()) {
    const Codec& codec = CodecRegistry::Get(id);
    for (int trial = 0; trial < 200; ++trial) {
      const int64_t words = static_cast<int64_t>(rng.NextDouble() * 64);
      Payload junk = Payload::Allocate(words);
      for (int64_t i = 0; i < words; ++i) {
        const uint32_t bits = static_cast<uint32_t>(rng.NextDouble() * 4294967295.0);
        std::memcpy(junk.data() + i, &bits, sizeof(bits));
      }
      const StatusOr<int64_t> validated = codec.Validate(junk.View());
      Tensor dense;
      std::vector<float> bias;
      const Status decoded = codec.Decode(junk.View(), &dense, &bias);
      EXPECT_EQ(validated.ok(), decoded.ok())
          << codec.name() << ": Validate and Decode must agree on fuzzed input";
    }
  }
}

TEST(CodecPropertyTest, NegativeDimensionsAreRejected) {
  Payload frame = Payload::Allocate(8);
  const uint32_t negative = 0x80000001u;  // -2147483647 as int32
  std::memcpy(frame.data(), &negative, sizeof(negative));
  Tensor dense;
  EXPECT_FALSE(OneBitCodec::DecodeDense(frame.View(), &dense).ok());
  Tensor out({1, 1});
  EXPECT_FALSE(SufficientFactorCodec::DecodeReconstruct(frame.View(), &out).ok());
}

// ------------------------------------------------------------------ registry --

TEST(CodecPropertyTest, RegistryServesAllBuiltins) {
  const std::vector<WireCodec> ids = CodecRegistry::Ids();
  ASSERT_GE(ids.size(), 6u);
  EXPECT_EQ(CodecRegistry::Get(WireCodec::kRawFloat).id(), WireCodec::kRawFloat);
  EXPECT_EQ(CodecRegistry::Get(WireCodec::kOneBit).id(), WireCodec::kOneBit);
  EXPECT_EQ(CodecRegistry::Get(WireCodec::kSufficientFactor).id(),
            WireCodec::kSufficientFactor);
  EXPECT_EQ(CodecRegistry::Get(WireCodec::kFp16).id(), WireCodec::kFp16);
  EXPECT_EQ(CodecRegistry::Get(WireCodec::kInt8).id(), WireCodec::kInt8);
  EXPECT_EQ(CodecRegistry::Get(WireCodec::kTopK).id(), WireCodec::kTopK);
  EXPECT_EQ(CodecRegistry::Find(static_cast<WireCodec>(200)), nullptr);
}

TEST(CodecPropertyTest, QuantSeedIsAPureFunctionOfLayerAndClock) {
  EXPECT_EQ(QuantSeed(3, 17), QuantSeed(3, 17));
  EXPECT_NE(QuantSeed(3, 17), QuantSeed(4, 17));
  EXPECT_NE(QuantSeed(3, 17), QuantSeed(3, 18));
  EXPECT_NE(QuantSeed(0, 0), QuantSeed(0, 1));
}

}  // namespace
}  // namespace poseidon

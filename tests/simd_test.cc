// Cross-ISA property suite for the SIMD kernel layer (src/simd): every
// backend the host can run must produce bitwise-identical results to the
// scalar reference — on every length (vector blocks plus 0..15-element
// tails), on every GemmTransB shape class and packed-panel tile width, on
// unaligned inputs, through the backward GEMMs that run on simd::Axpy, and
// through a full training run.
// This is the determinism contract of docs/PERFORMANCE.md, enforced rather
// than assumed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/simd/vec.h"
#include "src/tensor/onebit.h"
#include "src/tensor/ops.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace {

// Fuzzed fill: well-scaled magnitudes with sign flips, a sprinkling of
// exact zeros (both signs), and denormals. NaN-free by construction — the
// kernels classify NaN deterministically, but quantizing a NaN gradient is
// already a bug upstream of this layer.
std::vector<float> FuzzFloats(std::mt19937* gen, size_t n) {
  std::uniform_real_distribution<float> value(-2.0f, 2.0f);
  std::uniform_int_distribution<int> kind(0, 19);
  std::vector<float> out(n);
  for (size_t i = 0; i < n; ++i) {
    switch (kind(*gen)) {
      case 0:
        out[i] = 0.0f;
        break;
      case 1:
        out[i] = -0.0f;
        break;
      case 2:
        out[i] = std::ldexp(value(*gen), -140);  // denormal territory
        break;
      default:
        out[i] = value(*gen);
    }
  }
  return out;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Non-scalar levels this host can actually execute.
std::vector<simd::Level> VectorLevels() {
  std::vector<simd::Level> levels;
  for (simd::Level level : simd::SupportedLevels()) {
    if (level != simd::Level::kScalar) {
      levels.push_back(level);
    }
  }
  return levels;
}

// The fuzzed length set: everything from empty through two full blocks plus
// every tail remainder, then a few larger sizes with each tail length.
std::vector<int64_t> FuzzLengths() {
  std::vector<int64_t> lengths;
  for (int64_t n = 0; n <= 33; ++n) {
    lengths.push_back(n);
  }
  for (int64_t tail = 0; tail <= 15; ++tail) {
    lengths.push_back(256 + tail);
  }
  return lengths;
}

TEST(SimdDispatchTest, ScalarIsAlwaysSupported) {
  EXPECT_TRUE(simd::Supported(simd::Level::kScalar));
  EXPECT_NE(simd::KernelsFor(simd::Level::kScalar), nullptr);
}

TEST(SimdDispatchTest, LevelFromStringRoundTrips) {
  EXPECT_TRUE(simd::SetLevelFromString("scalar"));
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_TRUE(simd::SetLevelFromString("auto"));
  EXPECT_EQ(simd::ActiveLevel(), simd::BestLevel());
  EXPECT_FALSE(simd::SetLevelFromString("avx512"));
  EXPECT_FALSE(simd::SetLevelFromString(""));
  // A rejected string must not have clobbered the active level.
  EXPECT_EQ(simd::ActiveLevel(), simd::BestLevel());
}

TEST(SimdDispatchTest, ScopedLevelRestores) {
  const simd::Level before = simd::ActiveLevel();
  {
    simd::ScopedLevel pinned(simd::Level::kScalar);
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::ActiveLevel(), before);
}

TEST(SimdKernelTest, ElementwiseKernelsMatchScalarBitwise) {
  std::mt19937 gen(20250808);
  const simd::Kernels* scalar = simd::KernelsFor(simd::Level::kScalar);
  for (simd::Level level : VectorLevels()) {
    const simd::Kernels* vec = simd::KernelsFor(level);
    ASSERT_NE(vec, nullptr);
    for (int64_t n : FuzzLengths()) {
      // Offsets 0..7 shift the working pointers off any 32-byte boundary;
      // the kernels use unaligned loads so results must not change.
      for (int64_t offset : {0, 1, 3, 7}) {
        SCOPED_TRACE(std::string(simd::LevelName(level)) + " n=" +
                     std::to_string(n) + " offset=" + std::to_string(offset));
        const size_t total = static_cast<size_t>(n + offset);
        const std::vector<float> x = FuzzFloats(&gen, total);
        const std::vector<float> y0 = FuzzFloats(&gen, total);
        const std::vector<float> v0 = FuzzFloats(&gen, total);

        std::vector<float> a = y0, b = y0;
        scalar->reduce_add(a.data() + offset, x.data() + offset, n);
        vec->reduce_add(b.data() + offset, x.data() + offset, n);
        EXPECT_TRUE(BitwiseEqual(a, b)) << "reduce_add";

        a = y0, b = y0;
        scalar->scale(a.data() + offset, 0.3125f, n);
        vec->scale(b.data() + offset, 0.3125f, n);
        EXPECT_TRUE(BitwiseEqual(a, b)) << "scale";

        a = y0, b = y0;
        scalar->axpy(a.data() + offset, -1.7f, x.data() + offset, n);
        vec->axpy(b.data() + offset, -1.7f, x.data() + offset, n);
        EXPECT_TRUE(BitwiseEqual(a, b)) << "axpy";

        std::vector<float> va = v0, vb = v0;
        a = y0, b = y0;
        scalar->sgd_step(va.data() + offset, a.data() + offset, x.data() + offset,
                         0.05f, 0.9f, 0.0001f, n);
        vec->sgd_step(vb.data() + offset, b.data() + offset, x.data() + offset,
                      0.05f, 0.9f, 0.0001f, n);
        EXPECT_TRUE(BitwiseEqual(va, vb)) << "sgd_step velocity";
        EXPECT_TRUE(BitwiseEqual(a, b)) << "sgd_step value";
      }
    }
  }
}

TEST(SimdKernelTest, OneBitKernelsMatchScalarBitwise) {
  std::mt19937 gen(7);
  const simd::Kernels* scalar = simd::KernelsFor(simd::Level::kScalar);
  for (simd::Level level : VectorLevels()) {
    const simd::Kernels* vec = simd::KernelsFor(level);
    ASSERT_NE(vec, nullptr);
    // Column counts sweep every 8-wide tail (1..16 plus wider), rows keep
    // the bit cursor landing at arbitrary non-word-aligned offsets.
    for (int64_t cols = 1; cols <= 40; cols += (cols < 18 ? 1 : 5)) {
      for (int64_t rows : {1, 3, 5}) {
        SCOPED_TRACE(std::string(simd::LevelName(level)) + " " +
                     std::to_string(rows) + "x" + std::to_string(cols));
        const size_t elems = static_cast<size_t>(rows * cols);
        const std::vector<float> grad = FuzzFloats(&gen, elems);
        const std::vector<float> residual = FuzzFloats(&gen, elems);
        const size_t words = (elems + 31) / 32;

        std::vector<uint32_t> bits_a(words, 0u), bits_b(words, 0u);
        std::vector<double> pos_a(static_cast<size_t>(cols), 0.0), neg_a = pos_a;
        std::vector<double> pos_b = pos_a, neg_b = pos_a;
        std::vector<int32_t> pc_a(static_cast<size_t>(cols), 0), nc_a = pc_a;
        std::vector<int32_t> pc_b = pc_a, nc_b = pc_a;
        scalar->onebit_encode_stats(grad.data(), residual.data(), rows, cols,
                                    bits_a.data(), pos_a.data(), neg_a.data(),
                                    pc_a.data(), nc_a.data());
        vec->onebit_encode_stats(grad.data(), residual.data(), rows, cols,
                                 bits_b.data(), pos_b.data(), neg_b.data(),
                                 pc_b.data(), nc_b.data());
        EXPECT_EQ(bits_a, bits_b);
        EXPECT_EQ(pc_a, pc_b);
        EXPECT_EQ(nc_a, nc_b);
        // Double sums must match to the bit, not approximately.
        ASSERT_EQ(pos_a.size(), pos_b.size());
        EXPECT_EQ(std::memcmp(pos_a.data(), pos_b.data(),
                              pos_a.size() * sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(neg_a.data(), neg_b.data(),
                              neg_a.size() * sizeof(double)), 0);

        // Levels derived the same way the quantizer derives them.
        std::vector<float> pos_level(static_cast<size_t>(cols), 0.0f);
        std::vector<float> neg_level(static_cast<size_t>(cols), 0.0f);
        for (int64_t c = 0; c < cols; ++c) {
          const size_t ci = static_cast<size_t>(c);
          if (pc_a[ci] > 0) pos_level[ci] = static_cast<float>(pos_a[ci] / pc_a[ci]);
          if (nc_a[ci] > 0) neg_level[ci] = static_cast<float>(neg_a[ci] / nc_a[ci]);
        }

        std::vector<float> res_a = residual, res_b = residual;
        scalar->onebit_residual_update(grad.data(), rows, cols, bits_a.data(),
                                       pos_level.data(), neg_level.data(),
                                       res_a.data());
        vec->onebit_residual_update(grad.data(), rows, cols, bits_a.data(),
                                    pos_level.data(), neg_level.data(),
                                    res_b.data());
        EXPECT_TRUE(BitwiseEqual(res_a, res_b)) << "residual update";

        std::vector<float> out_a(elems), out_b(elems);
        scalar->onebit_decode(bits_a.data(), pos_level.data(), neg_level.data(),
                              rows, cols, out_a.data());
        vec->onebit_decode(bits_a.data(), pos_level.data(), neg_level.data(),
                           rows, cols, out_b.data());
        EXPECT_TRUE(BitwiseEqual(out_a, out_b)) << "decode";
      }
    }
  }
}

TEST(SimdKernelTest, QuantKernelsMatchScalarBitwise) {
  std::mt19937 gen(20260808);
  const simd::Kernels* scalar = simd::KernelsFor(simd::Level::kScalar);
  for (simd::Level level : VectorLevels()) {
    const simd::Kernels* vec = simd::KernelsFor(level);
    ASSERT_NE(vec, nullptr);
    for (int64_t n : FuzzLengths()) {
      SCOPED_TRACE(std::string(simd::LevelName(level)) + " n=" + std::to_string(n));
      const std::vector<float> x = FuzzFloats(&gen, static_cast<size_t>(n));
      const uint32_t seed = gen();
      const int64_t base = static_cast<int64_t>(gen() % 4096);

      std::vector<uint16_t> ha(static_cast<size_t>(n), 0), hb = ha;
      scalar->fp16_encode_rn(x.data(), n, ha.data());
      vec->fp16_encode_rn(x.data(), n, hb.data());
      EXPECT_EQ(ha, hb) << "fp16_encode_rn";

      // Decode every 16-bit pattern the encoder produced plus raw junk
      // halves (a hostile frame can carry any bits, inf/NaN included).
      std::vector<uint16_t> halves(static_cast<size_t>(n));
      for (auto& h : halves) {
        h = static_cast<uint16_t>(gen());
      }
      std::vector<float> fa(static_cast<size_t>(n), 0.0f), fb = fa;
      scalar->fp16_decode(halves.data(), n, fa.data());
      vec->fp16_decode(halves.data(), n, fb.data());
      EXPECT_TRUE(BitwiseEqual(fa, fb)) << "fp16_decode";

      const float max_abs_a = scalar->max_abs(x.data(), n);
      const float max_abs_b = vec->max_abs(x.data(), n);
      EXPECT_EQ(std::memcmp(&max_abs_a, &max_abs_b, sizeof(float)), 0) << "max_abs";

      const float inv_scale = max_abs_a > 0.0f ? 127.0f / max_abs_a : 0.0f;
      std::vector<int8_t> qa(static_cast<size_t>(n), 0), qb = qa;
      scalar->int8_encode_sr(x.data(), n, inv_scale, seed, base, qa.data());
      vec->int8_encode_sr(x.data(), n, inv_scale, seed, base, qb.data());
      EXPECT_EQ(qa, qb) << "int8_encode_sr";

      const float scale = max_abs_a / 127.0f;
      std::fill(fa.begin(), fa.end(), 0.0f);
      std::fill(fb.begin(), fb.end(), 0.0f);
      scalar->int8_decode(qa.data(), n, scale, fa.data());
      vec->int8_decode(qa.data(), n, scale, fb.data());
      EXPECT_TRUE(BitwiseEqual(fa, fb)) << "int8_decode";

      EXPECT_EQ(scalar->count_abs_greater(x.data(), n, 0.5f),
                vec->count_abs_greater(x.data(), n, 0.5f))
          << "count_abs_greater";
      EXPECT_EQ(scalar->count_abs_greater(x.data(), n, 0.0f),
                vec->count_abs_greater(x.data(), n, 0.0f))
          << "count_abs_greater at zero threshold";
    }
  }
}

// ------------------------------------------------------------ GemmTransB --

// The pre-kernel poseidon::GemmTransB loop, verbatim: the float graph every
// backend's GemmTransB must reproduce (out[i,j] = dot of a row i and b row j,
// summed serially from +0.0).
void LegacyGemmTransB(const float* ad, const float* bd, int64_t m, int64_t n,
                      int64_t k, float* od) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = ad + i * k;
    float* o_row = od + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = bd + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a_row[p] * b_row[p];
      }
      o_row[j] = acc;
    }
  }
}

// FuzzFloats plus a sprinkling of +-inf, so products and sums also hit
// inf * 0 and inf - inf (both produce the default NaN on every backend).
std::vector<float> FuzzGemmFloats(std::mt19937* gen, size_t n) {
  std::vector<float> out = FuzzFloats(gen, n);
  std::uniform_int_distribution<int> kind(0, 63);
  for (float& x : out) {
    const int pick = kind(*gen);
    if (pick == 0) {
      x = std::numeric_limits<float>::infinity();
    } else if (pick == 1) {
      x = -std::numeric_limits<float>::infinity();
    }
  }
  return out;
}

// One GemmTransB shape, checked on every backend in both modes: the scalar
// reference against the legacy loop, each vector backend against scalar
// (memcmp), and accumulate mode against `out + dot` on a non-zero target.
// `offset` shifts all three operands off any vector alignment.
void CheckGemmTransB(std::mt19937* gen, int64_t m, int64_t n, int64_t k,
                     int64_t offset, bool special_values) {
  SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) + " k=" +
               std::to_string(k) + " offset=" + std::to_string(offset) +
               (special_values ? " with inf" : ""));
  const size_t off = static_cast<size_t>(offset);
  auto fill = [&](int64_t count) {
    const size_t total = static_cast<size_t>(count) + off;
    return special_values ? FuzzGemmFloats(gen, total) : FuzzFloats(gen, total);
  };
  const std::vector<float> a = fill(m * k);
  const std::vector<float> b = fill(n * k);
  const std::vector<float> base = FuzzFloats(gen, static_cast<size_t>(m * n) + off);

  std::vector<float> legacy = base;
  LegacyGemmTransB(a.data() + off, b.data() + off, m, n, k, legacy.data() + off);
  std::vector<float> legacy_acc = base;
  for (size_t i = off; i < legacy_acc.size(); ++i) {
    legacy_acc[i] = legacy_acc[i] + 1.0f * legacy[i];
  }

  for (simd::Level level : simd::SupportedLevels()) {
    const simd::Kernels* kernels = simd::KernelsFor(level);
    ASSERT_NE(kernels, nullptr);
    std::vector<float> got = base;
    kernels->gemm_trans_b(a.data() + off, b.data() + off, m, n, k,
                          /*accumulate=*/false, got.data() + off);
    EXPECT_TRUE(BitwiseEqual(got, legacy)) << simd::LevelName(level) << " overwrite";
    got = base;
    kernels->gemm_trans_b(a.data() + off, b.data() + off, m, n, k,
                          /*accumulate=*/true, got.data() + off);
    EXPECT_TRUE(BitwiseEqual(got, legacy_acc)) << simd::LevelName(level) << " accumulate";
  }
}

// Every small shape (each lane axis plus every row/column tail), all the
// k values around the 8-lane width.
TEST(SimdGemmTransBTest, SmallShapesMatchLegacyLoopBitwise) {
  std::mt19937 gen(20261017);
  for (int64_t m = 1; m <= 19; ++m) {
    for (int64_t n = 1; n <= 19; ++n) {
      for (int64_t k : {1, 2, 7, 8, 9, 33}) {
        const int64_t offset = (m + n + k) % 4;
        CheckGemmTransB(&gen, m, n, k, offset, /*special_values=*/false);
      }
    }
  }
}

TEST(SimdGemmTransBTest, SpecialValuesAndUnalignedOperandsMatchBitwise) {
  std::mt19937 gen(31);
  for (int64_t offset : {1, 3, 5, 7}) {
    for (int64_t m : {3, 8, 16, 21}) {
      for (int64_t n : {5, 8, 16, 27}) {
        CheckGemmTransB(&gen, m, n, /*k=*/33, offset, /*special_values=*/true);
      }
    }
  }
}

// The exact shapes the end-to-end benchmark runs, as m x k x n: CIFAR conv1
// and conv2 forward, VGG fc forward at batch 8, VGG fc SF reconstruction,
// and the socket MLP's ragged batch-6 layer.
TEST(SimdGemmTransBTest, BenchmarkShapesMatchLegacyLoopBitwise) {
  std::mt19937 gen(11);
  struct Shape {
    int64_t m, k, n;
  };
  for (const Shape& s : {Shape{16384, 75, 32}, Shape{4096, 800, 32},
                         Shape{8, 1024, 2048}, Shape{2048, 8, 1024}, Shape{6, 64, 20}}) {
    CheckGemmTransB(&gen, s.m, s.n, s.k, /*offset=*/0, /*special_values=*/false);
  }
}

// ------------------------------------------------------- GemmPackedPanel --

// The conv forward's float graph as im2col + GemmTransB + the NCHW bias add
// wrote it, verbatim, over a packed [k, width] panel: each output is the dot
// of a row of `a` with a panel column, summed serially from +0.0, then
// `+ bias[i]`.
void LegacyPackedPanel(const float* a, const float* panel, int64_t m, int64_t width,
                       int64_t k, const float* bias, float* out, int64_t out_stride) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < width; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a[i * k + p] * panel[p * width + j];
      }
      out[i * out_stride + j] = acc + bias[i];
    }
  }
}

// One packed-panel shape on every backend against the legacy loop
// (memcmp). Output rows are strided past the panel width, as the conv's
// NCHW planes are, and the gaps between them must stay untouched; `offset`
// shifts every operand off any vector alignment. With `special_values` the
// operands, bias included, also carry +-inf and the default NaN (inf - inf
// at run time).
void CheckPackedPanel(std::mt19937* gen, int64_t m, int64_t width, int64_t k,
                      int64_t offset, bool special_values) {
  SCOPED_TRACE("m=" + std::to_string(m) + " width=" + std::to_string(width) + " k=" +
               std::to_string(k) + " offset=" + std::to_string(offset) +
               (special_values ? " with inf/nan" : ""));
  const size_t off = static_cast<size_t>(offset);
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;
  std::uniform_int_distribution<int> kind(0, 63);
  auto fill = [&](int64_t count) {
    const size_t total = static_cast<size_t>(count) + off;
    if (!special_values) {
      return FuzzFloats(gen, total);
    }
    std::vector<float> values = FuzzGemmFloats(gen, total);
    for (float& x : values) {
      if (kind(*gen) == 0) {
        x = nan;
      }
    }
    return values;
  };
  const int64_t out_stride = width + 3;
  const std::vector<float> a = fill(m * k);
  const std::vector<float> panel = fill(k * width);
  const std::vector<float> bias = fill(m);
  const std::vector<float> base = FuzzFloats(gen, static_cast<size_t>(m * out_stride) + off);

  std::vector<float> want = base;
  LegacyPackedPanel(a.data() + off, panel.data() + off, m, width, k, bias.data() + off,
                    want.data() + off, out_stride);
  for (simd::Level level : simd::SupportedLevels()) {
    const simd::Kernels* kernels = simd::KernelsFor(level);
    ASSERT_NE(kernels, nullptr);
    std::vector<float> got = base;
    kernels->gemm_packed_panel(a.data() + off, panel.data() + off, m, width, k,
                               bias.data() + off, got.data() + off, out_stride);
    EXPECT_TRUE(BitwiseEqual(got, want)) << simd::LevelName(level);
  }
}

// Full 16-wide and 8-wide tiles and an odd scalar tail, on every row count
// class (the 4-row tiles plus 1..3 leftover rows) and the conv patch sizes
// (CIFAR conv1 75, conv2/conv3 800, the VGG stand-in's first conv 27).
TEST(SimdGemmPackedPanelTest, ShapesMatchLegacyLoopBitwise) {
  std::mt19937 gen(20261019);
  for (int64_t width : {16, 8, 13}) {
    for (int64_t m : {1, 2, 3, 5, 32, 64}) {
      for (int64_t k : {1, 27, 75, 800}) {
        CheckPackedPanel(&gen, m, width, k, /*offset=*/0, /*special_values=*/false);
      }
    }
  }
}

TEST(SimdGemmPackedPanelTest, SpecialValuesAndUnalignedOperandsMatchBitwise) {
  std::mt19937 gen(37);
  for (int64_t offset : {1, 3, 5, 7}) {
    for (int64_t width : {16, 8, 5, 1}) {
      for (int64_t m : {1, 2, 3, 5, 32, 64}) {
        for (int64_t k : {1, 27, 75}) {
          CheckPackedPanel(&gen, m, width, k, offset, /*special_values=*/true);
        }
      }
    }
  }
}

// The backward GEMMs' loops as they stood before the inner j loop became a
// simd::Axpy call: Gemm's cache-blocked i-p-j accumulation and GemmTransA's
// rank-1 update per p, both skipping zero a terms.
void LegacyGemm(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n) {
  std::fill(c, c + m * n, 0.0f);
  constexpr int64_t kBlock = 64;
  for (int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const int64_t i1 = std::min(i0 + kBlock, m);
    for (int64_t p0 = 0; p0 < k; p0 += kBlock) {
      const int64_t p1 = std::min(p0 + kBlock, k);
      for (int64_t i = i0; i < i1; ++i) {
        float* c_row = c + i * n;
        for (int64_t p = p0; p < p1; ++p) {
          const float a_ip = a[i * k + p];
          if (a_ip == 0.0f) {
            continue;
          }
          const float* b_row = b + p * n;
          for (int64_t j = 0; j < n; ++j) {
            c_row[j] += a_ip * b_row[j];
          }
        }
      }
    }
  }
}

void LegacyGemmTransA(const float* ad, const float* bd, float* od, int64_t k, int64_t m,
                      int64_t n) {
  std::fill(od, od + m * n, 0.0f);
  for (int64_t p = 0; p < k; ++p) {
    const float* a_row = ad + p * m;
    const float* b_row = bd + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float a_pi = a_row[i];
      if (a_pi == 0.0f) {
        continue;
      }
      float* o_row = od + i * n;
      for (int64_t j = 0; j < n; ++j) {
        o_row[j] += a_pi * b_row[j];
      }
    }
  }
}

// FuzzFloats (signed zeros, denormals) with a `zero_frac` share of extra
// signed zeros: the sparsity ReLU and max-pool leave in a backward operand.
Tensor FuzzSparseTensor(std::mt19937* gen, int64_t rows, int64_t cols, double zero_frac) {
  const std::vector<float> values = FuzzFloats(gen, static_cast<size_t>(rows * cols));
  std::uniform_real_distribution<double> pick(0.0, 1.0);
  Tensor t({rows, cols});
  for (int64_t i = 0; i < t.size(); ++i) {
    const double u = pick(*gen);
    t.data()[i] = u < zero_frac ? (u < zero_frac / 2 ? 0.0f : -0.0f) : values[i];
  }
  return t;
}

bool BitwiseEqual(const Tensor& got, const std::vector<float>& want) {
  return BitwiseEqual(std::vector<float>(got.data(), got.data() + got.size()), want);
}

// Gemm (a is [m, k]) and GemmTransA (a is [k, m]) against b [k, n], on every
// level, memcmp'd against the legacy loops.
void CheckBackwardGemms(const Tensor& a_mk, const Tensor& a_km, const Tensor& b) {
  const int64_t m = a_mk.dim(0);
  const int64_t k = a_mk.dim(1);
  const int64_t n = b.dim(1);
  std::vector<float> want_gemm(static_cast<size_t>(m * n));
  std::vector<float> want_trans_a(static_cast<size_t>(m * n));
  LegacyGemm(a_mk.data(), b.data(), want_gemm.data(), m, k, n);
  LegacyGemmTransA(a_km.data(), b.data(), want_trans_a.data(), k, m, n);
  for (simd::Level level : simd::SupportedLevels()) {
    simd::ScopedLevel pinned(level);
    Tensor out = Tensor::Full({m, n}, 7.0f);  // stale contents must not leak in
    Gemm(a_mk, b, &out);
    EXPECT_TRUE(BitwiseEqual(out, want_gemm)) << simd::LevelName(level) << " Gemm";
    out.Fill(7.0f);
    GemmTransA(a_km, b, &out);
    EXPECT_TRUE(BitwiseEqual(out, want_trans_a)) << simd::LevelName(level) << " GemmTransA";
  }
}

void CheckBackwardGemms(std::mt19937* gen, int64_t m, int64_t k, int64_t n, double zero_frac,
                        bool special_values) {
  SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) + " n=" +
               std::to_string(n) + " zeros=" + std::to_string(zero_frac) +
               (special_values ? " with inf" : ""));
  const Tensor a_mk = FuzzSparseTensor(gen, m, k, zero_frac);
  const Tensor a_km = FuzzSparseTensor(gen, k, m, zero_frac);
  Tensor b({k, n});
  const std::vector<float> values =
      special_values ? FuzzGemmFloats(gen, static_cast<size_t>(k * n))
                     : FuzzFloats(gen, static_cast<size_t>(k * n));
  std::copy(values.begin(), values.end(), b.data());
  CheckBackwardGemms(a_mk, a_km, b);
}

// Every width from 1 to 19 (each 8-lane tail), the conv patch widths 75 and
// 800, dense and 80% sparse.
TEST(SimdBackwardGemmTest, WidthsAndSparsityMatchLegacyLoopBitwise) {
  std::mt19937 gen(77);
  std::vector<int64_t> widths;
  for (int64_t n = 1; n <= 19; ++n) {
    widths.push_back(n);
  }
  widths.push_back(75);
  widths.push_back(800);
  for (int64_t n : widths) {
    for (double zero_frac : {0.0, 0.8}) {
      CheckBackwardGemms(&gen, /*m=*/5, /*k=*/7, n, zero_frac, /*special_values=*/false);
      CheckBackwardGemms(&gen, /*m=*/70, /*k=*/9, n, zero_frac, /*special_values=*/true);
    }
  }
}

// A zero a term is skipped, never multiplied: the columns of a that are all
// (signed) zero meet rows of b that are all inf or NaN, and no NaN may come
// out.
TEST(SimdBackwardGemmTest, ZeroTermsSkipInfAndNaN) {
  std::mt19937 gen(5);
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;  // the hardware default NaN
  const int64_t m = 6;
  const int64_t k = 9;
  const int64_t n = 19;
  Tensor a_mk = FuzzSparseTensor(&gen, m, k, 0.3);
  Tensor a_km = FuzzSparseTensor(&gen, k, m, 0.3);
  Tensor b = FuzzSparseTensor(&gen, k, n, 0.3);
  for (int64_t p : {0, 4, 8}) {
    for (int64_t i = 0; i < m; ++i) {
      a_mk.At(i, p) = i % 2 == 0 ? 0.0f : -0.0f;
      a_km.At(p, i) = i % 2 == 0 ? -0.0f : 0.0f;
    }
    for (int64_t j = 0; j < n; ++j) {
      b.At(p, j) = j % 3 == 0 ? nan : (j % 3 == 1 ? inf : -inf);
    }
  }
  CheckBackwardGemms(a_mk, a_km, b);
  for (simd::Level level : simd::SupportedLevels()) {
    simd::ScopedLevel pinned(level);
    Tensor out({m, n});
    Gemm(a_mk, b, &out);
    for (int64_t i = 0; i < out.size(); ++i) {
      ASSERT_FALSE(std::isnan(out[i])) << simd::LevelName(level) << " Gemm [" << i << "]";
    }
    GemmTransA(a_km, b, &out);
    for (int64_t i = 0; i < out.size(); ++i) {
      ASSERT_FALSE(std::isnan(out[i])) << simd::LevelName(level) << " GemmTransA [" << i << "]";
    }
  }
}

// The CIFAR-quick conv backward shapes at batch 16, as m x k x n: Gemm runs
// dY [pixels, out_c] x W [out_c, patch]; GemmTransA the same operands
// transposed, dY^T x cols. dY is 80% zeros, as after ReLU and max-pool.
TEST(SimdBackwardGemmTest, CifarConvShapesMatchLegacyLoopBitwise) {
  std::mt19937 gen(16);
  struct Shape {
    int64_t m, k, n;
  };
  for (const Shape& s : {Shape{16384, 32, 75}, Shape{4096, 32, 800}, Shape{1024, 64, 800}}) {
    SCOPED_TRACE("pixels=" + std::to_string(s.m) + " out_c=" + std::to_string(s.k) +
                 " patch=" + std::to_string(s.n));
    const Tensor dy = FuzzSparseTensor(&gen, s.m, s.k, 0.8);
    const Tensor w = FuzzSparseTensor(&gen, s.k, s.n, 0.0);
    const Tensor cols = FuzzSparseTensor(&gen, s.m, s.n, 0.1);
    std::vector<float> want_dcols(static_cast<size_t>(s.m * s.n));
    std::vector<float> want_dw(static_cast<size_t>(s.k * s.n));
    LegacyGemm(dy.data(), w.data(), want_dcols.data(), s.m, s.k, s.n);
    LegacyGemmTransA(dy.data(), cols.data(), want_dw.data(), s.m, s.k, s.n);
    for (simd::Level level : simd::SupportedLevels()) {
      simd::ScopedLevel pinned(level);
      Tensor dcols({s.m, s.n});
      Gemm(dy, w, &dcols);
      EXPECT_TRUE(BitwiseEqual(dcols, want_dcols)) << simd::LevelName(level) << " Gemm";
      Tensor dw({s.k, s.n});
      GemmTransA(dy, cols, &dw);
      EXPECT_TRUE(BitwiseEqual(dw, want_dw)) << simd::LevelName(level) << " GemmTransA";
    }
  }
}

// The end-to-end stake in the ground: a full small-cluster training run —
// quantized gradients, collectives, server applies, SGD — lands on exactly
// the same losses and final weights with vectorization on and off.
TEST(SimdTrajectoryTest, TrainerTrajectoryIsDispatchInvariant) {
  TrainerOptions options = testing::SmallTrainerOptions();
  options.fc_policy = PlanPolicy::kOneBit;
  testing::Trajectory scalar_run, auto_run;
  {
    simd::ScopedLevel pinned(simd::Level::kScalar);
    scalar_run = testing::CaptureTrajectory(options, /*iterations=*/6);
  }
  {
    simd::ScopedLevel pinned(simd::BestLevel());
    auto_run = testing::CaptureTrajectory(options, /*iterations=*/6);
  }
  EXPECT_EQ(scalar_run.mean_losses.size(), 6u);
  EXPECT_TRUE(scalar_run == auto_run)
      << "training trajectory differs between scalar and "
      << simd::LevelName(simd::BestLevel()) << " dispatch";
}

}  // namespace
}  // namespace poseidon

// The scalar reference backend. This translation unit defines the semantics
// every vector backend must reproduce bit-for-bit; CMake compiles it with
// -fno-tree-vectorize (on top of the project-wide -ffp-contract=off) so it
// stays an honest scalar baseline (no autovectorization inflating the
// roofline denominator, no fused multiply-adds changing rounding on
// FMA-capable ISAs).
#include <cmath>

#include "src/simd/bitpack.h"
#include "src/simd/quant.h"
#include "src/simd/vec.h"

namespace poseidon {
namespace simd {
namespace {

void ScalarReduceAdd(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] += src[i];
  }
}

void ScalarScale(float* dst, float alpha, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] *= alpha;
  }
}

void ScalarAxpy(float* y, float alpha, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void ScalarSgdStep(float* v, float* value, const float* grad, float lr, float mu,
                   float wd, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    v[i] = (mu * v[i] + grad[i]) + wd * value[i];
    value[i] -= lr * v[i];
  }
}

void ScalarOneBitEncodeStats(const float* grad, const float* residual, int64_t rows,
                             int64_t cols, uint32_t* bits, double* pos_sum,
                             double* neg_sum, int32_t* pos_count,
                             int32_t* neg_count) {
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t base = r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      const int64_t flat = base + c;
      const float q = grad[flat] + residual[flat];
      const bool positive = q >= 0.0f;
      if (positive) {
        bits[flat >> 5] |= 1u << (flat & 31);
      }
      // Blended accumulation — the vector backends mask lanes to +0.0, and
      // adding +0.0 to these sums is bit-exact (they can never be -0.0), so
      // this matches both the lanes and the historical branchy loop.
      pos_sum[c] += positive ? static_cast<double>(q) : 0.0;
      neg_sum[c] += positive ? 0.0 : static_cast<double>(q);
      pos_count[c] += positive ? 1 : 0;
      neg_count[c] += positive ? 0 : 1;
    }
  }
}

void ScalarOneBitResidualUpdate(const float* grad, int64_t rows, int64_t cols,
                                const uint32_t* bits, const float* pos_level,
                                const float* neg_level, float* residual) {
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t base = r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      const int64_t flat = base + c;
      const float q = grad[flat] + residual[flat];
      const bool positive = (bits[flat >> 5] >> (flat & 31)) & 1u;
      residual[flat] = q - (positive ? pos_level[c] : neg_level[c]);
    }
  }
}

void ScalarOneBitDecode(const uint32_t* bits, const float* pos_level,
                        const float* neg_level, int64_t rows, int64_t cols,
                        float* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t base = r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      const int64_t flat = base + c;
      const bool positive = (bits[flat >> 5] >> (flat & 31)) & 1u;
      out[flat] = positive ? pos_level[c] : neg_level[c];
    }
  }
}

void ScalarFp16EncodeRn(const float* src, int64_t n, uint16_t* out) {
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t u = internal::FloatBits(src[i]);
    out[i] = internal::Fp16Pack(u, internal::Fp16RnIncrement(u & 0x7FFFFFFFu));
  }
}

void ScalarFp16Decode(const uint16_t* src, int64_t n, float* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = internal::Fp16Unpack(src[i]);
  }
}

void ScalarInt8EncodeSr(const float* src, int64_t n, float inv_scale, uint32_t seed,
                        int64_t base_index, int8_t* out) {
  for (int64_t i = 0; i < n; ++i) {
    const float t = src[i] * inv_scale;
    const float fl = std::floor(t);
    const float frac = t - fl;
    const uint32_t h =
        internal::MixBits(seed, static_cast<uint32_t>(base_index + i));
    // 24-bit uniform in [0, 1): the int -> float conversion and the
    // power-of-two multiply are both exact.
    const float r = static_cast<float>(h >> 8) * 0x1p-24f;
    float q = fl + (frac > r ? 1.0f : 0.0f);
    q = q > 127.0f ? 127.0f : q;
    q = q < -127.0f ? -127.0f : q;
    q = q == q ? q : 0.0f;  // NaN squash: the cast below must be defined
    out[i] = static_cast<int8_t>(static_cast<int32_t>(q));
  }
}

void ScalarInt8Decode(const int8_t* src, int64_t n, float scale, float* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(src[i]) * scale;
  }
}

float ScalarMaxAbs(const float* src, int64_t n) {
  float m = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(src[i]);
    m = a > m ? a : m;  // ordered compare: NaNs never enter the max
  }
  return m;
}

int64_t ScalarCountAbsGreater(const float* src, int64_t n, float threshold) {
  int64_t count = 0;
  for (int64_t i = 0; i < n; ++i) {
    count += std::fabs(src[i]) > threshold ? 1 : 0;
  }
  return count;
}

void ScalarGemmTransB(const float* a, const float* b, int64_t m, int64_t n, int64_t k,
                      bool accumulate, float* out) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* o_row = out + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a_row[p] * b_row[p];
      }
      o_row[j] = accumulate ? o_row[j] + acc : acc;
    }
  }
}

void ScalarGemmPackedPanel(const float* a, const float* panel, int64_t m, int64_t width,
                           int64_t k, const float* bias, float* out, int64_t out_stride) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* o_row = out + i * out_stride;
    for (int64_t j = 0; j < width; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a_row[p] * panel[p * width + j];
      }
      o_row[j] = acc + bias[i];
    }
  }
}

const Kernels kScalarKernels = {
    Level::kScalar,          ScalarReduceAdd,
    ScalarScale,             ScalarAxpy,
    ScalarSgdStep,           ScalarOneBitEncodeStats,
    ScalarOneBitResidualUpdate, ScalarOneBitDecode,
    ScalarFp16EncodeRn,      ScalarFp16Decode,
    ScalarInt8EncodeSr,      ScalarInt8Decode,
    ScalarMaxAbs,            ScalarCountAbsGreater,
    ScalarGemmTransB,        ScalarGemmPackedPanel,
};

}  // namespace

const Kernels* ScalarKernels() { return &kScalarKernels; }

}  // namespace simd
}  // namespace poseidon

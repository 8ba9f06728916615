// The scalar reference backend. This translation unit defines the semantics
// every vector backend must reproduce bit-for-bit; CMake compiles it with
// -fno-tree-vectorize (on top of the project-wide -ffp-contract=off) so it
// stays an honest scalar baseline (no autovectorization inflating the
// roofline denominator, no fused multiply-adds changing rounding on
// FMA-capable ISAs).
#include <cmath>

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
    Level::kScalar,     ScalarReduceAdd,       ScalarScale,
    ScalarAxpy,         ScalarSgdStep,         ScalarFp16EncodeRn,
    ScalarFp16Decode,   ScalarCountAbsGreater, ScalarGemmTransB,
    ScalarGemmPackedPanel,
};

}  // namespace

const Kernels* ScalarKernels() { return &kScalarKernels; }

}  // namespace simd
}  // namespace poseidon

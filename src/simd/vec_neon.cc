// NEON (AArch64) backend: the same fixed 8-wide blocks as AVX2, built from
// two 4-lane halves. Never uses vmla/fmla (those fuse the multiply-add and
// round once); every multiply-add is an explicit vmul + vadd so results are
// bit-identical to the scalar reference. The project is compiled with
// -ffp-contract=off so scalar tail expressions cannot contract either
// (AArch64 scalar code otherwise fuses to fmadd freely).
#include "src/simd/vec.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

#include "src/simd/quant.h"

namespace poseidon {
namespace simd {
namespace {

void NeonReduceAdd(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vst1q_f32(dst + i, vaddq_f32(vld1q_f32(dst + i), vld1q_f32(src + i)));
    vst1q_f32(dst + i + 4, vaddq_f32(vld1q_f32(dst + i + 4), vld1q_f32(src + i + 4)));
  }
  ScalarKernels()->reduce_add(dst + i, src + i, n - i);
}

void NeonScale(float* dst, float alpha, int64_t n) {
  const float32x4_t a = vdupq_n_f32(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vst1q_f32(dst + i, vmulq_f32(vld1q_f32(dst + i), a));
    vst1q_f32(dst + i + 4, vmulq_f32(vld1q_f32(dst + i + 4), a));
  }
  ScalarKernels()->scale(dst + i, alpha, n - i);
}

void NeonAxpy(float* y, float alpha, const float* x, int64_t n) {
  const float32x4_t a = vdupq_n_f32(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), vmulq_f32(a, vld1q_f32(x + i))));
    vst1q_f32(y + i + 4,
              vaddq_f32(vld1q_f32(y + i + 4), vmulq_f32(a, vld1q_f32(x + i + 4))));
  }
  ScalarKernels()->axpy(y + i, alpha, x + i, n - i);
}

void NeonSgdStep(float* v, float* value, const float* grad, float lr, float mu,
                 float wd, int64_t n) {
  const float32x4_t vmu = vdupq_n_f32(mu);
  const float32x4_t vwd = vdupq_n_f32(wd);
  const float32x4_t vlr = vdupq_n_f32(lr);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int64_t h = i; h < i + 8; h += 4) {
      const float32x4_t vel = vld1q_f32(v + h);
      const float32x4_t val = vld1q_f32(value + h);
      const float32x4_t g = vld1q_f32(grad + h);
      // (mu * v + g) + wd * value — the scalar expression's association.
      const float32x4_t nv =
          vaddq_f32(vaddq_f32(vmulq_f32(vmu, vel), g), vmulq_f32(vwd, val));
      vst1q_f32(v + h, nv);
      vst1q_f32(value + h, vsubq_f32(val, vmulq_f32(vlr, nv)));
    }
  }
  ScalarKernels()->sgd_step(v + i, value + i, grad + i, lr, mu, wd, n - i);
}

// 4 lanes of internal::Fp16Pack, narrowed to the low 16 bits.
inline uint16x4_t Fp16Pack4(uint32x4_t u, uint32x4_t rnd13) {
  const uint32x4_t max_half = vdupq_n_u32(0x7BFF);
  const uint32x4_t sign = vandq_u32(vshrq_n_u32(u, 16), vdupq_n_u32(0x8000));
  const uint32x4_t absu = vandq_u32(u, vdupq_n_u32(0x7FFFFFFF));
  uint32x4_t h = vshrq_n_u32(
      vsubq_u32(vaddq_u32(absu, rnd13), vdupq_n_u32(0x38000000)), 13);
  h = vminq_u32(h, max_half);
  const uint32x4_t big = vcgeq_u32(absu, vdupq_n_u32(0x47800000));
  h = vbslq_u32(big, max_half, h);
  const uint32x4_t small = vcltq_u32(absu, vdupq_n_u32(0x38800000));
  h = vbicq_u32(h, small);
  return vmovn_u32(vorrq_u32(sign, h));
}

void NeonFp16EncodeRn(const float* src, int64_t n, uint16_t* out) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int half = 0; half < 2; ++half) {
      const int64_t f = i + 4 * half;
      const uint32x4_t u = vreinterpretq_u32_f32(vld1q_f32(src + f));
      const uint32x4_t absu = vandq_u32(u, vdupq_n_u32(0x7FFFFFFF));
      const uint32x4_t rnd = vaddq_u32(
          vdupq_n_u32(0xFFF),
          vandq_u32(vshrq_n_u32(absu, 13), vdupq_n_u32(1)));
      vst1_u16(out + f, Fp16Pack4(u, rnd));
    }
  }
  ScalarKernels()->fp16_encode_rn(src + i, n - i, out + i);
}

void NeonFp16Decode(const uint16_t* src, int64_t n, float* out) {
  const uint32x4_t exp_mask = vdupq_n_u32(0x0F800000);
  const uint32x4_t bias = vdupq_n_u32(112u << 23);
  const float32x4_t magic = vreinterpretq_f32_u32(vdupq_n_u32(0x38800000));
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int half = 0; half < 2; ++half) {
      const int64_t f = i + 4 * half;
      const uint32x4_t h = vmovl_u16(vld1_u16(src + f));
      const uint32x4_t sign =
          vshlq_n_u32(vandq_u32(h, vdupq_n_u32(0x8000)), 16);
      uint32x4_t o = vshlq_n_u32(vandq_u32(h, vdupq_n_u32(0x7FFF)), 13);
      const uint32x4_t exp = vandq_u32(o, exp_mask);
      o = vaddq_u32(o, bias);
      const uint32x4_t is_inf = vceqq_u32(exp, exp_mask);
      o = vbslq_u32(is_inf, vaddq_u32(o, bias), o);
      // Subnormal renormalization via one exact float subtract (same binade).
      const uint32x4_t is_sub = vceqq_u32(exp, vdupq_n_u32(0));
      const uint32x4_t sub_bits = vreinterpretq_u32_f32(vsubq_f32(
          vreinterpretq_f32_u32(vaddq_u32(o, vdupq_n_u32(1u << 23))), magic));
      o = vbslq_u32(is_sub, sub_bits, o);
      vst1q_f32(out + f, vreinterpretq_f32_u32(vorrq_u32(sign, o)));
    }
  }
  ScalarKernels()->fp16_decode(src + i, n - i, out + i);
}

int64_t NeonCountAbsGreater(const float* src, int64_t n, float threshold) {
  const float32x4_t thr = vdupq_n_f32(threshold);
  uint32x4_t cnt = vdupq_n_u32(0);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int half = 0; half < 2; ++half) {
      const float32x4_t a = vabsq_f32(vld1q_f32(src + i + 4 * half));
      cnt = vsubq_u32(cnt, vcgtq_f32(a, thr));
    }
  }
  uint32_t lanes[4];
  vst1q_u32(lanes, cnt);
  int64_t count = 0;
  for (int l = 0; l < 4; ++l) {
    count += lanes[l];
  }
  for (; i < n; ++i) {
    count += std::fabs(src[i]) > threshold ? 1 : 0;
  }
  return count;
}

// No NEON GemmTransB yet: the entry runs the scalar reference, which is
// trivially bit-exact. A vector version needs an AArch64 host to verify it.
void NeonGemmTransB(const float* a, const float* b, int64_t m, int64_t n, int64_t k,
                    bool accumulate, float* out) {
  ScalarKernels()->gemm_trans_b(a, b, m, n, k, accumulate, out);
}

// Nor a NEON packed-panel tile, for the same reason.
void NeonGemmPackedPanel(const float* a, const float* panel, int64_t m, int64_t width,
                         int64_t k, const float* bias, float* out, int64_t out_stride) {
  ScalarKernels()->gemm_packed_panel(a, panel, m, width, k, bias, out, out_stride);
}

const Kernels kNeonKernels = {
    Level::kNeon,     NeonReduceAdd,       NeonScale,
    NeonAxpy,         NeonSgdStep,         NeonFp16EncodeRn,
    NeonFp16Decode,   NeonCountAbsGreater, NeonGemmTransB,
    NeonGemmPackedPanel,
};

}  // namespace

const Kernels* NeonKernels() { return &kNeonKernels; }

}  // namespace simd
}  // namespace poseidon

#else  // !__aarch64__

namespace poseidon {
namespace simd {
const Kernels* NeonKernels() { return nullptr; }
}  // namespace simd
}  // namespace poseidon

#endif

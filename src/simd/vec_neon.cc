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

#include "src/simd/bitpack.h"
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

// Movemask emulation: 4 mask lanes (all-ones/all-zeros) -> 4 bits, using
// per-lane bit weights and a horizontal add.
inline uint32_t MoveMask4(uint32x4_t mask, uint32x4_t lane_bit) {
  return vaddvq_u32(vandq_u32(mask, lane_bit));
}

void NeonOneBitEncodeStats(const float* grad, const float* residual, int64_t rows,
                           int64_t cols, uint32_t* bits, double* pos_sum,
                           double* neg_sum, int32_t* pos_count, int32_t* neg_count) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const uint32x4_t bit_lo = {1u, 2u, 4u, 8u};
  const uint32x4_t bit_hi = {16u, 32u, 64u, 128u};
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t base = r * cols;
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const int64_t flat = base + c;
      for (int half = 0; half < 2; ++half) {
        const int64_t f = flat + 4 * half;
        const int64_t col = c + 4 * half;
        const float32x4_t q =
            vaddq_f32(vld1q_f32(grad + f), vld1q_f32(residual + f));
        // q >= 0 (NaN classifies negative, like the scalar compare).
        const uint32x4_t mask = vcgeq_f32(q, zero);
        const uint32_t m4 = MoveMask4(mask, half == 0 ? bit_lo : bit_hi) >>
                            (half == 0 ? 0 : 4);
        internal::OrBits8(bits, f, m4);

        // Widen mask lanes to 64-bit all-ones via sign extension, then mask
        // the double contributions to +-q or +0.0.
        const int32x4_t maski = vreinterpretq_s32_u32(mask);
        const int64x2_t m64_lo = vmovl_s32(vget_low_s32(maski));
        const int64x2_t m64_hi = vmovl_s32(vget_high_s32(maski));
        const float64x2_t q_lo = vcvt_f64_f32(vget_low_f32(q));
        const float64x2_t q_hi = vcvt_high_f64_f32(q);
        const int64x2_t qb_lo = vreinterpretq_s64_f64(q_lo);
        const int64x2_t qb_hi = vreinterpretq_s64_f64(q_hi);
        const float64x2_t pos_lo = vreinterpretq_f64_s64(vandq_s64(qb_lo, m64_lo));
        const float64x2_t pos_hi = vreinterpretq_f64_s64(vandq_s64(qb_hi, m64_hi));
        const float64x2_t neg_lo = vreinterpretq_f64_s64(vbicq_s64(qb_lo, m64_lo));
        const float64x2_t neg_hi = vreinterpretq_f64_s64(vbicq_s64(qb_hi, m64_hi));
        vst1q_f64(pos_sum + col, vaddq_f64(vld1q_f64(pos_sum + col), pos_lo));
        vst1q_f64(pos_sum + col + 2, vaddq_f64(vld1q_f64(pos_sum + col + 2), pos_hi));
        vst1q_f64(neg_sum + col, vaddq_f64(vld1q_f64(neg_sum + col), neg_lo));
        vst1q_f64(neg_sum + col + 2, vaddq_f64(vld1q_f64(neg_sum + col + 2), neg_hi));

        // Counts: a set mask lane is -1; subtracting increments.
        const int32x4_t pc = vld1q_s32(pos_count + col);
        const int32x4_t nc = vld1q_s32(neg_count + col);
        vst1q_s32(pos_count + col, vsubq_s32(pc, maski));
        vst1q_s32(neg_count + col,
                  vsubq_s32(nc, vreinterpretq_s32_u32(vmvnq_u32(mask))));
      }
    }
    for (; c < cols; ++c) {
      const int64_t flat = base + c;
      const float q = grad[flat] + residual[flat];
      const bool positive = q >= 0.0f;
      if (positive) {
        bits[flat >> 5] |= 1u << (flat & 31);
      }
      pos_sum[c] += positive ? static_cast<double>(q) : 0.0;
      neg_sum[c] += positive ? 0.0 : static_cast<double>(q);
      pos_count[c] += positive ? 1 : 0;
      neg_count[c] += positive ? 0 : 1;
    }
  }
}

// Expands bits 0..3 (half 0) or 4..7 (half 1) of m8 into a 4-lane mask.
inline uint32x4_t Mask8ToLanes4(uint32_t m8, int half) {
  const uint32x4_t lane_bit =
      half == 0 ? uint32x4_t{1u, 2u, 4u, 8u} : uint32x4_t{16u, 32u, 64u, 128u};
  return vtstq_u32(vdupq_n_u32(m8), lane_bit);
}

void NeonOneBitResidualUpdate(const float* grad, int64_t rows, int64_t cols,
                              const uint32_t* bits, const float* pos_level,
                              const float* neg_level, float* residual) {
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t base = r * cols;
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const int64_t flat = base + c;
      const uint32_t m8 = internal::LoadBits8(bits, flat);
      for (int half = 0; half < 2; ++half) {
        const int64_t f = flat + 4 * half;
        const int64_t col = c + 4 * half;
        const float32x4_t q =
            vaddq_f32(vld1q_f32(grad + f), vld1q_f32(residual + f));
        const float32x4_t level =
            vbslq_f32(Mask8ToLanes4(m8, half), vld1q_f32(pos_level + col),
                      vld1q_f32(neg_level + col));
        vst1q_f32(residual + f, vsubq_f32(q, level));
      }
    }
    for (; c < cols; ++c) {
      const int64_t flat = base + c;
      const float q = grad[flat] + residual[flat];
      const bool positive = (bits[flat >> 5] >> (flat & 31)) & 1u;
      residual[flat] = q - (positive ? pos_level[c] : neg_level[c]);
    }
  }
}

void NeonOneBitDecode(const uint32_t* bits, const float* pos_level,
                      const float* neg_level, int64_t rows, int64_t cols,
                      float* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t base = r * cols;
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const int64_t flat = base + c;
      const uint32_t m8 = internal::LoadBits8(bits, flat);
      for (int half = 0; half < 2; ++half) {
        const int64_t f = flat + 4 * half;
        const int64_t col = c + 4 * half;
        vst1q_f32(out + f, vbslq_f32(Mask8ToLanes4(m8, half),
                                     vld1q_f32(pos_level + col),
                                     vld1q_f32(neg_level + col)));
      }
    }
    for (; c < cols; ++c) {
      const int64_t flat = base + c;
      const bool positive = (bits[flat >> 5] >> (flat & 31)) & 1u;
      out[flat] = positive ? pos_level[c] : neg_level[c];
    }
  }
}

// 4 lanes of the integer hash in src/simd/quant.h (xor/shift/mul-low only).
inline uint32x4_t MixBits4(uint32x4_t idx, uint32x4_t seed) {
  uint32x4_t h = veorq_u32(idx, seed);
  h = veorq_u32(h, vshrq_n_u32(h, 16));
  h = vmulq_u32(h, vdupq_n_u32(0x21f0aaadu));
  h = veorq_u32(h, vshrq_n_u32(h, 15));
  h = vmulq_u32(h, vdupq_n_u32(0x735a2d97u));
  h = veorq_u32(h, vshrq_n_u32(h, 15));
  return h;
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

void NeonInt8EncodeSr(const float* src, int64_t n, float inv_scale, uint32_t seed,
                      int64_t base_index, int8_t* out) {
  const float32x4_t vinv = vdupq_n_f32(inv_scale);
  const float32x4_t vhi = vdupq_n_f32(127.0f);
  const float32x4_t vlo = vdupq_n_f32(-127.0f);
  const float32x4_t v2p24 = vdupq_n_f32(0x1p-24f);
  const uint32x4_t one_bits = vreinterpretq_u32_f32(vdupq_n_f32(1.0f));
  const uint32x4_t vseed = vdupq_n_u32(seed);
  const uint32x4_t step = vdupq_n_u32(4);
  const uint32x4_t ramp = {0u, 1u, 2u, 3u};
  uint32x4_t idx = vaddq_u32(vdupq_n_u32(static_cast<uint32_t>(base_index)), ramp);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    int32x4_t qi[2];
    for (int half = 0; half < 2; ++half) {
      const int64_t f = i + 4 * half;
      const float32x4_t t = vmulq_f32(vld1q_f32(src + f), vinv);
      const float32x4_t fl = vrndmq_f32(t);  // floor
      const float32x4_t frac = vsubq_f32(t, fl);
      const uint32x4_t h = MixBits4(idx, vseed);
      // (h >> 8) < 2^24, so the unsigned int -> float conversion is exact.
      const float32x4_t r =
          vmulq_f32(vcvtq_f32_u32(vshrq_n_u32(h, 8)), v2p24);
      const float32x4_t inc = vreinterpretq_f32_u32(
          vandq_u32(vcgtq_f32(frac, r), one_bits));
      float32x4_t q = vaddq_f32(fl, inc);
      q = vbslq_f32(vcgtq_f32(q, vhi), vhi, q);
      q = vbslq_f32(vcltq_f32(q, vlo), vlo, q);
      q = vreinterpretq_f32_u32(
          vandq_u32(vreinterpretq_u32_f32(q), vceqq_f32(q, q)));  // NaN squash
      qi[half] = vcvtq_s32_f32(q);  // truncates toward zero, like the cast
      idx = vaddq_u32(idx, step);
    }
    const int16x8_t p16 = vcombine_s16(vmovn_s32(qi[0]), vmovn_s32(qi[1]));
    vst1_s8(out + i, vmovn_s16(p16));
  }
  ScalarKernels()->int8_encode_sr(src + i, n - i, inv_scale, seed, base_index + i,
                                  out + i);
}

void NeonInt8Decode(const int8_t* src, int64_t n, float scale, float* out) {
  const float32x4_t vscale = vdupq_n_f32(scale);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t w = vmovl_s8(vld1_s8(src + i));
    const int32x4_t lo = vmovl_s16(vget_low_s16(w));
    const int32x4_t hi = vmovl_s16(vget_high_s16(w));
    vst1q_f32(out + i, vmulq_f32(vcvtq_f32_s32(lo), vscale));
    vst1q_f32(out + i + 4, vmulq_f32(vcvtq_f32_s32(hi), vscale));
  }
  ScalarKernels()->int8_decode(src + i, n - i, scale, out + i);
}

float NeonMaxAbs(const float* src, int64_t n) {
  float32x4_t vm = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int half = 0; half < 2; ++half) {
      const float32x4_t a = vabsq_f32(vld1q_f32(src + i + 4 * half));
      vm = vbslq_f32(vcgtq_f32(a, vm), a, vm);
    }
  }
  // max over non-negative magnitudes (NaNs ignored) is associative, so the
  // lane fold equals the scalar sequential max.
  float lanes[4];
  vst1q_f32(lanes, vm);
  float m = 0.0f;
  for (int l = 0; l < 4; ++l) {
    m = lanes[l] > m ? lanes[l] : m;
  }
  for (; i < n; ++i) {
    const float a = std::fabs(src[i]);
    m = a > m ? a : m;
  }
  return m;
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
    Level::kNeon,           NeonReduceAdd,
    NeonScale,              NeonAxpy,
    NeonSgdStep,            NeonOneBitEncodeStats,
    NeonOneBitResidualUpdate, NeonOneBitDecode,
    NeonFp16EncodeRn,       NeonFp16Decode,
    NeonInt8EncodeSr,       NeonInt8Decode,
    NeonMaxAbs,             NeonCountAbsGreater,
    NeonGemmTransB,         NeonGemmPackedPanel,
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

// AVX2 backend: fixed 8-lane blocks, scalar tails, no FMA anywhere (vector
// code composes explicit mul/add intrinsics; AVX2 does not imply FMA, and
// the project is additionally compiled with -ffp-contract=off), so every
// result is bit-identical to the scalar reference in vec_scalar.cc.
//
// Functions carry __attribute__((target("avx2"))) instead of the TU being
// built with -mavx2: the rest of the file (dispatch glue, tails) stays
// baseline-ISA, and the binary runs on non-AVX2 machines as long as dispatch
// never selects this backend.
#include "src/simd/vec.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/simd/quant.h"

namespace poseidon {
namespace simd {
namespace {

#define POSEIDON_AVX2 __attribute__((target("avx2")))

POSEIDON_AVX2 void Avx2ReduceAdd(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_loadu_ps(dst + i);
    const __m256 s = _mm256_loadu_ps(src + i);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(d, s));
  }
  ScalarKernels()->reduce_add(dst + i, src + i, n - i);
}

POSEIDON_AVX2 void Avx2Scale(float* dst, float alpha, int64_t n) {
  const __m256 a = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), a));
  }
  ScalarKernels()->scale(dst + i, alpha, n - i);
}

POSEIDON_AVX2 void Avx2Axpy(float* y, float alpha, const float* x, int64_t n) {
  const __m256 a = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 ax = _mm256_mul_ps(a, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), ax));
  }
  ScalarKernels()->axpy(y + i, alpha, x + i, n - i);
}

POSEIDON_AVX2 void Avx2SgdStep(float* v, float* value, const float* grad, float lr,
                               float mu, float wd, int64_t n) {
  const __m256 vmu = _mm256_set1_ps(mu);
  const __m256 vwd = _mm256_set1_ps(wd);
  const __m256 vlr = _mm256_set1_ps(lr);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vel = _mm256_loadu_ps(v + i);
    const __m256 val = _mm256_loadu_ps(value + i);
    const __m256 g = _mm256_loadu_ps(grad + i);
    // (mu * v + g) + wd * value — the scalar expression's association.
    const __m256 nv = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(vmu, vel), g),
                                    _mm256_mul_ps(vwd, val));
    _mm256_storeu_ps(v + i, nv);
    _mm256_storeu_ps(value + i, _mm256_sub_ps(val, _mm256_mul_ps(vlr, nv)));
  }
  ScalarKernels()->sgd_step(v + i, value + i, grad + i, lr, mu, wd, n - i);
}

// 8 lanes of internal::Fp16Pack: clamp-after-round via unsigned min, then
// the range overrides (mutually exclusive, so blend order is free). All
// compared quantities are < 2^31, so signed compares stand in for unsigned.
POSEIDON_AVX2 inline __m256i Fp16Pack8(__m256i u, __m256i rnd13) {
  const __m256i max_half = _mm256_set1_epi32(0x7BFF);
  const __m256i sign =
      _mm256_and_si256(_mm256_srli_epi32(u, 16), _mm256_set1_epi32(0x8000));
  const __m256i absu = _mm256_and_si256(u, _mm256_set1_epi32(0x7FFFFFFF));
  __m256i h = _mm256_srli_epi32(
      _mm256_sub_epi32(_mm256_add_epi32(absu, rnd13),
                       _mm256_set1_epi32(0x38000000)),
      13);
  h = _mm256_min_epu32(h, max_half);
  const __m256i big = _mm256_cmpgt_epi32(absu, _mm256_set1_epi32(0x477FFFFF));
  h = _mm256_blendv_epi8(h, max_half, big);
  const __m256i small = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x38800000), absu);
  h = _mm256_andnot_si256(small, h);
  return _mm256_or_si256(sign, h);
}

// Stores 8 uint16 results held in the low 16 bits of 8 int32 lanes.
POSEIDON_AVX2 inline void StoreHalf8(uint16_t* out, __m256i r) {
  const __m256i packed = _mm256_packus_epi32(r, r);
  const __m256i perm = _mm256_permute4x64_epi64(packed, _MM_SHUFFLE(0, 0, 2, 0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm256_castsi256_si128(perm));
}

POSEIDON_AVX2 void Avx2Fp16EncodeRn(const float* src, int64_t n, uint16_t* out) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i u = _mm256_castps_si256(_mm256_loadu_ps(src + i));
    const __m256i absu = _mm256_and_si256(u, _mm256_set1_epi32(0x7FFFFFFF));
    const __m256i rnd = _mm256_add_epi32(
        _mm256_set1_epi32(0xFFF),
        _mm256_and_si256(_mm256_srli_epi32(absu, 13), _mm256_set1_epi32(1)));
    StoreHalf8(out + i, Fp16Pack8(u, rnd));
  }
  ScalarKernels()->fp16_encode_rn(src + i, n - i, out + i);
}

POSEIDON_AVX2 void Avx2Fp16Decode(const uint16_t* src, int64_t n, float* out) {
  const __m256i exp_mask = _mm256_set1_epi32(0x0F800000);
  const __m256i bias = _mm256_set1_epi32(112 << 23);
  const __m256 magic = _mm256_castsi256_ps(_mm256_set1_epi32(0x38800000));
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i h = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)));
    const __m256i sign =
        _mm256_slli_epi32(_mm256_and_si256(h, _mm256_set1_epi32(0x8000)), 16);
    __m256i o =
        _mm256_slli_epi32(_mm256_and_si256(h, _mm256_set1_epi32(0x7FFF)), 13);
    const __m256i exp = _mm256_and_si256(o, exp_mask);
    o = _mm256_add_epi32(o, bias);
    const __m256i is_inf = _mm256_cmpeq_epi32(exp, exp_mask);
    o = _mm256_blendv_epi8(o, _mm256_add_epi32(o, bias), is_inf);
    // Subnormal renormalization: the float subtract is exact (same binade),
    // computed in every lane and blended in where the exponent field is 0.
    const __m256i is_sub = _mm256_cmpeq_epi32(exp, _mm256_setzero_si256());
    const __m256i sub_bits = _mm256_castps_si256(_mm256_sub_ps(
        _mm256_castsi256_ps(_mm256_add_epi32(o, _mm256_set1_epi32(1 << 23))),
        magic));
    o = _mm256_blendv_epi8(o, sub_bits, is_sub);
    _mm256_storeu_ps(out + i, _mm256_castsi256_ps(_mm256_or_si256(sign, o)));
  }
  ScalarKernels()->fp16_decode(src + i, n - i, out + i);
}

POSEIDON_AVX2 int64_t Avx2CountAbsGreater(const float* src, int64_t n,
                                          float threshold) {
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256 thr = _mm256_set1_ps(threshold);
  __m256i cnt = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_and_ps(_mm256_loadu_ps(src + i), absmask);
    cnt = _mm256_sub_epi32(cnt,
                           _mm256_castps_si256(_mm256_cmp_ps(a, thr, _CMP_GT_OQ)));
  }
  int32_t lanes[8];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), cnt);
  int64_t count = 0;
  for (int l = 0; l < 8; ++l) {
    count += lanes[l];
  }
  for (; i < n; ++i) {
    count += std::fabs(src[i]) > threshold ? 1 : 0;
  }
  return count;
}

// GemmTransB and GemmPackedPanel. Every output element keeps the scalar
// reference's serial sum (+0.0, then acc + a*b for p = 0..k-1, mul and add
// separate); speed comes from giving each lane its own output element, so
// the lane axis is chosen by shape: rows i when m is 8 or 16 (FC forward at
// small batch, where transposing the [m, k] operand is cheap), else columns
// j through the one packed-panel tile below (SF reconstruction, large m, and
// the conv forward, which packs its own panels). GemmTransB lays its
// transposed operand out in a per-thread scratch that is grown once and
// reused, so steady-state calls do not allocate.
float* PanelScratch(int64_t floats) {
  thread_local std::vector<float> panel;
  if (panel.size() < static_cast<size_t>(floats)) {
    panel.resize(static_cast<size_t>(floats));
  }
  return panel.data();
}

// The register tile: kRows x 8*kVecs outputs at `out` (row stride
// out_stride), rows of `a` starting at `a`, from columns of a [k, width]
// panel starting at `panel`. The kRows rows share each panel load, and the
// 4*kVecs independent accumulators hide the add latency.
template <int kRows, int kVecs>
POSEIDON_AVX2 void Avx2PanelTile(const float* a, const float* panel, int64_t width,
                                 int64_t k, const float* bias, bool accumulate,
                                 float* out, int64_t out_stride) {
  __m256 acc[kRows][kVecs];
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = _mm256_setzero_ps();
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    __m256 bv[kVecs];
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) {
      bv[v] = _mm256_loadu_ps(panel + p * width + 8 * v);
    }
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * k + p);
#pragma GCC unroll 2
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) {
      __m256 value = acc[r][v];
      if (bias != nullptr) {
        value = _mm256_add_ps(value, _mm256_set1_ps(bias[r]));
      }
      float* o = out + r * out_stride + 8 * v;
      _mm256_storeu_ps(o, accumulate ? _mm256_add_ps(_mm256_loadu_ps(o), value) : value);
    }
  }
}

// Every column of a [k, width] panel for kRows rows: 16-wide tiles, one
// 8-wide tile, then the scalar reference's loop for the last width % 8.
template <int kRows>
POSEIDON_AVX2 void Avx2PanelRows(const float* a, const float* panel, int64_t width,
                                 int64_t k, const float* bias, bool accumulate,
                                 float* out, int64_t out_stride) {
  int64_t j = 0;
  for (; j + 16 <= width; j += 16) {
    Avx2PanelTile<kRows, 2>(a, panel + j, width, k, bias, accumulate, out + j, out_stride);
  }
  if (j + 8 <= width) {
    Avx2PanelTile<kRows, 1>(a, panel + j, width, k, bias, accumulate, out + j, out_stride);
    j += 8;
  }
  for (; j < width; ++j) {
    for (int r = 0; r < kRows; ++r) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a[r * k + p] * panel[p * width + j];
      }
      const float value = bias != nullptr ? acc + bias[r] : acc;
      float* o = out + r * out_stride + j;
      *o = accumulate ? *o + value : value;
    }
  }
}

POSEIDON_AVX2 void Avx2GemmPackedPanel(const float* a, const float* panel, int64_t m,
                                       int64_t width, int64_t k, const float* bias,
                                       float* out, int64_t out_stride) {
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    Avx2PanelRows<4>(a + i * k, panel, width, k, bias + i, /*accumulate=*/false,
                     out + i * out_stride, out_stride);
  }
  for (; i < m; ++i) {
    Avx2PanelRows<1>(a + i * k, panel, width, k, bias + i, /*accumulate=*/false,
                     out + i * out_stride, out_stride);
  }
}

// Writes one output column j of an m = 8 * kVecs row-lane result.
template <int kVecs>
POSEIDON_AVX2 inline void Avx2StoreRowLanes(const __m256 (&lanes)[kVecs], int64_t n,
                                            int64_t j, bool accumulate, float* out) {
  alignas(32) float buf[8 * kVecs];
#pragma GCC unroll 2
  for (int v = 0; v < kVecs; ++v) {
    _mm256_store_ps(buf + 8 * v, lanes[v]);
  }
  for (int64_t i = 0; i < 8 * kVecs; ++i) {
    float* o = out + i * n + j;
    *o = accumulate ? *o + buf[i] : buf[i];
  }
}

// Row lanes for m == 8 * kVecs: `panel` holds a^T as [k, m], and 8 / kVecs
// output columns share each panel load.
template <int kVecs>
POSEIDON_AVX2 void Avx2GemmRowLanes(const float* a, const float* b, int64_t n,
                                    int64_t k, bool accumulate, float* out) {
  constexpr int64_t kM = 8 * kVecs;
  constexpr int kCols = 8 / kVecs;
  float* panel = PanelScratch(kM * k);
  for (int64_t i = 0; i < kM; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      panel[p * kM + i] = a[i * k + p];
    }
  }
  int64_t j = 0;
  for (; j + kCols <= n; j += kCols) {
    __m256 acc[kCols][kVecs];
#pragma GCC unroll 8
    for (int c = 0; c < kCols; ++c) {
#pragma GCC unroll 2
      for (int v = 0; v < kVecs; ++v) {
        acc[c][v] = _mm256_setzero_ps();
      }
    }
    const float* b_cols = b + j * k;
    for (int64_t p = 0; p < k; ++p) {
      __m256 at[kVecs];
#pragma GCC unroll 2
      for (int v = 0; v < kVecs; ++v) {
        at[v] = _mm256_loadu_ps(panel + p * kM + 8 * v);
      }
#pragma GCC unroll 8
      for (int c = 0; c < kCols; ++c) {
        const __m256 bv = _mm256_broadcast_ss(b_cols + c * k + p);
#pragma GCC unroll 2
        for (int v = 0; v < kVecs; ++v) {
          acc[c][v] = _mm256_add_ps(acc[c][v], _mm256_mul_ps(at[v], bv));
        }
      }
    }
#pragma GCC unroll 8
    for (int c = 0; c < kCols; ++c) {
      Avx2StoreRowLanes<kVecs>(acc[c], n, j + c, accumulate, out);
    }
  }
  for (; j < n; ++j) {
    __m256 acc[kVecs];
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_setzero_ps();
    }
    const float* b_row = b + j * k;
    for (int64_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_broadcast_ss(b_row + p);
#pragma GCC unroll 2
      for (int v = 0; v < kVecs; ++v) {
        acc[v] = _mm256_add_ps(
            acc[v], _mm256_mul_ps(_mm256_loadu_ps(panel + p * kM + 8 * v), bv));
      }
    }
    Avx2StoreRowLanes<kVecs>(acc, n, j, accumulate, out);
  }
}

POSEIDON_AVX2 void Avx2GemmTransB(const float* a, const float* b, int64_t m, int64_t n,
                                  int64_t k, bool accumulate, float* out) {
  if (m == 8) {
    Avx2GemmRowLanes<1>(a, b, n, k, accumulate, out);
    return;
  }
  if (m == 16) {
    Avx2GemmRowLanes<2>(a, b, n, k, accumulate, out);
    return;
  }
  // Column lanes: b is packed as [k, width] panels of 16 columns (the last
  // may be narrower), in groups whose panels fit in ~256 KB of L2. Each
  // group sweeps the rows four at a time through the packed-panel tile, so
  // a row of `a` and of `out` is read and written contiguously.
  constexpr int64_t kPanelFloats = 64 * 1024;
  const int64_t group = std::max<int64_t>(16, kPanelFloats / std::max<int64_t>(k, 1) / 16 * 16);
  float* panel = PanelScratch(std::min(group, n) * k);
  for (int64_t g0 = 0; g0 < n; g0 += group) {
    const int64_t g1 = std::min(n, g0 + group);
    for (int64_t j0 = g0; j0 < g1; j0 += 16) {
      const int64_t width = std::min<int64_t>(16, g1 - j0);
      float* block = panel + (j0 - g0) * k;
      for (int64_t c = 0; c < width; ++c) {
        const float* b_row = b + (j0 + c) * k;
        for (int64_t p = 0; p < k; ++p) {
          block[p * width + c] = b_row[p];
        }
      }
    }
    int64_t i = 0;
    for (; i + 4 <= m; i += 4) {
      for (int64_t j0 = g0; j0 < g1; j0 += 16) {
        Avx2PanelRows<4>(a + i * k, panel + (j0 - g0) * k, std::min<int64_t>(16, g1 - j0), k,
                         nullptr, accumulate, out + i * n + j0, n);
      }
    }
    for (; i < m; ++i) {
      for (int64_t j0 = g0; j0 < g1; j0 += 16) {
        Avx2PanelRows<1>(a + i * k, panel + (j0 - g0) * k, std::min<int64_t>(16, g1 - j0), k,
                         nullptr, accumulate, out + i * n + j0, n);
      }
    }
  }
}

#undef POSEIDON_AVX2

const Kernels kAvx2Kernels = {
    Level::kAvx2,     Avx2ReduceAdd,       Avx2Scale,
    Avx2Axpy,         Avx2SgdStep,         Avx2Fp16EncodeRn,
    Avx2Fp16Decode,   Avx2CountAbsGreater, Avx2GemmTransB,
    Avx2GemmPackedPanel,
};

}  // namespace

const Kernels* Avx2Kernels() {
  return __builtin_cpu_supports("avx2") ? &kAvx2Kernels : nullptr;
}

}  // namespace simd
}  // namespace poseidon

#else  // !x86

namespace poseidon {
namespace simd {
const Kernels* Avx2Kernels() { return nullptr; }
}  // namespace simd
}  // namespace poseidon

#endif

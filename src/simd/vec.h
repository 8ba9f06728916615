/// \file
/// Portable 8-lane vector kernels for the wire-path hot loops, with runtime
/// ISA dispatch (scalar reference, AVX2, NEON) that is **bitwise pinned**:
/// every backend produces bit-identical floats for every input, so the
/// golden-trajectory, chaos and multiprocess suites keep pinning correctness
/// regardless of which backend executes.
///
/// The determinism contract (see docs/PERFORMANCE.md):
///   * Every kernel processes elements in fixed 8-wide blocks with a scalar
///     tail, and every operation inside a block is elementwise (or, for the
///     1-bit column statistics, strictly sequential down the rows of each
///     column, or for GemmTransB and GemmPackedPanel strictly sequential
///     along each output's dot product). No kernel ever reassociates a floating-point reduction,
///     so the lane width never changes a result.
///   * Backends never emit fused multiply-adds: vector code uses explicit
///     mul-then-add intrinsics, and the whole project is compiled with
///     -ffp-contract=off (see CMakeLists.txt), so AVX2/NEON and scalar round
///     identically.
///   * The 1-bit encoder's per-column sums use blended accumulation
///     (`sum += pos ? q : 0.0`) in *every* backend, including the scalar
///     reference. Adding a (+0.0) no-op term to a running sum that can never
///     be -0.0 is bit-exact, so the blended form equals the historical
///     branchy loop — proven by tests/simd_test.cc.
///
/// Dispatch: the first kernel call resolves the backend from the CPU
/// (AVX2 via CPUID on x86, NEON on AArch64, else scalar), overridable with
///   POSEIDON_SIMD=auto|avx2|neon|scalar      (environment)
///   --simd=auto|avx2|neon|scalar             (bench CLI, src/common/cli)
/// or programmatically with SetLevel (tests flip levels mid-process to prove
/// cross-ISA bit-equality). Requesting an unsupported backend falls back to
/// scalar with a warning — scalar is always a correct answer.
#ifndef POSEIDON_SRC_SIMD_VEC_H_
#define POSEIDON_SRC_SIMD_VEC_H_

#include <cstdint>
#include <string>
#include <vector>

namespace poseidon {
namespace simd {

/// A dispatchable backend. kScalar is the reference implementation and is
/// always supported; kAvx2/kNeon require hardware (and compile-time) support.
enum class Level {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// Human-readable backend name ("scalar", "avx2", "neon").
const char* LevelName(Level level);

/// True when `level` can execute on this CPU with this binary.
bool Supported(Level level);

/// The fastest supported level (what POSEIDON_SIMD=auto resolves to).
Level BestLevel();

/// Every supported level, scalar first. Tests iterate this to prove
/// cross-ISA bit-equality on whatever hardware runs them.
std::vector<Level> SupportedLevels();

/// The level the kernel entry points currently dispatch to. Resolves the
/// POSEIDON_SIMD environment override on first use.
Level ActiveLevel();

/// Switches dispatch to `level`. Falls back to kScalar (with a logged
/// warning) when `level` is not supported. Thread-safe, but callers flipping
/// levels mid-run own the race with concurrent kernel calls — in practice
/// only tests and bench setup call this.
void SetLevel(Level level);

/// Parses "auto"/"scalar"/"avx2"/"neon" and applies it via SetLevel
/// ("auto" = BestLevel). Returns false (and changes nothing) on an unknown
/// name. Backs both the POSEIDON_SIMD env var and the --simd bench flag.
bool SetLevelFromString(const std::string& name);

/// RAII level override for tests: restores the previous level on scope exit.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) : previous_(ActiveLevel()) { SetLevel(level); }
  ~ScopedLevel() { SetLevel(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level previous_;
};

// --------------------------------------------------------------- kernels ----
// All pointers may be arbitrarily aligned (kernels use unaligned vector
// loads; Payload slabs are 64-byte aligned as a cache courtesy, but views
// carry arbitrary word offsets). Ranges must not overlap unless a parameter
// is documented as in-place.

/// dst[i] += src[i] for i in [0, n). The ring reduce-scatter / tree-reduce /
/// dense-apply accumulate loop.
void ReduceAdd(float* dst, const float* src, int64_t n);

/// dst[i] *= alpha. The gradient-averaging loop.
void Scale(float* dst, float alpha, int64_t n);

/// y[i] += alpha * x[i] (no FMA; mul then add, like the scalar expression).
void Axpy(float* y, float alpha, const float* x, int64_t n);

/// Momentum SGD update, the KV-store apply-thread inner loop:
///   v[i]     = (mu * v[i] + grad[i]) + wd * value[i]
///   value[i] = value[i] - lr * v[i]
void SgdStep(float* v, float* value, const float* grad, float lr, float mu,
             float wd, int64_t n);

/// 1-bit encode pass 1 over a row-major [rows, cols] gradient with carried
/// residual: for each element q = grad + residual, records the sign bit
/// (q >= 0, row-major packed 32 per word — `bits` must be zeroed, and have
/// ceil(rows*cols/32) words) and accumulates per-column statistics:
///   pos_sum[c] += q >= 0 ? (double)q : 0.0;   pos_count[c] += q >= 0;
///   neg_sum[c] += q >= 0 ? 0.0 : (double)q;   neg_count[c] += q < 0;
/// Columns accumulate strictly in row order, so lane width never changes a
/// sum. Sum/count arrays must be zeroed by the caller and hold `cols`
/// entries each.
void OneBitEncodeStats(const float* grad, const float* residual, int64_t rows,
                       int64_t cols, uint32_t* bits, double* pos_sum,
                       double* neg_sum, int32_t* pos_count, int32_t* neg_count);

/// 1-bit encode pass 2: residual[i] = (grad[i] + residual[i]) - level, where
/// level is pos_level[c] or neg_level[c] by the element's sign bit. In-place
/// on `residual`.
void OneBitResidualUpdate(const float* grad, int64_t rows, int64_t cols,
                          const uint32_t* bits, const float* pos_level,
                          const float* neg_level, float* residual);

/// 1-bit decode: out[i] = bit ? pos_level[c] : neg_level[c] over the
/// row-major [rows, cols] target.
void OneBitDecode(const uint32_t* bits, const float* pos_level,
                  const float* neg_level, int64_t rows, int64_t cols, float* out);

// Quantized-codec kernels (docs/COMPRESSION.md). The rounding noise for the
// stochastic variants comes from a per-element integer hash of
// (seed, base_index + i) — src/simd/quant.h — so the encodings are a pure
// function of (data, seed, flat element index): independent of lane width,
// of how a layer is sliced across shards, and of which backend runs.

/// fp32 -> fp16 with round-to-nearest-even, for the parameter-reply
/// direction. Magnitudes below the smallest normal half flush to signed
/// zero; values at or above 2^16 clamp to the largest finite half (65504).
void Fp16EncodeRn(const float* src, int64_t n, uint16_t* out);

/// Exact fp16 -> fp32 for every 16-bit pattern (hostile frames included).
void Fp16Decode(const uint16_t* src, int64_t n, float* out);

/// fp32 -> int8 with deterministic stochastic rounding:
///   t = src[i] * inv_scale; q = floor(t) + (frac(t) > r ? 1 : 0)
/// with r a 24-bit uniform from the (seed, base_index + i) hash, clamped to
/// [-127, 127] (NaN squashes to 0 so the cast is always defined).
void Int8EncodeSr(const float* src, int64_t n, float inv_scale, uint32_t seed,
                  int64_t base_index, int8_t* out);

/// out[i] = src[i] * scale (int8 -> fp32 is exact; one correctly-rounded
/// multiply).
void Int8Decode(const int8_t* src, int64_t n, float scale, float* out);

/// max_i |src[i]|, ignoring NaNs, 0 for n == 0. |x| > m ? |x| : m is
/// associative over the non-negative magnitudes, so lane order cannot change
/// the result.
float MaxAbs(const float* src, int64_t n);

/// Number of elements with |src[i]| > threshold (ordered compare: NaN never
/// counts). The top-k codec's threshold-selection pass.
int64_t CountAbsGreater(const float* src, int64_t n, float threshold);

/// Matrix product against a transposed right operand, the FC forward and
/// sufficient-factor reconstruction kernel: a is [m, k], b is [n, k] and
/// out is [m, n], all row-major, and for every (i, j)
///   dot = +0.0f;  for p in 0..k-1: dot = dot + a[i,p] * b[j,p]
///   out[i,j] = accumulate ? out[i,j] + dot : dot
/// with a separate mul and add per term. Each output element's sum stays
/// serial in p; vector backends put independent output elements in the
/// lanes (columns j, or rows i when m is 8 or 16), never split one sum.
void GemmTransB(const float* a, const float* b, int64_t m, int64_t n, int64_t k,
                bool accumulate, float* out);

/// The packed-panel tile behind the conv forward (and, in the AVX2
/// backend, GemmTransB's column lanes): a is [m, k] row-major, `bias` has
/// m entries, and `panel` holds `width` columns packed as [k, width]
/// (column j of tap p at panel[p * width + j]). For every i < m, j < width
///   dot = +0.0f;  for p in 0..k-1: dot = dot + a[i,p] * panel[p,j]
///   out[i * out_stride + j] = dot + bias[i]
/// with a separate mul and add per term, each dot serial in p. Vector
/// backends put the columns j in the lanes.
void GemmPackedPanel(const float* a, const float* panel, int64_t m, int64_t width,
                     int64_t k, const float* bias, float* out, int64_t out_stride);

// ---------------------------------------------------------- backend table ---

/// One backend's kernel implementations. Exposed so tests can drive a
/// specific backend directly (bypassing dispatch) when proving bit-equality.
struct Kernels {
  Level level;
  void (*reduce_add)(float*, const float*, int64_t);
  void (*scale)(float*, float, int64_t);
  void (*axpy)(float*, float, const float*, int64_t);
  void (*sgd_step)(float*, float*, const float*, float, float, float, int64_t);
  void (*onebit_encode_stats)(const float*, const float*, int64_t, int64_t,
                              uint32_t*, double*, double*, int32_t*, int32_t*);
  void (*onebit_residual_update)(const float*, int64_t, int64_t, const uint32_t*,
                                 const float*, const float*, float*);
  void (*onebit_decode)(const uint32_t*, const float*, const float*, int64_t,
                        int64_t, float*);
  void (*fp16_encode_rn)(const float*, int64_t, uint16_t*);
  void (*fp16_decode)(const uint16_t*, int64_t, float*);
  void (*int8_encode_sr)(const float*, int64_t, float, uint32_t, int64_t, int8_t*);
  void (*int8_decode)(const int8_t*, int64_t, float, float*);
  float (*max_abs)(const float*, int64_t);
  int64_t (*count_abs_greater)(const float*, int64_t, float);
  void (*gemm_trans_b)(const float*, const float*, int64_t, int64_t, int64_t, bool,
                       float*);
  void (*gemm_packed_panel)(const float*, const float*, int64_t, int64_t, int64_t,
                            const float*, float*, int64_t);
};

/// The scalar reference backend (always available).
const Kernels* ScalarKernels();
/// The AVX2 backend, or nullptr when not compiled in or not supported here.
const Kernels* Avx2Kernels();
/// The NEON backend, or nullptr when not compiled in or not supported here.
const Kernels* NeonKernels();
/// The backend for `level`, or nullptr when unsupported.
const Kernels* KernelsFor(Level level);

}  // namespace simd
}  // namespace poseidon

#endif  // POSEIDON_SRC_SIMD_VEC_H_

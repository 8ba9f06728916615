#include "src/simd/vec.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "src/common/logging.h"

namespace poseidon {
namespace simd {
namespace {

// The active kernel table. Null until first use; resolved lazily so the
// POSEIDON_SIMD environment override applies no matter how early a kernel
// runs. Kernel calls load it with one relaxed read.
std::atomic<const Kernels*> g_active{nullptr};
std::once_flag g_init_once;

const Kernels* ResolveInitial() {
  const char* env = std::getenv("POSEIDON_SIMD");
  if (env != nullptr && *env != '\0') {
    if (!SetLevelFromString(env)) {
      LOG(Warning) << "POSEIDON_SIMD='" << env
                   << "' is not auto|avx2|neon|scalar; using auto";
      SetLevel(BestLevel());
    }
  } else {
    SetLevel(BestLevel());
  }
  return g_active.load(std::memory_order_acquire);
}

const Kernels* Active() {
  const Kernels* kernels = g_active.load(std::memory_order_acquire);
  if (kernels == nullptr) {
    std::call_once(g_init_once, [] { ResolveInitial(); });
    kernels = g_active.load(std::memory_order_acquire);
  }
  return kernels;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "?";
}

const Kernels* KernelsFor(Level level) {
  switch (level) {
    case Level::kScalar:
      return ScalarKernels();
    case Level::kAvx2:
      return Avx2Kernels();
    case Level::kNeon:
      return NeonKernels();
  }
  return nullptr;
}

bool Supported(Level level) { return KernelsFor(level) != nullptr; }

Level BestLevel() {
  if (Avx2Kernels() != nullptr) {
    return Level::kAvx2;
  }
  if (NeonKernels() != nullptr) {
    return Level::kNeon;
  }
  return Level::kScalar;
}

std::vector<Level> SupportedLevels() {
  std::vector<Level> levels = {Level::kScalar};
  for (Level level : {Level::kAvx2, Level::kNeon}) {
    if (Supported(level)) {
      levels.push_back(level);
    }
  }
  return levels;
}

Level ActiveLevel() { return Active()->level; }

void SetLevel(Level level) {
  const Kernels* kernels = KernelsFor(level);
  if (kernels == nullptr) {
    LOG(Warning) << "simd level '" << LevelName(level)
                 << "' is not supported on this CPU; falling back to scalar";
    kernels = ScalarKernels();
  }
  g_active.store(kernels, std::memory_order_release);
}

bool SetLevelFromString(const std::string& name) {
  if (name == "auto") {
    SetLevel(BestLevel());
  } else if (name == "scalar") {
    SetLevel(Level::kScalar);
  } else if (name == "avx2") {
    SetLevel(Level::kAvx2);
  } else if (name == "neon") {
    SetLevel(Level::kNeon);
  } else {
    return false;
  }
  return true;
}

void ReduceAdd(float* dst, const float* src, int64_t n) {
  Active()->reduce_add(dst, src, n);
}

void Scale(float* dst, float alpha, int64_t n) { Active()->scale(dst, alpha, n); }

void Axpy(float* y, float alpha, const float* x, int64_t n) {
  Active()->axpy(y, alpha, x, n);
}

void SgdStep(float* v, float* value, const float* grad, float lr, float mu,
             float wd, int64_t n) {
  Active()->sgd_step(v, value, grad, lr, mu, wd, n);
}

void OneBitEncodeStats(const float* grad, const float* residual, int64_t rows,
                       int64_t cols, uint32_t* bits, double* pos_sum,
                       double* neg_sum, int32_t* pos_count, int32_t* neg_count) {
  Active()->onebit_encode_stats(grad, residual, rows, cols, bits, pos_sum, neg_sum,
                                pos_count, neg_count);
}

void OneBitResidualUpdate(const float* grad, int64_t rows, int64_t cols,
                          const uint32_t* bits, const float* pos_level,
                          const float* neg_level, float* residual) {
  Active()->onebit_residual_update(grad, rows, cols, bits, pos_level, neg_level,
                                   residual);
}

void OneBitDecode(const uint32_t* bits, const float* pos_level,
                  const float* neg_level, int64_t rows, int64_t cols, float* out) {
  Active()->onebit_decode(bits, pos_level, neg_level, rows, cols, out);
}

void Fp16EncodeRn(const float* src, int64_t n, uint16_t* out) {
  Active()->fp16_encode_rn(src, n, out);
}

void Fp16Decode(const uint16_t* src, int64_t n, float* out) {
  Active()->fp16_decode(src, n, out);
}

void Int8EncodeSr(const float* src, int64_t n, float inv_scale, uint32_t seed,
                  int64_t base_index, int8_t* out) {
  Active()->int8_encode_sr(src, n, inv_scale, seed, base_index, out);
}

void Int8Decode(const int8_t* src, int64_t n, float scale, float* out) {
  Active()->int8_decode(src, n, scale, out);
}

float MaxAbs(const float* src, int64_t n) { return Active()->max_abs(src, n); }

int64_t CountAbsGreater(const float* src, int64_t n, float threshold) {
  return Active()->count_abs_greater(src, n, threshold);
}

void GemmTransB(const float* a, const float* b, int64_t m, int64_t n, int64_t k,
                bool accumulate, float* out) {
  Active()->gemm_trans_b(a, b, m, n, k, accumulate, out);
}

void GemmPackedPanel(const float* a, const float* panel, int64_t m, int64_t width,
                     int64_t k, const float* bias, float* out, int64_t out_stride) {
  Active()->gemm_packed_panel(a, panel, m, width, k, bias, out, out_stride);
}

}  // namespace simd
}  // namespace poseidon

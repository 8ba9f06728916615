/// \file
/// Internal per-element quantization primitives shared by the simd backends
/// and the codec layer: a vectorizable integer hash for deterministic
/// stochastic rounding, and the exact fp16 pack/unpack formulas every
/// backend must reproduce bit-for-bit (docs/COMPRESSION.md).
///
/// Everything here is pure integer arithmetic (or a single exact float
/// subtract in the subnormal-decode path), so scalar, AVX2 and NEON
/// translations agree bitwise by construction.
#ifndef POSEIDON_SRC_SIMD_QUANT_H_
#define POSEIDON_SRC_SIMD_QUANT_H_

#include <cstdint>
#include <cstring>

namespace poseidon {
namespace simd {

/// int8 frames carry one fp32 scale per this many elements
/// (src/transport/codec.cc). Lives here so the cost model and the codec
/// agree on the per-chunk overhead.
constexpr int64_t kInt8ChunkSize = 256;

namespace internal {

/// 32-bit finalizer-style mixer (xor-shift + odd-constant multiplies, the
/// lowbias32 recipe). Only uses ops with exact vector equivalents
/// (mullo/srli/xor), so the vector backends hash 8 indices per block and get
/// the same bits as the scalar reference. The (seed, index) pair fully
/// determines the rounding noise: seeding per (layer, clock) makes every
/// replica's stochastic rounding identical (docs/COMPRESSION.md).
inline uint32_t MixBits(uint32_t seed, uint32_t index) {
  uint32_t h = index ^ seed;
  h ^= h >> 16;
  h *= 0x21f0aaadu;
  h ^= h >> 15;
  h *= 0x735a2d97u;
  h ^= h >> 15;
  return h;
}

inline uint32_t FloatBits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

inline float BitsFloat(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// Packs fp32 bits into an IEEE binary16 pattern with the encoder's reduced
/// range: magnitudes below the smallest normal half (2^-14) flush to signed
/// zero (the codec's error feedback re-injects them next clock), magnitudes
/// at or above 2^16 — including inf/NaN bit patterns — clamp to the largest
/// finite half (65504). `rnd13` in [0, 0x1FFF] is added below the half
/// mantissa before truncation: 0 truncates, 0xFFF + (bit 13 of the
/// magnitude) rounds to nearest-even. Branchless-equivalent order (clamp-SR-overflow, then the
/// range overrides) — the vector backends mirror it exactly.
inline uint16_t Fp16Pack(uint32_t u, uint32_t rnd13) {
  const uint32_t sign = (u >> 16) & 0x8000u;
  const uint32_t absu = u & 0x7FFFFFFFu;
  uint32_t h = ((absu + rnd13) - 0x38000000u) >> 13;
  if (h > 0x7BFFu) h = 0x7BFFu;
  if (absu >= 0x47800000u) h = 0x7BFFu;
  if (absu < 0x38800000u) h = 0;
  return static_cast<uint16_t>(sign | h);
}

/// The 13-bit round-to-nearest-even increment for magnitude bits `absu`.
inline uint32_t Fp16RnIncrement(uint32_t absu) { return 0xFFFu + ((absu >> 13) & 1u); }

/// Exact IEEE binary16 -> binary32 (all 65536 patterns, including the
/// subnormals and inf/NaN the encoder never emits but a hostile frame can
/// carry). The subnormal branch renormalizes with one float subtract that is
/// exact (both operands share the 2^-14 binade), so every backend rounds
/// identically.
inline float Fp16Unpack(uint16_t half) {
  const uint32_t sign = static_cast<uint32_t>(half & 0x8000u) << 16;
  uint32_t o = static_cast<uint32_t>(half & 0x7FFFu) << 13;
  const uint32_t exp = o & 0x0F800000u;
  o += 112u << 23;  // bias adjust 127 - 15
  if (exp == 0x0F800000u) {
    o += 112u << 23;  // inf/NaN: push the exponent to 255
  } else if (exp == 0) {
    o += 1u << 23;  // zero/subnormal: renormalize via exact subtract
    o = FloatBits(BitsFloat(o) - BitsFloat(0x38800000u));
  }
  return BitsFloat(sign | o);
}

}  // namespace internal
}  // namespace simd
}  // namespace poseidon

#endif  // POSEIDON_SRC_SIMD_QUANT_H_

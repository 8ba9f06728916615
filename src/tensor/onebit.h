// CNTK-style 1-bit gradient quantization with error feedback (Seide et al.,
// INTERSPEECH'14; used as the comparison baseline in Poseidon §5.3).
//
// Encoding a gradient tensor G with carried residual R:
//   Q = G + R                     (error feedback: add what was lost before)
//   sign bits  b_i = Q_i >= 0
//   per-column reconstruction values: mean of positive entries (for b=1) and
//   mean of negative entries (for b=0), the mean-square-optimal 2-level
//   quantizer given the sign split
//   R' = Q - Decode(bits)         (new residual, kept locally)
//
// Wire size: 1 bit per element + two floats per column, vs 32 bits per
// element for the exact gradient — a 32x reduction that trades statistical
// efficiency, which is exactly the trade-off Figure 11 measures.
#ifndef POSEIDON_SRC_TENSOR_ONEBIT_H_
#define POSEIDON_SRC_TENSOR_ONEBIT_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace poseidon {

struct OneBitEncoded {
  int64_t rows = 0;
  int64_t cols = 0;
  // Row-major sign bits, packed 32 per word.
  std::vector<uint32_t> bits;
  // Per-column reconstruction levels.
  std::vector<float> positive_level;
  std::vector<float> negative_level;

  // Bytes this message occupies on the wire.
  int64_t WireBytes() const;
};

class OneBitQuantizer {
 public:
  OneBitQuantizer() = default;

  // Quantizes `gradient` (2-D), folding in and updating the internal
  // residual. The residual tensor is lazily initialized to zeros with the
  // gradient's shape on first use.
  OneBitEncoded Encode(const Tensor& gradient);

  // Reconstructs a dense tensor from the encoding.
  static Tensor Decode(const OneBitEncoded& encoded);

  const Tensor& residual() const { return residual_; }

 private:
  Tensor residual_;
};

// The decode loop: out[i] = bit ? pos_level[c] : neg_level[c] over the
// row-major [rows, cols] target, `bits` packed as in OneBitEncoded.
// OneBitQuantizer::Decode and OneBitCodec::DecodeDense both run it.
void OneBitDecode(const uint32_t* bits, const float* pos_level, const float* neg_level,
                  int64_t rows, int64_t cols, float* out);

}  // namespace poseidon

#endif  // POSEIDON_SRC_TENSOR_ONEBIT_H_

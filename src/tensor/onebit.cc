#include "src/tensor/onebit.h"

#include <cmath>
#include <vector>

namespace poseidon {
namespace {

// Pass 1 over a row-major [rows, cols] gradient with carried residual: for
// each element q = grad + residual, records the sign bit (q >= 0, packed 32
// per word into the zeroed `bits`) and accumulates per-column sums and
// counts of each sign class. Columns accumulate strictly in row order.
void OneBitEncodeStats(const float* grad, const float* residual, int64_t rows,
                       int64_t cols, uint32_t* bits, double* pos_sum,
                       double* neg_sum, int32_t* pos_count, int32_t* neg_count) {
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t base = r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      const int64_t flat = base + c;
      const float q = grad[flat] + residual[flat];
      const bool positive = q >= 0.0f;
      if (positive) {
        bits[flat >> 5] |= 1u << (flat & 31);
      }
      // Blended accumulation: adding +0.0 to these sums is bit-exact (they
      // can never be -0.0), so this matches the branchy loop.
      pos_sum[c] += positive ? static_cast<double>(q) : 0.0;
      neg_sum[c] += positive ? 0.0 : static_cast<double>(q);
      pos_count[c] += positive ? 1 : 0;
      neg_count[c] += positive ? 0 : 1;
    }
  }
}

// Pass 2, in place on `residual`: residual = (grad + residual) - level, where
// level is pos_level[c] or neg_level[c] by the element's sign bit.
void OneBitResidualUpdate(const float* grad, int64_t rows, int64_t cols,
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

}  // namespace

void OneBitDecode(const uint32_t* bits, const float* pos_level, const float* neg_level,
                  int64_t rows, int64_t cols, float* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t base = r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      const int64_t flat = base + c;
      const bool positive = (bits[flat >> 5] >> (flat & 31)) & 1u;
      out[flat] = positive ? pos_level[c] : neg_level[c];
    }
  }
}

int64_t OneBitEncoded::WireBytes() const {
  return static_cast<int64_t>(bits.size()) * 4 +
         static_cast<int64_t>(positive_level.size() + negative_level.size()) * 4 +
         2 * 8;  // dimensions
}

OneBitEncoded OneBitQuantizer::Encode(const Tensor& gradient) {
  CHECK_EQ(gradient.ndim(), 2);
  if (residual_.empty()) {
    residual_ = Tensor::Zeros(gradient.shape());
  }
  CHECK(residual_.SameShape(gradient));

  const int64_t rows = gradient.dim(0);
  const int64_t cols = gradient.dim(1);
  OneBitEncoded encoded;
  encoded.rows = rows;
  encoded.cols = cols;
  encoded.bits.assign(static_cast<size_t>((rows * cols + 31) / 32), 0u);
  encoded.positive_level.assign(static_cast<size_t>(cols), 0.0f);
  encoded.negative_level.assign(static_cast<size_t>(cols), 0.0f);

  // Pass 1: sign extraction plus per-column sums and counts of each sign
  // class for the effective values q = gradient + residual.
  std::vector<double> pos_sum(static_cast<size_t>(cols), 0.0);
  std::vector<double> neg_sum(static_cast<size_t>(cols), 0.0);
  std::vector<int32_t> pos_count(static_cast<size_t>(cols), 0);
  std::vector<int32_t> neg_count(static_cast<size_t>(cols), 0);
  OneBitEncodeStats(gradient.data(), residual_.data(), rows, cols, encoded.bits.data(),
                    pos_sum.data(), neg_sum.data(), pos_count.data(), neg_count.data());
  for (int64_t c = 0; c < cols; ++c) {
    const size_t ci = static_cast<size_t>(c);
    encoded.positive_level[ci] =
        pos_count[ci] > 0 ? static_cast<float>(pos_sum[ci] / pos_count[ci]) : 0.0f;
    encoded.negative_level[ci] =
        neg_count[ci] > 0 ? static_cast<float>(neg_sum[ci] / neg_count[ci]) : 0.0f;
  }

  // Pass 2: new residual = effective value - reconstruction.
  OneBitResidualUpdate(gradient.data(), rows, cols, encoded.bits.data(),
                       encoded.positive_level.data(), encoded.negative_level.data(),
                       residual_.data());
  return encoded;
}

Tensor OneBitQuantizer::Decode(const OneBitEncoded& encoded) {
  Tensor out({encoded.rows, encoded.cols});
  OneBitDecode(encoded.bits.data(), encoded.positive_level.data(),
               encoded.negative_level.data(), encoded.rows, encoded.cols, out.data());
  return out;
}

}  // namespace poseidon

#include "src/tensor/sufficient_factor.h"

#include "src/simd/vec.h"
#include "src/tensor/ops.h"

namespace poseidon {

int64_t SufficientFactors::WireBytes() const {
  return (u.size() + v.size()) * 4 + 3 * 8;  // factors + dimensions
}

SufficientFactors MakeSufficientFactors(const Tensor& errors_km, const Tensor& inputs_kn) {
  CHECK_EQ(errors_km.ndim(), 2);
  CHECK_EQ(inputs_kn.ndim(), 2);
  const int64_t k = errors_km.dim(0);
  CHECK_EQ(inputs_kn.dim(0), k);
  const int64_t m = errors_km.dim(1);
  const int64_t n = inputs_kn.dim(1);

  SufficientFactors factors;
  factors.u = Tensor({m, k});
  factors.v = Tensor({n, k});
  // Transpose [K,M] -> [M,K] and [K,N] -> [N,K].
  for (int64_t s = 0; s < k; ++s) {
    for (int64_t i = 0; i < m; ++i) {
      factors.u.At(i, s) = errors_km.At(s, i);
    }
    for (int64_t j = 0; j < n; ++j) {
      factors.v.At(j, s) = inputs_kn.At(s, j);
    }
  }
  return factors;
}

void ReconstructGradient(const SufficientFactors& factors, Tensor* out) {
  CHECK_EQ(out->dim(0), factors.rows());
  CHECK_EQ(out->dim(1), factors.cols());
  // U [M,K] * V^T [K,N].
  GemmTransB(factors.u, factors.v, out);
}

void AccumulateGradient(const SufficientFactors& factors, Tensor* out) {
  CHECK_EQ(out->dim(0), factors.rows());
  CHECK_EQ(out->dim(1), factors.cols());
  simd::GemmTransB(factors.u.data(), factors.v.data(), factors.rows(), factors.cols(),
                   factors.rank(), /*accumulate=*/true, out->data());
}

}  // namespace poseidon

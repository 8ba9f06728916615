// Sufficient factors (SFs) for fully-connected layers (paper §2.1).
//
// For an FC layer computing y = W x (W is MxN, x the N-vector input, with
// back-propagated error e the M-vector), the per-sample gradient is the
// rank-1 outer product dW = e x^T. A batch of K samples therefore yields a
// rank-K gradient fully described by the factor pair (U, V), U = [e_1..e_K]
// (MxK) and V = [x_1..x_K] (NxK). SFB transmits (U, V) — 2K(M+N) floats —
// instead of the MN-float dense matrix, and every receiver reconstructs
// dW = U V^T locally. The reconstruction is *exact*: unlike 1-bit
// quantization, SFB never changes the update the algorithm applies.
#ifndef POSEIDON_SRC_TENSOR_SUFFICIENT_FACTOR_H_
#define POSEIDON_SRC_TENSOR_SUFFICIENT_FACTOR_H_

#include <cstdint>

#include "src/tensor/tensor.h"

namespace poseidon {

struct SufficientFactors {
  Tensor u;  // [M, K]
  Tensor v;  // [N, K]

  int64_t rows() const { return u.dim(0); }
  int64_t cols() const { return v.dim(0); }
  int64_t rank() const { return u.dim(1); }

  // Bytes on the wire: 2K(M+N) floats plus the three dimensions.
  int64_t WireBytes() const;

  // Dense wire size of the matrix this pair factorizes, for comparison.
  int64_t DenseWireBytes() const { return rows() * cols() * 4; }
};

// Builds the factor pair from per-sample errors (KxM) and inputs (KxN), the
// layout the FC backward pass produces naturally.
SufficientFactors MakeSufficientFactors(const Tensor& errors_km, const Tensor& inputs_kn);

// Reconstructs the dense gradient U V^T into `out` ([M, N], overwritten).
void ReconstructGradient(const SufficientFactors& factors, Tensor* out);

// Accumulates U V^T into `out` without zeroing, for aggregating factors
// received from multiple peers: each element's dot product is summed in full
// and then added (out = out + dot), the same bits as ReconstructGradient
// followed by Axpy(1.0f, ...).
void AccumulateGradient(const SufficientFactors& factors, Tensor* out);

}  // namespace poseidon

#endif  // POSEIDON_SRC_TENSOR_SUFFICIENT_FACTOR_H_

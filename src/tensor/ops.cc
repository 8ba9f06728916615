#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "src/simd/vec.h"

namespace poseidon {
namespace {

// Cache-blocked inner kernel: C[m,n] += A[m,k] * B[k,n], raw pointers,
// row-major. The i-k-j loop order streams B rows into C rows through the
// bitwise-pinned simd::Axpy, skipping zero A terms: backward operands come
// out of ReLU and max-pool, so most of them are zero.
void GemmAccumulate(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n) {
  constexpr int64_t kBlock = 64;
  for (int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const int64_t i1 = std::min(i0 + kBlock, m);
    for (int64_t p0 = 0; p0 < k; p0 += kBlock) {
      const int64_t p1 = std::min(p0 + kBlock, k);
      for (int64_t i = i0; i < i1; ++i) {
        float* c_row = c + i * n;
        for (int64_t p = p0; p < p1; ++p) {
          const float a_ip = a[i * k + p];
          if (a_ip == 0.0f) {
            continue;
          }
          simd::Axpy(c_row, a_ip, b + p * n, n);
        }
      }
    }
  }
}

}  // namespace

void Gemm(const Tensor& a, const Tensor& b, Tensor* out) {
  CHECK_EQ(a.ndim(), 2);
  CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  CHECK_EQ(b.dim(0), k);
  const int64_t n = b.dim(1);
  CHECK_EQ(out->dim(0), m);
  CHECK_EQ(out->dim(1), n);
  out->SetZero();
  GemmAccumulate(a.data(), b.data(), out->data(), m, k, n);
}

void GemmTransA(const Tensor& a, const Tensor& b, Tensor* out) {
  CHECK_EQ(a.ndim(), 2);
  CHECK_EQ(b.ndim(), 2);
  const int64_t k = a.dim(0);
  const int64_t m = a.dim(1);
  CHECK_EQ(b.dim(0), k);
  const int64_t n = b.dim(1);
  CHECK_EQ(out->dim(0), m);
  CHECK_EQ(out->dim(1), n);
  out->SetZero();
  // out[i,j] = sum_p a[p,i] * b[p,j]: rank-1 accumulation per p keeps the
  // inner loop contiguous on both operands.
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data();
  for (int64_t p = 0; p < k; ++p) {
    const float* a_row = ad + p * m;
    const float* b_row = bd + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float a_pi = a_row[i];
      if (a_pi == 0.0f) {
        continue;
      }
      simd::Axpy(od + i * n, a_pi, b_row, n);
    }
  }
}

void GemmTransB(const Tensor& a, const Tensor& b, Tensor* out) {
  CHECK_EQ(a.ndim(), 2);
  CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  CHECK_EQ(b.dim(1), k);
  const int64_t n = b.dim(0);
  CHECK_EQ(out->dim(0), m);
  CHECK_EQ(out->dim(1), n);
  simd::GemmTransB(a.data(), b.data(), m, n, k, /*accumulate=*/false, out->data());
}

void Axpy(float alpha, const Tensor& x, Tensor* y) {
  CHECK(x.SameShape(*y));
  simd::Axpy(y->data(), alpha, x.data(), x.size());
}

void Scale(float alpha, Tensor* y) { simd::Scale(y->data(), alpha, y->size()); }

double SumSquares(const Tensor& x) {
  double acc = 0.0;
  const float* xd = x.data();
  for (int64_t i = 0; i < x.size(); ++i) {
    acc += static_cast<double>(xd[i]) * xd[i];
  }
  return acc;
}

double Norm(const Tensor& x) { return std::sqrt(SumSquares(x)); }

double MaxAbsDiff(const Tensor& x, const Tensor& y) {
  CHECK(x.SameShape(y));
  double worst = 0.0;
  for (int64_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, static_cast<double>(std::fabs(x[i] - y[i])));
  }
  return worst;
}

void AddRowVector(const Tensor& v, Tensor* m) {
  CHECK_EQ(v.ndim(), 1);
  CHECK_EQ(m->ndim(), 2);
  CHECK_EQ(v.dim(0), m->dim(1));
  const int64_t rows = m->dim(0);
  const int64_t cols = m->dim(1);
  // Per-row simd::ReduceAdd keeps the per-element association identical to
  // the historical scalar loop (row[c] += v[c], elementwise).
  for (int64_t r = 0; r < rows; ++r) {
    simd::ReduceAdd(m->data() + r * cols, v.data(), cols);
  }
}

void SumRows(const Tensor& m, Tensor* v) {
  CHECK_EQ(m.ndim(), 2);
  CHECK_EQ(v->ndim(), 1);
  CHECK_EQ(v->dim(0), m.dim(1));
  v->SetZero();
  const int64_t rows = m.dim(0);
  const int64_t cols = m.dim(1);
  // Row-major accumulation in row order: each v[c] sees rows in the same
  // sequence as the historical loop, so the sums are bitwise unchanged.
  for (int64_t r = 0; r < rows; ++r) {
    simd::ReduceAdd(v->data(), m.data() + r * cols, cols);
  }
}

}  // namespace poseidon

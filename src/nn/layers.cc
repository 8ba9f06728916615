#include "src/nn/layers.h"

#include <algorithm>

#include "src/tensor/ops.h"

namespace poseidon {
namespace {

// Flattens [K,C,H,W] (or passes through [K,N]) into a [K, features] view.
Tensor FlattenBatch(const Tensor& in) {
  if (in.ndim() == 2) {
    return in;
  }
  CHECK_EQ(in.ndim(), 4);
  const int64_t k = in.dim(0);
  const int64_t features = in.size() / k;
  return in.Reshaped({k, features});
}

// Reallocates `t` only when its shape changes. Callers overwrite every
// element, so contents left from an earlier call never leak into a result.
void EnsureShape(Tensor* t, const std::vector<int64_t>& shape) {
  if (t->shape() != shape) {
    *t = Tensor(shape);
  }
}

// The kernel taps [lo, hi) of a window starting at `origin` (which may be
// negative, in the padding) that land inside [0, extent).
struct TapRange {
  int64_t lo;
  int64_t hi;
};

TapRange InsideTaps(int64_t origin, int64_t kernel, int64_t extent) {
  const int64_t lo = std::clamp<int64_t>(-origin, 0, kernel);
  return {lo, std::clamp<int64_t>(extent - origin, lo, kernel)};
}

}  // namespace

// ------------------------------------------------------------------- FC ----

FullyConnectedLayer::FullyConnectedLayer(std::string name, int64_t m, int64_t n, Rng& rng)
    : Layer(std::move(name)),
      m_(m),
      n_(n),
      weight_(Tensor::RandomHe({m, n}, n, rng)),
      bias_(Tensor::Zeros({m})),
      weight_grad_(Tensor::Zeros({m, n})),
      bias_grad_(Tensor::Zeros({m})) {}

void FullyConnectedLayer::Forward(const Tensor& in, Tensor* out) {
  last_in_shape_ = in.shape();
  last_input_ = FlattenBatch(in);
  CHECK_EQ(last_input_.dim(1), n_) << name() << ": input width mismatch";
  const int64_t k = last_input_.dim(0);
  *out = Tensor({k, m_});
  // out[K,M] = x[K,N] * W^T[N,M]
  GemmTransB(last_input_, weight_, out);
  AddRowVector(bias_, out);
}

void FullyConnectedLayer::Backward(const Tensor& grad_out, Tensor* grad_in) {
  BackwardImpl(grad_out, grad_in, /*weight_grad=*/true);
}

void FullyConnectedLayer::BackwardSkippingWeightGrad(const Tensor& grad_out, Tensor* grad_in) {
  BackwardImpl(grad_out, grad_in, /*weight_grad=*/false);
}

void FullyConnectedLayer::BackwardImpl(const Tensor& grad_out, Tensor* grad_in,
                                       bool weight_grad) {
  CHECK_EQ(grad_out.ndim(), 2);
  CHECK_EQ(grad_out.dim(1), m_);
  last_errors_ = grad_out;
  if (weight_grad) {
    // dW[M,N] = dY^T[M,K] * X[K,N]
    GemmTransA(grad_out, last_input_, &weight_grad_);
  }
  SumRows(grad_out, &bias_grad_);
  if (grad_in == nullptr) {
    return;
  }
  // dX[K,N] = dY[K,M] * W[M,N], delivered in the caller's original shape so
  // conv/pool layers below see their 4-D layout.
  Tensor grad_flat({grad_out.dim(0), n_});
  Gemm(grad_out, weight_, &grad_flat);
  *grad_in = grad_flat.Reshaped(last_in_shape_);
}

std::vector<ParamBlock> FullyConnectedLayer::Params() {
  return {{name() + ".weight", &weight_, &weight_grad_},
          {name() + ".bias", &bias_, &bias_grad_}};
}

SufficientFactors FullyConnectedLayer::LastSufficientFactors() const {
  CHECK_GT(last_errors_.size(), 0) << "Backward must run before SF extraction";
  return MakeSufficientFactors(last_errors_, last_input_);
}

// ----------------------------------------------------------------- Conv ----

Conv2dLayer::Conv2dLayer(std::string name, int64_t in_c, int64_t out_c, int64_t kernel,
                         int64_t stride, int64_t pad, Rng& rng)
    : Layer(std::move(name)),
      in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Tensor::RandomHe({out_c, in_c * kernel * kernel}, in_c * kernel * kernel, rng)),
      bias_(Tensor::Zeros({out_c})),
      weight_grad_(Tensor::Zeros({out_c, in_c * kernel * kernel})),
      bias_grad_(Tensor::Zeros({out_c})) {
  CHECK_GT(stride_, 0);
  CHECK_GE(pad_, 0);
}

// Row (img, y, x) of `cols` holds the patch under output pixel (y, x), laid
// out (c, ky, kx) with zeros for taps in the padding. Each kernel row is one
// contiguous run of the input row.
void Conv2dLayer::Im2Col(const Tensor& in, Tensor* cols) const {
  const int64_t k = in.dim(0);
  const int64_t h = in.dim(2);
  const int64_t w = in.dim(3);
  const int64_t oh = OutDim(h);
  const int64_t ow = OutDim(w);
  EnsureShape(cols, {k * oh * ow, in_c_ * kernel_ * kernel_});
  const float* image = in.data();
  float* dst = cols->data();
  for (int64_t img = 0; img < k; ++img, image += in_c_ * h * w) {
    for (int64_t y = 0; y < oh; ++y) {
      const int64_t y0 = y * stride_ - pad_;
      const TapRange rows = InsideTaps(y0, kernel_, h);
      for (int64_t x = 0; x < ow; ++x) {
        const int64_t x0 = x * stride_ - pad_;
        const TapRange taps = InsideTaps(x0, kernel_, w);
        for (int64_t c = 0; c < in_c_; ++c) {
          const float* plane = image + c * h * w;
          for (int64_t ky = 0; ky < kernel_; ++ky, dst += kernel_) {
            if (ky < rows.lo || ky >= rows.hi) {
              std::fill(dst, dst + kernel_, 0.0f);
              continue;
            }
            const int64_t offset = (y0 + ky) * w + x0;
            std::fill(dst, dst + taps.lo, 0.0f);
            for (int64_t kx = taps.lo; kx < taps.hi; ++kx) {
              dst[kx] = plane[offset + kx];
            }
            std::fill(dst + taps.hi, dst + kernel_, 0.0f);
          }
        }
      }
    }
  }
}

// The adjoint of Im2Col. Every input pixel sums its contributions in
// (img, y, x, c, ky, kx) order, the order the float sums are pinned to.
void Conv2dLayer::Col2Im(const Tensor& cols, Tensor* grad_in) const {
  const int64_t k = last_in_shape_[0];
  const int64_t h = last_in_shape_[2];
  const int64_t w = last_in_shape_[3];
  const int64_t oh = OutDim(h);
  const int64_t ow = OutDim(w);
  *grad_in = Tensor(last_in_shape_);
  const float* src = cols.data();
  float* image = grad_in->data();
  for (int64_t img = 0; img < k; ++img, image += in_c_ * h * w) {
    for (int64_t y = 0; y < oh; ++y) {
      const int64_t y0 = y * stride_ - pad_;
      const TapRange rows = InsideTaps(y0, kernel_, h);
      for (int64_t x = 0; x < ow; ++x) {
        const int64_t x0 = x * stride_ - pad_;
        const TapRange taps = InsideTaps(x0, kernel_, w);
        for (int64_t c = 0; c < in_c_; ++c, src += kernel_ * kernel_) {
          float* plane = image + c * h * w;
          for (int64_t ky = rows.lo; ky < rows.hi; ++ky) {
            const int64_t offset = (y0 + ky) * w + x0;
            const float* row = src + ky * kernel_;
            for (int64_t kx = taps.lo; kx < taps.hi; ++kx) {
              plane[offset + kx] += row[kx];
            }
          }
        }
      }
    }
  }
}

void Conv2dLayer::Forward(const Tensor& in, Tensor* out) {
  CHECK_EQ(in.ndim(), 4);
  CHECK_EQ(in.dim(1), in_c_) << name() << ": channel mismatch";
  last_in_shape_ = in.shape();
  const int64_t k = in.dim(0);
  const int64_t oh = OutDim(in.dim(2));
  const int64_t ow = OutDim(in.dim(3));
  CHECK_GT(oh, 0);
  CHECK_GT(ow, 0);
  const int64_t pixels = oh * ow;

  Im2Col(in, &last_cols_);
  // [K*OH*OW, patch] x [patch, out_c] -> [K*OH*OW, out_c]
  EnsureShape(&result_, {k * pixels, out_c_});
  GemmTransB(last_cols_, weight_, &result_);

  // Transpose each image's [pixel, out_c] block to NCHW and add the bias.
  *out = Tensor({k, out_c_, oh, ow});
  const float* bias = bias_.data();
  float* dst = out->data();
  for (int64_t img = 0; img < k; ++img) {
    const float* block = result_.data() + img * pixels * out_c_;
    for (int64_t c = 0; c < out_c_; ++c, dst += pixels) {
      for (int64_t pix = 0; pix < pixels; ++pix) {
        dst[pix] = block[pix * out_c_ + c] + bias[c];
      }
    }
  }
}

void Conv2dLayer::Backward(const Tensor& grad_out, Tensor* grad_in) {
  CHECK_EQ(grad_out.ndim(), 4);
  CHECK_EQ(grad_out.dim(1), out_c_);
  const int64_t k = grad_out.dim(0);
  const int64_t pixels = grad_out.dim(2) * grad_out.dim(3);

  // Rearrange dY to [K*OH*OW, out_c] to match the im2col layout. Each bias
  // gradient sums image-major, then pixel-major.
  EnsureShape(&dy_, {k * pixels, out_c_});
  bias_grad_.SetZero();
  float* bias_grad = bias_grad_.data();
  const float* src = grad_out.data();
  for (int64_t img = 0; img < k; ++img) {
    float* block = dy_.data() + img * pixels * out_c_;
    for (int64_t c = 0; c < out_c_; ++c, src += pixels) {
      float sum = bias_grad[c];
      for (int64_t pix = 0; pix < pixels; ++pix) {
        block[pix * out_c_ + c] = src[pix];
        sum += src[pix];
      }
      bias_grad[c] = sum;
    }
  }
  // dW[out_c, patch] = dY^T x cols
  GemmTransA(dy_, last_cols_, &weight_grad_);
  if (grad_in == nullptr) {
    return;
  }
  // dCols = dY x W
  EnsureShape(&dcols_, {k * pixels, in_c_ * kernel_ * kernel_});
  Gemm(dy_, weight_, &dcols_);
  Col2Im(dcols_, grad_in);
}

std::vector<ParamBlock> Conv2dLayer::Params() {
  return {{name() + ".weight", &weight_, &weight_grad_},
          {name() + ".bias", &bias_, &bias_grad_}};
}

// ----------------------------------------------------------------- ReLU ----

void ReluLayer::Forward(const Tensor& in, Tensor* out) {
  *out = in;
  mask_ = Tensor(in.shape());
  float* od = out->data();
  float* md = mask_.data();
  for (int64_t i = 0; i < in.size(); ++i) {
    if (od[i] > 0.0f) {
      md[i] = 1.0f;
    } else {
      od[i] = 0.0f;
      md[i] = 0.0f;
    }
  }
}

void ReluLayer::Backward(const Tensor& grad_out, Tensor* grad_in) {
  CHECK(grad_out.SameShape(mask_));
  if (grad_in == nullptr) {
    return;
  }
  *grad_in = grad_out;
  float* gd = grad_in->data();
  const float* md = mask_.data();
  for (int64_t i = 0; i < grad_in->size(); ++i) {
    gd[i] *= md[i];
  }
}

// ------------------------------------------------------------- MaxPool -----

void MaxPool2Layer::Forward(const Tensor& in, Tensor* out) {
  CHECK_EQ(in.ndim(), 4);
  CHECK_EQ(in.dim(2) % 2, 0) << name() << ": spatial dims must be even";
  CHECK_EQ(in.dim(3) % 2, 0);
  last_in_shape_ = in.shape();
  const int64_t planes = in.dim(0) * in.dim(1);
  const int64_t h = in.dim(2);
  const int64_t w = in.dim(3);
  *out = Tensor({in.dim(0), in.dim(1), h / 2, w / 2});
  argmax_.resize(static_cast<size_t>(out->size()));
  const float* src = in.data();
  float* dst = out->data();
  int64_t* arg = argmax_.data();
  // `top` walks the windows' top rows across all planes at once: h is even,
  // so no window straddles two planes.
  for (int64_t top = 0; top < planes * h; top += 2) {
    // Window taps in (dy, dx) order; the first strict maximum wins. A window
    // with nothing above -3.4e38 (all -inf or NaN) pools to -3.4e38 and
    // routes its gradient to flat index 0.
    for (int64_t left = top * w; left < (top + 1) * w; left += 2) {
      float best = -3.4e38f;
      int64_t best_idx = 0;
      for (const int64_t idx : {left, left + 1, left + w, left + w + 1}) {
        if (src[idx] > best) {
          best = src[idx];
          best_idx = idx;
        }
      }
      *dst++ = best;
      *arg++ = best_idx;
    }
  }
}

void MaxPool2Layer::Backward(const Tensor& grad_out, Tensor* grad_in) {
  CHECK_EQ(grad_out.ndim(), 4);
  CHECK_EQ(grad_out.size(), static_cast<int64_t>(argmax_.size()));
  if (grad_in == nullptr) {
    return;
  }
  *grad_in = Tensor(last_in_shape_);
  float* gi = grad_in->data();
  const float* gd = grad_out.data();
  for (size_t i = 0; i < argmax_.size(); ++i) {
    gi[argmax_[i]] += gd[i];
  }
}

// ------------------------------------------------------------ Residual -----

ResidualBlock::ResidualBlock(std::string name, std::vector<std::unique_ptr<Layer>> inner)
    : Layer(std::move(name)), inner_(std::move(inner)) {
  CHECK(!inner_.empty());
}

void ResidualBlock::Forward(const Tensor& in, Tensor* out) {
  activations_.clear();
  activations_.push_back(in);
  Tensor current = in;
  for (auto& layer : inner_) {
    Tensor next;
    layer->Forward(current, &next);
    current = std::move(next);
    activations_.push_back(current);
  }
  CHECK(current.SameShape(in)) << name() << ": residual branch must preserve shape";
  *out = std::move(current);
  Axpy(1.0f, in, out);  // skip connection
}

void ResidualBlock::Backward(const Tensor& grad_out, Tensor* grad_in) {
  Tensor current = grad_out;
  for (size_t i = inner_.size(); i-- > 0;) {
    Tensor next;
    // Only the first inner layer's input gradient is the block's own.
    inner_[i]->Backward(current, i == 0 && grad_in == nullptr ? nullptr : &next);
    current = std::move(next);
  }
  if (grad_in == nullptr) {
    return;
  }
  *grad_in = std::move(current);
  Axpy(1.0f, grad_out, grad_in);  // gradient through the skip connection
}

std::vector<ParamBlock> ResidualBlock::Params() {
  std::vector<ParamBlock> params;
  for (auto& layer : inner_) {
    for (ParamBlock& p : layer->Params()) {
      params.push_back(p);
    }
  }
  return params;
}

}  // namespace poseidon

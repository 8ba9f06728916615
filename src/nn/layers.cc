#include "src/nn/layers.h"

#include <algorithm>
#include <cstring>

#include "src/simd/vec.h"
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

// Copies the in_c x kernel x kernel patch whose top-left tap is `tap` in a
// padded [in_c, hp, wp] image into `dst`, laid out (c, ky, kx). A constant
// kKernel makes each kernel row's memcpy a fixed size, which the compiler
// inlines instead of calling memcpy for a handful of floats; kKernel = 0
// takes the kernel at run time.
template <int64_t kKernel>
void CopyPatch(const float* tap, int64_t in_c, int64_t kernel, int64_t hp, int64_t wp,
               float* dst) {
  if (kKernel != 0) {
    kernel = kKernel;
  }
  for (int64_t c = 0; c < in_c; ++c, tap += hp * wp) {
    for (int64_t ky = 0; ky < kernel; ++ky, dst += kernel) {
      std::memcpy(dst, tap + ky * wp, sizeof(float) * static_cast<size_t>(kernel));
    }
  }
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

// Pads every image of `in` into padded_ [K, C, H + 2 pad, W + 2 pad]. The
// buffer is zeroed only when its shape changes and only its interior is
// written here, so the border stays +0.0: padding taps then multiply +0.0,
// exactly as im2col's zeros did, and inf/NaN weights meet them the same way.
void Conv2dLayer::PadInput(const Tensor& in) {
  const int64_t k = in.dim(0);
  const int64_t h = in.dim(2);
  const int64_t w = in.dim(3);
  const int64_t hp = h + 2 * pad_;
  const int64_t wp = w + 2 * pad_;
  const std::vector<int64_t> shape = {k, in_c_, hp, wp};
  if (padded_.shape() != shape) {
    padded_ = Tensor(shape);
  }
  const float* src = in.data();
  float* plane = padded_.data();
  for (int64_t p = 0; p < k * in_c_; ++p, plane += hp * wp) {
    for (int64_t y = 0; y < h; ++y, src += w) {
      std::copy(src, src + w, plane + (y + pad_) * wp + pad_);
    }
  }
}

// Packs pixels [pix0, pix0 + width) of one padded image as a [patch, width]
// panel: row (c, ky, kx) holds that tap of each pixel, read at the pixel's
// origin y*stride*wp + x*stride plus the tap's offset. A full panel whose
// origins are consecutive (one output row at stride 1) copies each tap as
// one constant-size 16-float run, which the compiler inlines; any other
// panel is gathered.
void Conv2dLayer::PackPanel(const float* image, int64_t ow, int64_t pix0, int64_t width,
                            float* panel) const {
  const int64_t hp = padded_.dim(2);
  const int64_t wp = padded_.dim(3);
  int64_t origin[kPanelWidth];
  for (int64_t j = 0; j < width; ++j) {
    const int64_t y = (pix0 + j) / ow;
    const int64_t x = (pix0 + j) % ow;
    origin[j] = y * stride_ * wp + x * stride_;
  }
  // Origins strictly increase, so a span of width - 1 means every step is 1.
  const bool contiguous =
      width == kPanelWidth && origin[width - 1] - origin[0] == width - 1;
  for (int64_t c = 0; c < in_c_; ++c) {
    for (int64_t ky = 0; ky < kernel_; ++ky) {
      for (int64_t kx = 0; kx < kernel_; ++kx, panel += width) {
        const float* tap = image + (c * hp + ky) * wp + kx;
        if (contiguous) {
          std::copy(tap + origin[0], tap + origin[0] + kPanelWidth, panel);
        } else {
          for (int64_t j = 0; j < width; ++j) {
            panel[j] = tap[origin[j]];
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
  const int64_t patch = in_c_ * kernel_ * kernel_;

  PadInput(in);
  // out[img][o][pix0 + j] = (W x panel)[o, j] + bias[o], straight into NCHW,
  // each dot summed in the (c, ky, kx) order im2col + GemmTransB used.
  *out = Tensor({k, out_c_, oh, ow});
  std::vector<float> panel(static_cast<size_t>(patch * kPanelWidth));
  const int64_t image_floats = padded_.size() / k;
  for (int64_t img = 0; img < k; ++img) {
    const float* image = padded_.data() + img * image_floats;
    float* dst = out->data() + img * out_c_ * pixels;
    for (int64_t pix0 = 0; pix0 < pixels; pix0 += kPanelWidth) {
      const int64_t width = std::min(kPanelWidth, pixels - pix0);
      PackPanel(image, ow, pix0, width, panel.data());
      simd::GemmPackedPanel(weight_.data(), panel.data(), out_c_, width, patch, bias_.data(),
                            dst + pix0, pixels);
    }
  }
}

// Fused per output pixel in (img, y, x) order, which keeps each sum in the
// order of the batch-wide GEMMs it replaces: dW += dY[pix, o] * patch row
// per nonzero dY, as GemmTransA(dY, cols) did; the dCols row is the sum of
// nonzero dY[pix, o] * W row o in ascending o, as Gemm(dY, W) did; and its
// scatter into grad_in is Col2Im's (c, ky, kx) order. A pixel whose dY row
// is all zero adds nothing: its dCols row would be all +0.0, and no partial
// sum here can be -0.0 (each starts at +0.0), so adding it changes no bit.
void Conv2dLayer::Backward(const Tensor& grad_out, Tensor* grad_in) {
  CHECK_EQ(grad_out.ndim(), 4);
  CHECK_EQ(grad_out.dim(1), out_c_);
  const int64_t k = grad_out.dim(0);
  const int64_t oh = grad_out.dim(2);
  const int64_t ow = grad_out.dim(3);
  const int64_t pixels = oh * ow;

  // Rearrange dY to [K*OH*OW, out_c], one contiguous row per pixel. Each
  // bias gradient sums image-major, then pixel-major.
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

  const int64_t h = last_in_shape_[2];
  const int64_t w = last_in_shape_[3];
  const int64_t hp = padded_.dim(2);
  const int64_t wp = padded_.dim(3);
  const int64_t patch = in_c_ * kernel_ * kernel_;
  weight_grad_.SetZero();
  if (grad_in != nullptr) {
    *grad_in = Tensor(last_in_shape_);
  }
  std::vector<float> patch_row(static_cast<size_t>(patch));
  std::vector<float> dcols_row(static_cast<size_t>(patch));
  const float* dy = dy_.data();
  for (int64_t img = 0; img < k; ++img) {
    const float* image = padded_.data() + img * in_c_ * hp * wp;
    for (int64_t y = 0; y < oh; ++y) {
      const int64_t y0 = y * stride_ - pad_;
      const TapRange rows = InsideTaps(y0, kernel_, h);
      for (int64_t x = 0; x < ow; ++x, dy += out_c_) {
        if (std::all_of(dy, dy + out_c_, [](float v) { return v == 0.0f; })) {
          continue;
        }
        const float* tap = image + y * stride_ * wp + x * stride_;
        if (kernel_ == 3) {
          CopyPatch<3>(tap, in_c_, kernel_, hp, wp, patch_row.data());
        } else if (kernel_ == 5) {
          CopyPatch<5>(tap, in_c_, kernel_, hp, wp, patch_row.data());
        } else {
          CopyPatch<0>(tap, in_c_, kernel_, hp, wp, patch_row.data());
        }
        for (int64_t o = 0; o < out_c_; ++o) {
          if (dy[o] != 0.0f) {
            simd::Axpy(weight_grad_.data() + o * patch, dy[o], patch_row.data(), patch);
          }
        }
        if (grad_in == nullptr) {
          continue;
        }
        std::fill(dcols_row.begin(), dcols_row.end(), 0.0f);
        for (int64_t o = 0; o < out_c_; ++o) {
          if (dy[o] != 0.0f) {
            simd::Axpy(dcols_row.data(), dy[o], weight_.data() + o * patch, patch);
          }
        }
        const int64_t x0 = x * stride_ - pad_;
        const TapRange taps = InsideTaps(x0, kernel_, w);
        const float* row = dcols_row.data();
        float* plane = grad_in->data() + img * in_c_ * h * w;
        for (int64_t c = 0; c < in_c_; ++c, row += kernel_ * kernel_, plane += h * w) {
          for (int64_t ky = rows.lo; ky < rows.hi; ++ky) {
            const int64_t offset = (y0 + ky) * w + x0;
            for (int64_t kx = taps.lo; kx < taps.hi; ++kx) {
              plane[offset + kx] += row[ky * kernel_ + kx];
            }
          }
        }
      }
    }
  }
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

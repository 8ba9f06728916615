// Concrete layers: fully connected, 2-D convolution (packed-panel forward,
// backward fused per output pixel), ReLU, 2x2 max pooling, and a residual
// block composite for small ResNets.
#ifndef POSEIDON_SRC_NN_LAYERS_H_
#define POSEIDON_SRC_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/layer.h"
#include "src/tensor/sufficient_factor.h"
#include "src/tensor/tensor.h"

namespace poseidon {

// y = x W^T + b with W in [M, N] (paper orientation: M outputs, N inputs).
// Accepts 2-D [K, N] input or 4-D input flattened to [K, C*H*W].
class FullyConnectedLayer : public Layer {
 public:
  FullyConnectedLayer(std::string name, int64_t m, int64_t n, Rng& rng);

  LayerType type() const override { return LayerType::kFC; }
  int64_t fc_m() const override { return m_; }
  int64_t fc_n() const override { return n_; }

  void Forward(const Tensor& in, Tensor* out) override;
  void Backward(const Tensor& grad_out, Tensor* grad_in) override;
  // Stores dY and computes the bias gradient and dX; skips only the
  // dW = dY^T X GEMM.
  void BackwardSkippingWeightGrad(const Tensor& grad_out, Tensor* grad_in) override;
  std::vector<ParamBlock> Params() override;

  // Sufficient factors of the last backward pass: the per-sample error and
  // input matrices whose outer product is the weight gradient (§2.1). Valid
  // until the next Forward.
  SufficientFactors LastSufficientFactors() const;

  Tensor& weight() { return weight_; }
  Tensor& weight_grad() { return weight_grad_; }

 private:
  void BackwardImpl(const Tensor& grad_out, Tensor* grad_in, bool weight_grad);

  int64_t m_;
  int64_t n_;
  Tensor weight_;       // [M, N]
  Tensor bias_;         // [M]
  Tensor weight_grad_;  // [M, N]
  Tensor bias_grad_;    // [M]
  Tensor last_input_;   // [K, N]
  Tensor last_errors_;  // [K, M], set by Backward
  std::vector<int64_t> last_in_shape_;  // original (possibly 4-D) input shape
};

// Direct 2-D convolution in NCHW. Square kernels, square stride, symmetric
// zero padding. The forward pads each image once and runs, per block of 16
// output pixels, the packed-panel tile (simd::GemmPackedPanel) over every
// output channel, writing NCHW directly; the backward is fused per output
// pixel. No im2col matrix is built. The padded input is kept for the
// backward and, with the dY scratch, reallocated only when the batch shape
// changes.
class Conv2dLayer : public Layer {
 public:
  Conv2dLayer(std::string name, int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride,
              int64_t pad, Rng& rng);

  void Forward(const Tensor& in, Tensor* out) override;
  void Backward(const Tensor& grad_out, Tensor* grad_in) override;
  std::vector<ParamBlock> Params() override;

 private:
  static constexpr int64_t kPanelWidth = 16;  // output pixels per forward panel

  int64_t OutDim(int64_t in_hw) const { return (in_hw + 2 * pad_ - kernel_) / stride_ + 1; }
  void PadInput(const Tensor& in);
  void PackPanel(const float* image, int64_t ow, int64_t pix0, int64_t width,
                 float* panel) const;

  int64_t in_c_;
  int64_t out_c_;
  int64_t kernel_;
  int64_t stride_;
  int64_t pad_;
  Tensor weight_;       // [out_c, in_c * k * k]
  Tensor bias_;         // [out_c]
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor padded_;       // [K, in_c, H + 2 pad, W + 2 pad], zero border
  Tensor dy_;           // [K * OH * OW, out_c], dY with one row per pixel
  std::vector<int64_t> last_in_shape_;
};

class ReluLayer : public Layer {
 public:
  explicit ReluLayer(std::string name) : Layer(std::move(name)) {}

  void Forward(const Tensor& in, Tensor* out) override;
  void Backward(const Tensor& grad_out, Tensor* grad_in) override;

 private:
  Tensor mask_;  // 1 where input > 0
};

// 2x2 max pooling with stride 2 over NCHW (even spatial dims required).
class MaxPool2Layer : public Layer {
 public:
  explicit MaxPool2Layer(std::string name) : Layer(std::move(name)) {}

  void Forward(const Tensor& in, Tensor* out) override;
  void Backward(const Tensor& grad_out, Tensor* grad_in) override;

 private:
  std::vector<int64_t> argmax_;  // flat input index of each pooled maximum
  std::vector<int64_t> last_in_shape_;
};

// out = inner(x) + x, for a same-shape inner stack (pre-activation style
// residual used by the small-ResNet convergence experiments).
class ResidualBlock : public Layer {
 public:
  ResidualBlock(std::string name, std::vector<std::unique_ptr<Layer>> inner);

  void Forward(const Tensor& in, Tensor* out) override;
  void Backward(const Tensor& grad_out, Tensor* grad_in) override;
  std::vector<ParamBlock> Params() override;

 private:
  std::vector<std::unique_ptr<Layer>> inner_;
  std::vector<Tensor> activations_;  // inputs to each inner layer
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_NN_LAYERS_H_

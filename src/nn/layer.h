// Trainable layer interface for the CPU neural-network library.
//
// The library exists to run the paper's *statistical* experiments for real
// (Fig 11's 1-bit-quantization comparison, Fig 9b's epochs-to-error
// invariance): exact forward/backward math on CPU, mini-batch tensors in
// NCHW layout, one Layer object per network position. Layers own their
// parameters and gradient buffers; optimizers and communication schemes
// access them through ParamBlock views.
#ifndef POSEIDON_SRC_NN_LAYER_H_
#define POSEIDON_SRC_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/models/model_spec.h"
#include "src/tensor/tensor.h"

namespace poseidon {

// Non-owning view of one parameter tensor and its gradient.
struct ParamBlock {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const { return name_; }

  // Layer classification for HybComm decisions; FC layers additionally
  // report their (M, N) matrix shape through fc_m()/fc_n().
  virtual LayerType type() const { return LayerType::kConv; }
  virtual int64_t fc_m() const { return 0; }
  virtual int64_t fc_n() const { return 0; }

  // Computes the output for `in` (leading dimension = batch). The layer may
  // cache whatever it needs for Backward.
  virtual void Forward(const Tensor& in, Tensor* out) = 0;

  // Given d(loss)/d(out), accumulates parameter gradients (overwriting; the
  // trainer aggregates across workers, not across calls) and computes
  // d(loss)/d(in). A null `grad_in` skips only the input-gradient work (the
  // network's first layer, whose input gradient nobody reads); the parameter
  // gradients come out bit for bit the same.
  virtual void Backward(const Tensor& grad_out, Tensor* grad_in) = 0;

  // Backward for a caller that never reads this call's weight gradient (an
  // SFB layer: every peer rebuilds dW from the sufficient factors). A layer
  // may then leave its weight gradient untouched; every other output comes
  // out bit for bit as in Backward. The default runs the full Backward.
  virtual void BackwardSkippingWeightGrad(const Tensor& grad_out, Tensor* grad_in) {
    Backward(grad_out, grad_in);
  }

  // Parameter views; empty for stateless layers.
  virtual std::vector<ParamBlock> Params() { return {}; }

  int64_t num_params() {
    int64_t total = 0;
    for (const ParamBlock& p : Params()) {
      total += p.value->size();
    }
    return total;
  }

 private:
  std::string name_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_NN_LAYER_H_

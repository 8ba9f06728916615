// A feed-forward network: an ordered layer stack plus a softmax
// cross-entropy head. Exposes the per-layer stepping interface Poseidon's
// trainer needs (Algorithm 2): Forward(), then BackwardThrough(l) from the
// top layer down, so layer l's gradient is complete — and synchronizable —
// while lower layers are still computing.
#ifndef POSEIDON_SRC_NN_NETWORK_H_
#define POSEIDON_SRC_NN_NETWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/layer.h"
#include "src/tensor/tensor.h"

namespace poseidon {

// Softmax + cross-entropy over logits [K, classes] with integer labels.
struct LossResult {
  double loss = 0.0;      // mean over the batch
  double accuracy = 0.0;  // top-1
};

LossResult SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int>& labels,
                               Tensor* grad_logits);

class Network {
 public:
  Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void Add(std::unique_ptr<Layer> layer);

  int num_layers() const { return static_cast<int>(layers_.size()); }
  Layer& layer(int i) { return *layers_[static_cast<size_t>(i)]; }

  // Runs the forward pass and the loss head; caches everything Backward
  // needs. Labels are mean-reduced, so gradients are per-sample averages.
  LossResult Forward(const Tensor& batch, const std::vector<int>& labels);

  // Runs the backward pass for layer `l` only (top = num_layers()-1 first).
  // Must be called in strictly descending order after Forward. With
  // `weight_grad` false the layer may skip its weight gradient (see
  // Layer::BackwardSkippingWeightGrad).
  void BackwardThrough(int l, bool weight_grad = true);

  // Convenience: full backward pass.
  void Backward();

  // All parameters, bottom to top, grouped per layer.
  std::vector<std::vector<ParamBlock>> LayerParams();

  int64_t total_params();

  // Evaluates mean loss/accuracy without touching gradients or caches used
  // by a concurrent training iteration? No -- reuses the same buffers; call
  // between iterations only.
  LossResult Evaluate(const Tensor& batch, const std::vector<int>& labels);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  Tensor grad_cursor_;   // d(loss)/d(output of layer next_backward_)
  int next_backward_ = -1;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_NN_NETWORK_H_

#include "src/nn/network.h"

#include <cmath>

#include "src/common/logging.h"

namespace poseidon {

LossResult SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int>& labels,
                               Tensor* grad_logits) {
  CHECK_EQ(logits.ndim(), 2);
  const int64_t k = logits.dim(0);
  const int64_t classes = logits.dim(1);
  CHECK_EQ(static_cast<int64_t>(labels.size()), k);

  LossResult result;
  if (grad_logits != nullptr) {
    *grad_logits = Tensor({k, classes});
  }
  int correct = 0;
  double loss_sum = 0.0;
  for (int64_t i = 0; i < k; ++i) {
    const float* row = logits.data() + i * classes;
    const int label = labels[static_cast<size_t>(i)];
    CHECK_GE(label, 0);
    CHECK_LT(label, classes);

    float max_logit = row[0];
    int64_t argmax = 0;
    for (int64_t c = 1; c < classes; ++c) {
      if (row[c] > max_logit) {
        max_logit = row[c];
        argmax = c;
      }
    }
    if (argmax == label) {
      ++correct;
    }
    double denom = 0.0;
    for (int64_t c = 0; c < classes; ++c) {
      denom += std::exp(static_cast<double>(row[c] - max_logit));
    }
    const double log_denom = std::log(denom);
    loss_sum += log_denom - static_cast<double>(row[label] - max_logit);
    if (grad_logits != nullptr) {
      float* grad_row = grad_logits->data() + i * classes;
      for (int64_t c = 0; c < classes; ++c) {
        const double p = std::exp(static_cast<double>(row[c] - max_logit)) / denom;
        grad_row[c] = static_cast<float>((p - (c == label ? 1.0 : 0.0)) / k);
      }
    }
  }
  result.loss = loss_sum / static_cast<double>(k);
  result.accuracy = static_cast<double>(correct) / static_cast<double>(k);
  return result;
}

void Network::Add(std::unique_ptr<Layer> layer) {
  CHECK_NOTNULL(layer.get());
  layers_.push_back(std::move(layer));
}

LossResult Network::Forward(const Tensor& batch, const std::vector<int>& labels) {
  CHECK(!layers_.empty());
  Tensor current = batch;
  for (auto& layer : layers_) {
    Tensor next;
    layer->Forward(current, &next);
    current = std::move(next);
  }
  LossResult result = SoftmaxCrossEntropy(current, labels, &grad_cursor_);
  next_backward_ = num_layers() - 1;
  return result;
}

void Network::BackwardThrough(int l, bool weight_grad) {
  CHECK_EQ(l, next_backward_) << "backward must proceed top-down, layer by layer";
  CHECK_GE(l, 0);
  Tensor grad_in;
  // Nothing reads the gradient wrt the network input, so layer 0 skips it.
  Tensor* grad_in_or_null = l == 0 ? nullptr : &grad_in;
  Layer& layer = *layers_[static_cast<size_t>(l)];
  if (weight_grad) {
    layer.Backward(grad_cursor_, grad_in_or_null);
  } else {
    layer.BackwardSkippingWeightGrad(grad_cursor_, grad_in_or_null);
  }
  grad_cursor_ = std::move(grad_in);
  --next_backward_;
}

void Network::Backward() {
  for (int l = num_layers() - 1; l >= 0; --l) {
    BackwardThrough(l);
  }
}

std::vector<std::vector<ParamBlock>> Network::LayerParams() {
  std::vector<std::vector<ParamBlock>> params;
  params.reserve(layers_.size());
  for (auto& layer : layers_) {
    params.push_back(layer->Params());
  }
  return params;
}

int64_t Network::total_params() {
  int64_t total = 0;
  for (auto& layer : layers_) {
    total += layer->num_params();
  }
  return total;
}

LossResult Network::Evaluate(const Tensor& batch, const std::vector<int>& labels) {
  Tensor current = batch;
  for (auto& layer : layers_) {
    Tensor next;
    layer->Forward(current, &next);
    current = std::move(next);
  }
  return SoftmaxCrossEntropy(current, labels, nullptr);
}

}  // namespace poseidon

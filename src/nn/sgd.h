// SGD with momentum and weight decay (the optimizer used throughout the
// paper's experiments). The optimizer is applied wherever the master copy of
// a parameter lives: on KV-store shards for PS-synchronized layers, and
// replicated on every worker for SFB-synchronized layers (identical inputs
// give identical replicas, preserving BSP consistency).
#ifndef POSEIDON_SRC_NN_SGD_H_
#define POSEIDON_SRC_NN_SGD_H_

#include <mutex>
#include <string>
#include <unordered_map>

#include "src/tensor/tensor.h"

namespace poseidon {

struct SgdConfig {
  float learning_rate = 0.01f;
  float momentum = 0.0f;
  float weight_decay = 0.0f;
};

class SgdOptimizer {
 public:
  explicit SgdOptimizer(SgdConfig config) : config_(config) {}

  // v <- mu*v + grad + wd*value ; value <- value - lr*v
  // `key` identifies the parameter so its velocity persists across steps.
  void Step(const std::string& key, const Tensor& grad, Tensor* value);

  // Step on a sub-range [offset, offset+len) of a flattened parameter (used
  // by KV-store shards, which own slices rather than whole tensors).
  void StepSlice(const std::string& key, const float* grad, float* value, int64_t len);

  void set_learning_rate(float lr) { config_.learning_rate = lr; }
  float learning_rate() const { return config_.learning_rate; }
  const SgdConfig& config() const { return config_; }

 private:
  SgdConfig config_;
  // Guards the velocity map's structure: syncer loop threads step different
  // layers (distinct keys) concurrently, so only the insert needs
  // serializing — element references stay valid across rehashes, and each
  // key is stepped by at most one thread per iteration.
  std::mutex mutex_;
  std::unordered_map<std::string, Tensor> velocity_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_NN_SGD_H_

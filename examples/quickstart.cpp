// Quickstart: distributed data-parallel training with Poseidon in ~40 lines.
//
// Builds a small MLP, trains it on 2 workers + 2 colocated KV-store shards
// with wait-free backpropagation and HybComm (the coordinator picks PS or
// SFB per layer), and prints the loss curve plus the schemes chosen.
//
//   ./quickstart
#include <cstdio>

#include "src/nn/builders.h"
#include "src/poseidon/trainer.h"

int main() {
  using namespace poseidon;

  // 1. Synthetic 4-class image dataset (deterministic).
  DatasetConfig data;
  data.num_classes = 4;
  data.channels = 1;
  data.height = 8;
  data.width = 8;
  data.train_size = 256;
  data.noise_stddev = 0.4f;
  SyntheticDataset dataset(data);

  // 2. A deterministic network factory: every worker replica starts
  //    identical (same seed).
  NetworkFactory factory = [] {
    Rng rng(7);
    return BuildMlp(/*input_dim=*/64, /*hidden_dim=*/64, /*hidden_layers=*/2,
                    /*classes=*/4, rng);
  };

  // 3. Cluster shape: 2 workers, each also hosting a KV-store shard.
  TrainerOptions options;
  options.num_workers = 2;
  options.num_servers = 2;
  options.batch_per_worker = 16;
  options.sgd = {.learning_rate = 0.05f, .momentum = 0.9f};
  options.fc_policy = PlanPolicy::kHybrid;  // Algorithm 1 per layer

  PoseidonTrainer trainer(factory, options);

  // What did HybComm decide for each layer?
  std::printf("Per-layer communication schemes (batch=%d, P=2):\n",
              options.batch_per_worker);
  for (int l = 0; l < trainer.coordinator().num_layers(); ++l) {
    const LayerInfo& info = trainer.coordinator().layer(l);
    if (info.total_floats == 0) {
      continue;
    }
    std::printf("  %-8s %-5s -> %s\n", info.name.c_str(), LayerTypeName(info.type),
                PlannedSchemeName(trainer.plan()->layers[static_cast<size_t>(l)].scheme));
  }

  // 4. Train (Algorithm 2 runs inside: forward, per-layer backward + sync
  //    on the client library's syncer loops, BSP barrier).
  std::printf("\nTraining 2 workers x batch 16:\n");
  const auto stats = trainer.Train(dataset, 50);
  for (size_t i = 0; i < stats.size(); i += 10) {
    std::printf("  iter %3lld  loss %.3f  acc %.2f\n",
                static_cast<long long>(stats[i].iter), stats[i].mean_loss,
                stats[i].mean_accuracy);
  }
  const LossResult test = trainer.EvaluateTest(dataset);
  std::printf("\nTest accuracy: %.1f%%\n", 100.0 * test.accuracy);
  return 0;
}

// Domain example: the paper's flagship workload — image classification with
// a convolutional network — trained data-parallel on 4 workers through the
// real threaded runtime. Shows the loss trajectory, the per-node traffic the
// chosen schemes produce, and verifies that all replicas remain identical
// under bulk-synchronous consistency.
//
//   ./distributed_cifar [iterations]
#include <cstdio>
#include <cstdlib>

#include "src/common/units.h"
#include "src/nn/builders.h"
#include "src/poseidon/trainer.h"
#include "src/tensor/ops.h"

int main(int argc, char** argv) {
  using namespace poseidon;
  const int iterations = argc > 1 ? std::atoi(argv[1]) : 150;

  DatasetConfig data;
  data.num_classes = 10;
  data.channels = 3;
  data.height = 16;
  data.width = 16;
  data.train_size = 512;
  data.test_size = 200;
  data.noise_stddev = 0.5f;
  data.seed = 101;
  SyntheticDataset dataset(data);

  NetworkFactory factory = [] {
    Rng rng(20170711);
    return BuildCifarQuick(/*channels=*/3, /*image_hw=*/16, /*classes=*/10, rng);
  };

  TrainerOptions options;
  options.num_workers = 4;
  options.num_servers = 4;
  options.batch_per_worker = 8;
  options.sgd = {.learning_rate = 0.01f, .momentum = 0.9f, .weight_decay = 1e-4f};
  options.fc_policy = PlanPolicy::kHybrid;
  options.kv_pair_bytes = 64 * 1024;  // finer pairs -> better shard balance

  PoseidonTrainer trainer(factory, options);
  std::printf("CIFAR-quick (reduced 16x16) on 4 workers, aggregate batch %d\n\n",
              4 * options.batch_per_worker);

  const auto stats = trainer.Train(dataset, iterations);
  for (size_t i = 0; i < stats.size(); i += 15) {
    std::printf("  iter %3lld  loss %.3f  train-acc %.2f\n",
                static_cast<long long>(stats[i].iter), stats[i].mean_loss,
                stats[i].mean_accuracy);
  }
  std::printf("\nTest accuracy after %d iterations: %.1f%%\n", iterations,
              100.0 * trainer.EvaluateTest(dataset).accuracy);

  std::printf("\nPer-node egress over the run:\n");
  const auto tx = trainer.bus().TxBytes();
  for (size_t n = 0; n < tx.size(); ++n) {
    std::printf("  node %zu: %s\n", n, FormatBytes(static_cast<double>(tx[n])).c_str());
  }

  // BSP keeps replicas bitwise identical; prove it.
  double worst = 0.0;
  auto params0 = trainer.worker_net(0).LayerParams();
  for (int w = 1; w < 4; ++w) {
    auto params = trainer.worker_net(w).LayerParams();
    for (size_t l = 0; l < params.size(); ++l) {
      for (size_t p = 0; p < params[l].size(); ++p) {
        worst = std::max(worst, MaxAbsDiff(*params0[l][p].value, *params[l][p].value));
      }
    }
  }
  std::printf("\nMax parameter divergence across replicas: %g (must be 0)\n", worst);
  return worst == 0.0 ? 0 : 1;
}

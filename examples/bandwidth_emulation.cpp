// Bandwidth-limited training in wall-clock time: attaches token-bucket
// egress limiters to every node of the in-process bus (emulating a slow
// Ethernet), then compares wall-clock iteration times of dense-PS vs SFB
// synchronization for an FC-heavy model — the §5.2 story, but measured on
// the real runtime rather than the simulator.
//
//   ./bandwidth_emulation [egress_MB_per_s]
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/nn/builders.h"
#include "src/poseidon/trainer.h"

namespace {

double TrainTimed(poseidon::PlanPolicy policy, double egress_bytes_per_sec, int iters) {
  using namespace poseidon;
  DatasetConfig data;
  data.num_classes = 4;
  data.channels = 1;
  data.height = 8;
  data.width = 8;
  data.train_size = 128;
  SyntheticDataset dataset(data);

  // FC-heavy: one wide hidden layer; with a small batch the SFs are far
  // smaller than the dense matrices.
  NetworkFactory factory = [] {
    Rng rng(5);
    return BuildMlp(/*input_dim=*/64, /*hidden_dim=*/1024, /*hidden_layers=*/1,
                    /*classes=*/4, rng);
  };
  TrainerOptions options;
  options.num_workers = 2;
  options.num_servers = 2;
  options.batch_per_worker = 4;
  options.sgd = {.learning_rate = 0.05f};
  options.fc_policy = policy;
  PoseidonTrainer trainer(factory, options);
  for (int n = 0; n < 2; ++n) {
    trainer.bus().SetEgressLimit(n, egress_bytes_per_sec);
  }

  const auto start = std::chrono::steady_clock::now();
  trainer.Train(dataset, iters);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() /
         iters;
}

}  // namespace

int main(int argc, char** argv) {
  const double mb_per_s = argc > 1 ? std::atof(argv[1]) : 40.0;
  const double rate = mb_per_s * 1e6;
  const int iters = 10;
  std::printf("Emulated egress limit: %.0f MB/s per node, 2 workers, FC-heavy MLP\n\n",
              mb_per_s);
  const double dense = TrainTimed(poseidon::PlanPolicy::kDense, rate, iters);
  const double sfb = TrainTimed(poseidon::PlanPolicy::kSfb, rate, iters);
  std::printf("  dense PS : %.1f ms/iteration\n", 1e3 * dense);
  std::printf("  SFB      : %.1f ms/iteration\n", 1e3 * sfb);
  std::printf("\nSFB is %.1fx faster under this bandwidth (the HybComm rationale).\n",
              dense / sfb);
  return 0;
}

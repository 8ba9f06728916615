// Regenerates Figure 11: training loss and test error vs iteration for the
// CIFAR-10-quick network trained on 4 workers, comparing Poseidon's exact
// synchronization against 1-bit quantization with error feedback
// (Poseidon-1bit). Both run through the real threaded runtime with real
// gradients, so the statistical contrast — 1-bit converging slower/worse —
// is measured, not modeled.
//
// Default configuration is a reduced-resolution variant (16x16 synthetic
// images, smaller batch) so the bench finishes in about a minute on one CPU
// core; pass --full for the paper-sized 32x32 / batch-100 network.
#include <cstdio>
#include <cstdlib>

#include "src/common/cli.h"
#include "src/common/table.h"
#include "src/nn/builders.h"
#include "src/poseidon/trainer.h"

namespace poseidon {
namespace {

struct RunConfig {
  int image_hw = 16;
  int batch_per_worker = 8;  // 4 workers -> aggregate batch 32
  int iterations = 200;
  int report_every = 25;
};

struct Curve {
  std::vector<double> loss;
  std::vector<double> test_error;
};

Curve RunOne(const RunConfig& config, PlanPolicy policy,
             const SyntheticDataset& dataset) {
  NetworkFactory factory = [&config] {
    Rng rng(20170711);
    return BuildCifarQuick(/*channels=*/3, config.image_hw, /*classes=*/10, rng);
  };
  TrainerOptions options;
  options.num_workers = 4;
  options.num_servers = 4;
  options.batch_per_worker = config.batch_per_worker;
  options.sgd = {.learning_rate = 0.01f, .momentum = 0.9f, .weight_decay = 1e-4f};
  options.fc_policy = policy;
  PoseidonTrainer trainer(factory, options);

  Curve curve;
  for (int done = 0; done < config.iterations; done += config.report_every) {
    const int chunk = std::min(config.report_every, config.iterations - done);
    const auto stats = trainer.Train(dataset, chunk);
    curve.loss.push_back(stats.back().mean_loss);
    curve.test_error.push_back(1.0 - trainer.EvaluateTest(dataset).accuracy);
  }
  return curve;
}

void Run(const BenchArgs& args) {
  if (args.full && args.fast) {
    std::fprintf(stderr, "--full and --fast are contradictory; pick one\n");
    std::exit(2);
  }
  const bool full = args.full;
  RunConfig config;
  if (full) {
    config.image_hw = 32;
    config.batch_per_worker = 25;  // aggregate 100, the paper's batch size
    config.iterations = 300;
    config.report_every = 25;
  }
  config.iterations = args.ItersOr(config.iterations, /*fast_iters=*/50);

  DatasetConfig data_config;
  data_config.num_classes = 10;
  data_config.channels = 3;
  data_config.height = config.image_hw;
  data_config.width = config.image_hw;
  data_config.train_size = 512;
  data_config.test_size = 200;
  data_config.noise_stddev = 0.5f;
  data_config.seed = 101;
  SyntheticDataset dataset(data_config);

  std::printf("Fig 11: CIFAR-10-quick on 4 workers: exact sync (Poseidon) vs 1-bit\n");
  std::printf("quantization with residual (Poseidon-1bit). %s configuration.\n\n",
              full ? "Full 32x32" : "Reduced 16x16 (use --full for paper-size)");

  const Curve exact = RunOne(config, PlanPolicy::kHybrid, dataset);
  const Curve onebit = RunOne(config, PlanPolicy::kOneBit, dataset);

  TextTable table({"iter", "loss exact", "loss 1bit", "test-err exact", "test-err 1bit"});
  for (size_t i = 0; i < exact.loss.size(); ++i) {
    table.AddRow({std::to_string((i + 1) * static_cast<size_t>(config.report_every)),
                  TextTable::Num(exact.loss[i], 3), TextTable::Num(onebit.loss[i], 3),
                  TextTable::Num(exact.test_error[i], 3),
                  TextTable::Num(onebit.test_error[i], 3)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace poseidon

int main(int argc, char** argv) {
  const poseidon::BenchArgs args = poseidon::ParseBenchArgs(argc, argv);
  poseidon::InitBenchTelemetry(args);
  poseidon::Run(args);
  poseidon::FinishBenchTelemetry(args);
  return 0;
}

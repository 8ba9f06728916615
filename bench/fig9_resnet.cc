// Regenerates Figure 9: (a) throughput speedup for ResNet-152, Poseidon vs
// native TF on 1-32 nodes; (b) top-1 test error vs epoch for synchronous
// data-parallel training at different node counts.
//
// (b) substitution: the paper trains ResNet-152 on ILSVRC12 for ~90 epochs
// on the real cluster; here a small ResNet trains on the synthetic dataset
// through the *real* threaded Poseidon runtime. The property being
// reproduced is the paper's: synchronous replication with the same aggregate
// batch gives the same error-vs-epoch trajectory regardless of how many
// workers the batch is split across (so speedup in throughput translates
// linearly into speedup in time-to-accuracy).
#include <cstdio>

#include "src/common/cli.h"
#include "src/common/table.h"
#include "src/models/zoo.h"
#include "src/nn/builders.h"
#include "src/poseidon/trainer.h"
#include "src/stats/report.h"

namespace poseidon {
namespace {

void ThroughputPart(const BenchArgs& args) {
  const ModelSpec model = MakeResNet152();
  const double gbps = args.FirstGbpsOr(40.0);
  const auto results = RunScalingSweep(model, {TfNative(), PoseidonSystem()},
                                       args.NodesOr({1, 2, 4, 8, 16, 32}), gbps,
                                       Engine::kTensorFlow);
  char title[96];
  std::snprintf(title, sizeof(title), "Fig 9a: ResNet-152 throughput (TF engine, %.0f GbE)",
                gbps);
  std::printf("%s\n", FormatSpeedupTable(title, results).c_str());
}

void ConvergencePart(const BenchArgs& args) {
  std::printf("Fig 9b: top-1 test error vs epoch, synchronous SGD, aggregate batch 32\n");
  std::printf("(small ResNet on the synthetic dataset through the threaded runtime;\n");
  std::printf("the curves must coincide across node counts)\n\n");

  DatasetConfig data_config;
  data_config.num_classes = 8;
  data_config.channels = 2;
  data_config.height = 8;
  data_config.width = 8;
  data_config.train_size = 256;
  data_config.test_size = 128;
  data_config.noise_stddev = 1.8f;  // hard enough that error decays over epochs
  data_config.seed = 90210;
  SyntheticDataset dataset(data_config);

  const int total_batch = 32;
  const int iters_per_epoch = data_config.train_size / total_batch;
  const int epochs = args.ItersOr(/*normal=*/8, /*fast_iters=*/2);

  NetworkFactory factory = [] {
    Rng rng(4242);
    return BuildSmallResNet(/*channels=*/2, /*image_hw=*/8, /*classes=*/8, /*width=*/8,
                            /*blocks=*/2, rng);
  };

  TextTable table({"epoch", "err @2 workers", "err @4 workers", "err @8 workers"});
  std::vector<std::vector<double>> errors;
  for (int workers : {2, 4, 8}) {
    TrainerOptions options;
    options.num_workers = workers;
    options.num_servers = workers;
    options.batch_per_worker = total_batch / workers;
    options.sgd = {.learning_rate = 0.01f, .momentum = 0.9f};
    options.fc_policy = PlanPolicy::kHybrid;
    options.kv_pair_bytes = 4096;
    PoseidonTrainer trainer(factory, options);
    std::vector<double> per_epoch;
    for (int e = 0; e < epochs; ++e) {
      trainer.Train(dataset, iters_per_epoch);
      per_epoch.push_back(1.0 - trainer.EvaluateTest(dataset).accuracy);
    }
    errors.push_back(std::move(per_epoch));
  }
  for (int e = 0; e < epochs; ++e) {
    table.AddRow({std::to_string(e + 1), TextTable::Num(errors[0][e], 3),
                  TextTable::Num(errors[1][e], 3), TextTable::Num(errors[2][e], 3)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace poseidon

int main(int argc, char** argv) {
  const poseidon::BenchArgs args = poseidon::ParseBenchArgs(argc, argv);
  poseidon::InitBenchTelemetry(args);
  poseidon::ThroughputPart(args);
  poseidon::ConvergencePart(args);
  poseidon::FinishBenchTelemetry(args);
  return 0;
}

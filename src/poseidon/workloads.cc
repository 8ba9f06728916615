#include "src/poseidon/workloads.h"

#include "src/common/rng.h"
#include "src/nn/builders.h"

namespace poseidon {
namespace workloads {

SyntheticDataset TinyDataset() {
  DatasetConfig data;
  data.num_classes = 3;
  data.channels = 1;
  data.height = 8;
  data.width = 8;
  data.train_size = 96;
  data.noise_stddev = 0.4f;
  data.seed = 2024;
  return SyntheticDataset(data);
}

NetworkFactory TinyMlpFactory(int hidden_layers) {
  return [hidden_layers] {
    Rng rng(13);
    return BuildMlp(/*input_dim=*/64, /*hidden_dim=*/20, hidden_layers,
                    /*classes=*/3, rng);
  };
}

TrainerOptions SmallTrainerOptions(int workers, int servers, int shards,
                                   int staleness, PlanPolicy policy) {
  TrainerOptions options;
  options.num_workers = workers;
  options.num_servers = servers;
  options.shards_per_server = shards;
  options.staleness = staleness;
  options.batch_per_worker = 6;
  options.sgd = {.learning_rate = 0.05f, .momentum = 0.9f};
  options.fc_policy = policy;
  options.kv_pair_bytes = 256;
  options.syncer_threads = 2;
  return options;
}

}  // namespace workloads
}  // namespace poseidon

#include "tests/testing/harness.h"

#include <cstdlib>

#include "src/common/rng.h"
#include "src/poseidon/workloads.h"

namespace poseidon {
namespace testing {

// The canonical workload definitions moved to src/poseidon/workloads.{h,cc}
// so tools/poseidon_launch trains the exact model the in-process oracle
// trains; the harness keeps its historical entry points as delegates.
SyntheticDataset TinyDataset() { return workloads::TinyDataset(); }

NetworkFactory TinyMlpFactory(int hidden_layers) {
  return workloads::TinyMlpFactory(hidden_layers);
}

TrainerOptions SmallTrainerOptions(int workers, int servers, int shards, int staleness,
                                   PlanPolicy policy) {
  return workloads::SmallTrainerOptions(workers, servers, shards, staleness, policy);
}

ClusterInfo SmallClusterInfo(int workers, int servers, int batch, int64_t kv_bytes) {
  ClusterInfo cluster;
  cluster.num_workers = workers;
  cluster.num_servers = servers;
  cluster.batch_per_worker = batch;
  cluster.kv_pair_bytes = kv_bytes;
  return cluster;
}

std::vector<int64_t> RawPsShardLoadFloats(const Coordinator& coordinator) {
  const ClusterInfo& cluster = coordinator.cluster();
  CommPlan plan;
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    plan.layers.push_back({coordinator.layer(l).name, PlannedScheme::kPS});
  }
  std::vector<int64_t> load(
      static_cast<size_t>(cluster.num_servers * cluster.shards_per_server), 0);
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    for (int s = 0; s < cluster.num_servers; ++s) {
      for (int h = 0; h < cluster.shards_per_server; ++h) {
        for (const KvPairInfo& pair :
             coordinator.PairsOnShard(l, plan.layers[static_cast<size_t>(l)], s, h)) {
          load[static_cast<size_t>(s * cluster.shards_per_server + h)] += pair.length;
        }
      }
    }
  }
  return load;
}

std::vector<float> AllParams(Network& net) {
  std::vector<float> out;
  for (auto& layer_params : net.LayerParams()) {
    for (ParamBlock& p : layer_params) {
      out.insert(out.end(), p.value->data(), p.value->data() + p.value->size());
    }
  }
  return out;
}

Trajectory CaptureTrajectory(const TrainerOptions& options, int iterations,
                             int hidden_layers) {
  const SyntheticDataset dataset = TinyDataset();
  PoseidonTrainer trainer(TinyMlpFactory(hidden_layers), options);
  Trajectory trajectory;
  for (const IterationStats& stats : trainer.Train(dataset, iterations)) {
    trajectory.mean_losses.push_back(stats.mean_loss);
  }
  trainer.bus().FlushEgress();
  trainer.bus().FlushFaults();
  trajectory.final_params = AllParams(trainer.worker_net(0));
  if (trainer.bus().fault_injector() != nullptr) {
    trajectory.faults = trainer.bus().fault_injector()->Counters();
  }
  return trajectory;
}

std::vector<uint64_t> ChaosSeeds(int count) {
  uint64_t base = 1;
  if (const char* env = std::getenv("POSEIDON_CHAOS_SEED")) {
    base = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
    if (base == 0) {
      base = 1;
    }
  }
  std::vector<uint64_t> seeds;
  seeds.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Spread the bases out so consecutive CI shards never overlap seeds.
    seeds.push_back(base * 1000 + static_cast<uint64_t>(i));
  }
  return seeds;
}

std::string SeedTrace(uint64_t seed) {
  return "chaos seed " + std::to_string(seed) +
         " (reproduce with POSEIDON_CHAOS_SEED and this test filter)";
}

}  // namespace testing
}  // namespace poseidon

/// \file
/// Shared in-process cluster harness for the Poseidon test suite.
///
/// Before this library existed every trainer-level test re-declared the same
/// tiny dataset, MLP factory, trainer options and parameter-flattening
/// helpers; chaos testing made the duplication untenable (seeded runs,
/// golden-trajectory comparison, and crash orchestration all need one
/// authoritative definition of "the small cluster"). Tests link
/// `poseidon_testing` and use:
///
///   * TinyDataset() / TinyMlpFactory()       — the canonical 8x8 3-class
///     workload and a deterministic replica factory;
///   * SmallTrainerOptions(...)               — the canonical 4-worker /
///     2-server trainer configuration, knobs exposed;
///   * AllParams(net) / CaptureTrajectory(...) — golden-trajectory capture
///     (per-iteration mean losses + final flattened parameters) for bitwise
///     comparisons between runs;
///   * ChaosSeeds(n) / POSEIDON_CHAOS_SEED    — the seed matrix for chaos
///     property tests. CI sets the env var; on failure the offending seed is
///     printed so the run can be reproduced locally.
#ifndef POSEIDON_TESTS_TESTING_HARNESS_H_
#define POSEIDON_TESTS_TESTING_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/nn/builders.h"
#include "src/nn/dataset.h"
#include "src/poseidon/coordinator.h"
#include "src/poseidon/trainer.h"
#include "src/stats/fault_counters.h"

namespace poseidon {
namespace testing {

/// The canonical tiny workload: 8x8 single-channel images, 3 classes, 96
/// training samples, dataset seed 2024.
SyntheticDataset TinyDataset();

/// Deterministic factory for the canonical small MLP replica (64-20-...-3,
/// network seed 13). All replicas built from one factory are identical.
NetworkFactory TinyMlpFactory(int hidden_layers = 2);

/// The canonical small-cluster trainer options: 4 workers, 2 servers,
/// lr 0.05 / momentum 0.9, 6 samples per worker, 256-byte KV pairs, two
/// syncer threads. Tests override fields freely after construction.
TrainerOptions SmallTrainerOptions(int workers = 4, int servers = 2, int shards = 2,
                                   int staleness = 0,
                                   PlanPolicy policy = PlanPolicy::kDense);

/// The canonical coordinator-level cluster description (no live runtime).
ClusterInfo SmallClusterInfo(int workers, int servers, int batch,
                             int64_t kv_bytes = 1024);

/// Every parameter of every layer, flattened in (layer, block) order —
/// the unit of bitwise trajectory comparison.
std::vector<float> AllParams(Network& net);

/// One run's observable trajectory: per-iteration mean training loss and the
/// final flattened parameters of worker 0's replica. The fault counters ride
/// along for assertions but do not participate in equality (two runs are
/// "the same trajectory" precisely when the weather did not change the
/// computation).
struct Trajectory {
  std::vector<double> mean_losses;
  std::vector<float> final_params;
  FaultCountersSnapshot faults;

  bool operator==(const Trajectory& other) const {
    return mean_losses == other.mean_losses && final_params == other.final_params;
  }
};

/// Builds a fresh trainer from `options`, trains `iterations` over the tiny
/// dataset, and captures the trajectory. The golden-run helper: capture once
/// with clean options, once with chaos, and compare bitwise.
Trajectory CaptureTrajectory(const TrainerOptions& options, int iterations,
                             int hidden_layers = 2);

/// The chaos seed matrix: `count` distinct seeds starting from the base.
/// The base is POSEIDON_CHAOS_SEED when set (CI sweeps it), else 1.
std::vector<uint64_t> ChaosSeeds(int count);

/// Failure-message tag naming the seed, so any chaos assertion that fires
/// tells the reader how to reproduce:
///   SCOPED_TRACE(testing::SeedTrace(seed));
std::string SeedTrace(uint64_t seed);

}  // namespace testing
}  // namespace poseidon

#endif  // POSEIDON_TESTS_TESTING_HARNESS_H_

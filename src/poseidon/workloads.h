/// \file
/// Canonical named workloads shared by the test harness, the multi-process
/// launcher and the benches.
///
/// A multi-process cluster needs every process to construct the *same*
/// deterministic workload from nothing but a name on the command line — the
/// dataset, the replica factory and the hyperparameters cannot be shipped
/// over the wire. These definitions used to live in tests/testing/harness.cc;
/// they moved here so `tools/poseidon_launch` and the conformance tests are
/// guaranteed to train the same model the in-process oracle trains (the
/// harness now delegates to these).
#ifndef POSEIDON_SRC_POSEIDON_WORKLOADS_H_
#define POSEIDON_SRC_POSEIDON_WORKLOADS_H_

#include "src/nn/dataset.h"
#include "src/poseidon/trainer.h"

namespace poseidon {
namespace workloads {

/// The canonical tiny workload: 8x8 single-channel images, 3 classes, 96
/// training samples, dataset seed 2024.
SyntheticDataset TinyDataset();

/// Deterministic factory for the canonical small MLP replica
/// (64-20-...-20-3, network seed 13). Every replica built from one factory
/// call — in any process — is bit-identical.
NetworkFactory TinyMlpFactory(int hidden_layers = 2);

/// The canonical small-cluster trainer options: lr 0.05 / momentum 0.9, 6
/// samples per worker, 256-byte KV pairs, two syncer threads. Callers
/// override fields freely after construction.
TrainerOptions SmallTrainerOptions(int workers = 4, int servers = 2,
                                   int shards = 2, int staleness = 0,
                                   PlanPolicy policy = PlanPolicy::kDense);

}  // namespace workloads
}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_WORKLOADS_H_

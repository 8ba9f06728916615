// Chaos property tests: the fault fabric may change *when* bytes arrive but
// never *what* the training run computes.
//
// The load-bearing invariant: under seeded duplication + reordering (and
// even loss, because the modeled link layer retransmits), the per-stream
// message sequence each consumer pops is identical to the clean run's, so
// BSP — and sharded SSP with s = 0 — trajectories are bitwise identical to
// the fault-free trajectory. The tests verify this across a seed matrix
// (POSEIDON_CHAOS_SEED widens it in CI) and additionally assert from the
// fault counters that the weather actually happened (a vacuously clean run
// proves nothing).
#include <gtest/gtest.h>

#include <thread>

#include "src/poseidon/trainer.h"
#include "tests/testing/harness.h"
#include "tests/testing/socket_cluster.h"

namespace poseidon {
namespace {

using testing::CaptureTrajectory;
using testing::ChaosSeeds;
using testing::SeedTrace;
using testing::SmallTrainerOptions;
using testing::Trajectory;

constexpr int kIters = 10;

FaultPlan DupReorderPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.duplicate_prob = 0.15;
  plan.delay_prob = 0.35;  // delays are what reorder the wire
  plan.delay_min_us = 10;
  plan.delay_max_us = 400;
  return plan;
}

TEST(ChaosPropertyTest, BspBitwiseIdenticalUnderDuplicationAndReordering) {
  const Trajectory clean = CaptureTrajectory(SmallTrainerOptions(), kIters);
  ASSERT_EQ(clean.faults.TotalInjected(), 0);

  for (uint64_t seed : ChaosSeeds(5)) {
    SCOPED_TRACE(SeedTrace(seed));
    TrainerOptions options = SmallTrainerOptions();
    options.fault_plan = DupReorderPlan(seed);
    const Trajectory chaotic = CaptureTrajectory(options, kIters);
    EXPECT_GT(chaotic.faults.duplicates, 0) << "no duplicates injected; vacuous run";
    EXPECT_GT(chaotic.faults.delays, 0) << "no delays injected; vacuous run";
    EXPECT_GT(chaotic.faults.deduped, 0) << "duplicates never reached the dedup layer";
    EXPECT_TRUE(chaotic == clean)
        << "duplication + reordering changed the BSP trajectory; "
        << FormatFaultCounters(chaotic.faults);
  }
}

TEST(ChaosPropertyTest, ShardedSspZeroBitwiseIdenticalUnderChaos) {
  // s = 0 over 4-way sharding is the strongest consistency claim the SSP
  // runtime makes; the fabric must not weaken it.
  TrainerOptions base =
      SmallTrainerOptions(/*workers=*/4, /*servers=*/2, /*shards=*/4, /*staleness=*/0);
  const Trajectory clean = CaptureTrajectory(base, kIters);
  for (uint64_t seed : ChaosSeeds(5)) {
    SCOPED_TRACE(SeedTrace(seed));
    TrainerOptions options = base;
    options.fault_plan = DupReorderPlan(seed);
    const Trajectory chaotic = CaptureTrajectory(options, kIters);
    EXPECT_TRUE(chaotic == clean) << FormatFaultCounters(chaotic.faults);
  }
}

TEST(ChaosPropertyTest, HybridPolicyBitwiseIdenticalUnderChaos) {
  // SFB broadcasts and PS pushes share the fabric; both must survive it.
  TrainerOptions base = SmallTrainerOptions(/*workers=*/3, /*servers=*/2, /*shards=*/2,
                                            /*staleness=*/0, PlanPolicy::kHybrid);
  const Trajectory clean = CaptureTrajectory(base, kIters);
  for (uint64_t seed : ChaosSeeds(3)) {
    SCOPED_TRACE(SeedTrace(seed));
    TrainerOptions options = base;
    options.fault_plan = DupReorderPlan(seed);
    const Trajectory chaotic = CaptureTrajectory(options, kIters);
    EXPECT_TRUE(chaotic == clean) << FormatFaultCounters(chaotic.faults);
  }
}

TEST(ChaosPropertyTest, DropsWithRetransmitConvergeToTheCleanParameters) {
  // Loss adds latency, not divergence: the link layer retransmits and the
  // sequence layer deduplicates, so even the lossy run lands on the clean
  // final parameters exactly (a stronger statement than "converges").
  const Trajectory clean = CaptureTrajectory(SmallTrainerOptions(), kIters);
  for (uint64_t seed : ChaosSeeds(5)) {
    SCOPED_TRACE(SeedTrace(seed));
    TrainerOptions options = SmallTrainerOptions();
    options.fault_plan = DupReorderPlan(seed);
    options.fault_plan.drop_prob = 0.05;
    options.fault_plan.retransmit_timeout_us = 100;
    const Trajectory lossy = CaptureTrajectory(options, kIters);
    EXPECT_GT(lossy.faults.drops, 0) << "no losses injected; vacuous run";
    EXPECT_EQ(lossy.faults.retransmits, lossy.faults.drops);
    EXPECT_EQ(lossy.final_params, clean.final_params)
        << FormatFaultCounters(lossy.faults);
    ASSERT_FALSE(lossy.mean_losses.empty());
    EXPECT_LT(lossy.mean_losses.back(), lossy.mean_losses.front())
        << "training stopped learning under loss";
  }
}

// ------------------------------------------------------- socket backend ----
// The same trajectory invariants with the weather on the *socket* backend:
// cluster members run as threads but every remote byte crosses a real
// loopback socket, and each member's fault fabric drops/duplicates/delays
// whole frames on their way to it. The receiving bus's wire reorder buffer
// is the machinery under test.

TEST(ChaosPropertyTest, SocketBackendBitwiseIdenticalUnderRecordWeather) {
  testing::SocketClusterOptions base;  // 2 workers / 2 servers / 2 shards, BSP
  base.iterations = kIters;
  const Trajectory clean = CaptureTrajectory(
      SmallTrainerOptions(base.workers, base.servers, base.shards,
                          base.staleness, base.policy),
      kIters, base.hidden_layers);
  for (uint64_t seed : ChaosSeeds(2)) {
    SCOPED_TRACE(SeedTrace(seed));
    testing::SocketClusterOptions options = base;
    options.shim.seed = seed;
    options.shim.duplicate_prob = 0.10;
    options.shim.delay_prob = 0.25;
    options.shim.delay_min_us = 10;
    options.shim.delay_max_us = 400;
    const testing::SocketClusterRun run = testing::RunSocketCluster(options);
    EXPECT_GT(run.shim.duplicates, 0) << "no duplicates injected; vacuous run";
    EXPECT_GT(run.shim.delays, 0) << "no delays injected; vacuous run";
    EXPECT_GT(run.shim.deduped, 0)
        << "duplicates never reached the wire dedup layer";
    EXPECT_TRUE(run.trajectory == clean)
        << "record weather changed the socket-cluster trajectory; "
        << FormatFaultCounters(run.shim);
  }
}

TEST(ChaosPropertyTest, SocketBackendDropsConvergeToTheCleanParameters) {
  testing::SocketClusterOptions base;
  base.iterations = kIters;
  const Trajectory clean = CaptureTrajectory(
      SmallTrainerOptions(base.workers, base.servers, base.shards,
                          base.staleness, base.policy),
      kIters, base.hidden_layers);
  for (uint64_t seed : ChaosSeeds(2)) {
    SCOPED_TRACE(SeedTrace(seed));
    testing::SocketClusterOptions options = base;
    options.shim.seed = seed;
    options.shim.drop_prob = 0.05;
    options.shim.retransmit_timeout_us = 100;
    const testing::SocketClusterRun run = testing::RunSocketCluster(options);
    EXPECT_GT(run.shim.drops, 0) << "no losses injected; vacuous run";
    EXPECT_GE(run.shim.retransmits, run.shim.drops);
    EXPECT_EQ(run.trajectory.final_params, clean.final_params)
        << FormatFaultCounters(run.shim);
  }
}

TEST(ChaosPropertyTest, PartitionStallsThenHealsWithoutDivergence) {
  // Cut worker/server node 1 off from node 0 mid-run; the link layer parks
  // traffic, BSP stalls, and on heal the run completes on the clean
  // trajectory (late delivery, same bytes).
  const Trajectory clean = CaptureTrajectory(SmallTrainerOptions(), kIters);

  const SyntheticDataset dataset = testing::TinyDataset();
  TrainerOptions options = SmallTrainerOptions();
  options.enable_faults = true;  // partitions only; no probabilistic weather
  PoseidonTrainer trainer(testing::TinyMlpFactory(), options);
  trainer.bus().Partition(0, 1);
  std::thread healer([&trainer] {
    // Heal only after the cut provably parked live traffic (condition wait
    // on the pump): the test can neither race the first hold nor be vacuous.
    EXPECT_TRUE(trainer.bus().AwaitPartitionHolds(1, /*timeout_ms=*/20000))
        << "partitioned traffic never reached the fabric";
    trainer.bus().HealPartitions();
  });
  trainer.Train(dataset, kIters);
  healer.join();
  trainer.bus().FlushFaults();
  EXPECT_GT(trainer.bus().FaultCounts().partition_holds, 0)
      << "the partition never touched live traffic; vacuous run";
  EXPECT_EQ(testing::AllParams(trainer.worker_net(0)), clean.final_params);
}

}  // namespace
}  // namespace poseidon

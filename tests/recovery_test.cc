// Crash-recovery protocol tests: kill a worker mid-iteration, let the
// heartbeat failure detector notice, restart from the latest checkpoint,
// replay the in-flight clock, and verify exactly-once application on every
// shard plus (under BSP) bitwise-correct final parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/poseidon/failure_detector.h"
#include "src/poseidon/trainer.h"
#include "src/transport/bus.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace {

using testing::AllParams;
using testing::SmallTrainerOptions;
using testing::TinyDataset;
using testing::TinyMlpFactory;

constexpr int kIters = 10;

TrainerOptions RecoveryOptions(int staleness = 0) {
  TrainerOptions options =
      SmallTrainerOptions(/*workers=*/3, /*servers=*/2, /*shards=*/2, staleness);
  options.failure_detection.enabled = true;
  options.failure_detection.heartbeat_interval_ms = 5;
  options.failure_detection.suspect_after_ms = 100;
  options.checkpoint_dir = ::testing::TempDir();
  options.checkpoint_every = 1;  // bitwise recovery needs the k-1 snapshot
  return options;
}

/// Shard-side exactly-once accounting: every owned layer applied one
/// aggregate per clock — no more (despite replayed pushes), no fewer.
void ExpectExactlyOnceApplies(const PoseidonTrainer& trainer, int num_servers,
                              int iterations) {
  for (int s = 0; s < num_servers; ++s) {
    EXPECT_EQ(trainer.server(s).applies(),
              static_cast<int64_t>(trainer.server(s).owned_layers()) * iterations)
        << "server " << s << " applied an aggregate zero or multiple times";
  }
}

int64_t TotalReconciled(const PoseidonTrainer& trainer, int num_servers) {
  int64_t total = 0;
  for (int s = 0; s < num_servers; ++s) {
    total += trainer.server(s).reconciled_pushes();
  }
  return total;
}

TEST(RecoveryTest, CrashMidBackwardRecoversBitwise) {
  // Worker 1 dies during iteration 5 after pushing only its top layers: the
  // worst window (shards hold a partial clock). The replay must complete the
  // clock with bit-identical recomputed gradients.
  const SyntheticDataset dataset = TinyDataset();

  TrainerOptions clean_options = SmallTrainerOptions(/*workers=*/3, /*servers=*/2,
                                                     /*shards=*/2, /*staleness=*/0);
  PoseidonTrainer clean(TinyMlpFactory(), clean_options);
  clean.Train(dataset, kIters);
  const std::vector<float> clean_params = AllParams(clean.worker_net(0));

  TrainerOptions options = RecoveryOptions();
  options.crash = CrashPlan{/*worker=*/1, /*iter=*/5, /*layers_before_crash=*/2};
  PoseidonTrainer trainer(TinyMlpFactory(), options);
  const auto stats = trainer.Train(dataset, kIters);
  EXPECT_EQ(trainer.next_iter(), kIters);
  EXPECT_EQ(trainer.recoveries(), 1);
  ASSERT_NE(trainer.failure_detector(), nullptr);
  EXPECT_EQ(trainer.failure_detector()->suspicions(1), 1);
  EXPECT_FALSE(trainer.failure_detector()->suspected(1)) << "recovery never cleared";

  // Every replica — including the restarted one — must land on the clean
  // parameters, bit for bit.
  EXPECT_EQ(AllParams(trainer.worker_net(0)), clean_params);
  EXPECT_EQ(AllParams(trainer.worker_net(1)), clean_params)
      << "the restarted worker diverged";
  ExpectExactlyOnceApplies(trainer, options.num_servers, kIters);
  EXPECT_GT(TotalReconciled(trainer, options.num_servers), 0)
      << "the replay never re-pushed anything the shards had seen; the crash "
         "window was vacuous";
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
}

TEST(RecoveryTest, CrashAfterFullSendRecoversBitwise) {
  // The other window: every push of the in-flight clock already left the
  // process; the crash lands between send and receive. The whole replayed
  // clock reconciles (every push is a duplicate) and the restarted worker
  // re-earns its replies.
  const SyntheticDataset dataset = TinyDataset();

  TrainerOptions clean_options = SmallTrainerOptions(/*workers=*/3, /*servers=*/2,
                                                     /*shards=*/2, /*staleness=*/0);
  PoseidonTrainer clean(TinyMlpFactory(), clean_options);
  clean.Train(dataset, kIters);
  const std::vector<float> clean_params = AllParams(clean.worker_net(0));

  TrainerOptions options = RecoveryOptions();
  options.crash = CrashPlan{/*worker=*/2, /*iter=*/4, /*layers_before_crash=*/1000};
  PoseidonTrainer trainer(TinyMlpFactory(), options);
  trainer.Train(dataset, kIters);
  EXPECT_EQ(trainer.recoveries(), 1);
  EXPECT_EQ(AllParams(trainer.worker_net(0)), clean_params);
  EXPECT_EQ(AllParams(trainer.worker_net(2)), clean_params);
  ExpectExactlyOnceApplies(trainer, options.num_servers, kIters);
  EXPECT_GT(TotalReconciled(trainer, options.num_servers), 0);
}

TEST(RecoveryTest, CrashBeforeAnyPushRecoversBitwise) {
  // Degenerate window: the worker dies before pushing anything, so the
  // replay is the first (and only) push of its in-flight clock.
  const SyntheticDataset dataset = TinyDataset();

  TrainerOptions clean_options = SmallTrainerOptions(/*workers=*/3, /*servers=*/2,
                                                     /*shards=*/2, /*staleness=*/0);
  PoseidonTrainer clean(TinyMlpFactory(), clean_options);
  clean.Train(dataset, kIters);
  const std::vector<float> clean_params = AllParams(clean.worker_net(0));

  TrainerOptions options = RecoveryOptions();
  options.crash = CrashPlan{/*worker=*/1, /*iter=*/7, /*layers_before_crash=*/0};
  PoseidonTrainer trainer(TinyMlpFactory(), options);
  trainer.Train(dataset, kIters);
  EXPECT_EQ(trainer.recoveries(), 1);
  EXPECT_EQ(AllParams(trainer.worker_net(1)), clean_params);
  ExpectExactlyOnceApplies(trainer, options.num_servers, kIters);
}

TEST(RecoveryTest, CrashOnTheMonitorNodeKeepsDetectionAlive) {
  // Worker 0 shares its node with the coordinator's monitor mailbox. Its
  // death fences only the worker process's data endpoints — liveness
  // monitoring (and therefore its own recovery) must survive.
  const SyntheticDataset dataset = TinyDataset();

  TrainerOptions clean_options = SmallTrainerOptions(/*workers=*/3, /*servers=*/2,
                                                     /*shards=*/2, /*staleness=*/0);
  PoseidonTrainer clean(TinyMlpFactory(), clean_options);
  clean.Train(dataset, kIters);
  const std::vector<float> clean_params = AllParams(clean.worker_net(0));

  TrainerOptions options = RecoveryOptions();
  options.crash = CrashPlan{/*worker=*/0, /*iter=*/5, /*layers_before_crash=*/2};
  PoseidonTrainer trainer(TinyMlpFactory(), options);
  trainer.Train(dataset, kIters);
  EXPECT_EQ(trainer.recoveries(), 1)
      << "killing the monitor-node worker took the failure detector down";
  EXPECT_EQ(AllParams(trainer.worker_net(0)), clean_params);
  ExpectExactlyOnceApplies(trainer, options.num_servers, kIters);
}

TEST(RecoveryTest, RestartDuringSspCatchesUpWithinTheBound) {
  // Under s = 2 the survivors run ahead while worker 1 is down; the restart
  // replays its in-flight clock and catches up. The SSP invariants must hold
  // over the whole run — crash, gap, and catch-up included — and every
  // aggregate still applies exactly once.
  const SyntheticDataset dataset = TinyDataset();
  TrainerOptions options = RecoveryOptions(/*staleness=*/2);
  options.crash = CrashPlan{/*worker=*/1, /*iter=*/5, /*layers_before_crash=*/2};
  PoseidonTrainer trainer(TinyMlpFactory(), options);
  const auto stats = trainer.Train(dataset, 12);
  EXPECT_EQ(trainer.recoveries(), 1);
  EXPECT_EQ(trainer.next_iter(), 12);
  for (int s = 0; s < options.num_servers; ++s) {
    EXPECT_LE(trainer.server(s).max_reply_gap(), options.staleness)
        << "recovery broke the SSP staleness bound";
    EXPECT_LE(trainer.server(s).max_push_lead(), options.staleness + 1)
        << "a worker overran the SSP lead bound during the outage";
  }
  ExpectExactlyOnceApplies(trainer, options.num_servers, 12);
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
}

TEST(RecoveryTest, RecoveryComposesWithTransportChaos) {
  // Crash + restart while the network itself drops, duplicates and reorders:
  // transport dedup handles the weather, shard reconciliation handles the
  // replay, and the two layers must not confuse each other. BSP stays
  // bitwise correct.
  const SyntheticDataset dataset = TinyDataset();

  TrainerOptions clean_options = SmallTrainerOptions(/*workers=*/3, /*servers=*/2,
                                                     /*shards=*/2, /*staleness=*/0);
  PoseidonTrainer clean(TinyMlpFactory(), clean_options);
  clean.Train(dataset, kIters);
  const std::vector<float> clean_params = AllParams(clean.worker_net(0));

  TrainerOptions options = RecoveryOptions();
  options.crash = CrashPlan{/*worker=*/1, /*iter=*/5, /*layers_before_crash=*/2};
  options.fault_plan.seed = testing::ChaosSeeds(1)[0];
  options.fault_plan.duplicate_prob = 0.1;
  options.fault_plan.delay_prob = 0.2;
  options.fault_plan.delay_max_us = 200;
  options.fault_plan.drop_prob = 0.02;
  options.fault_plan.retransmit_timeout_us = 100;
  // Delays must stay well under the suspicion deadline or the detector
  // false-positives on live workers (the documented trade-off).
  PoseidonTrainer trainer(TinyMlpFactory(), options);
  trainer.Train(dataset, kIters);
  EXPECT_EQ(trainer.recoveries(), 1);
  EXPECT_EQ(AllParams(trainer.worker_net(0)), clean_params);
  EXPECT_EQ(AllParams(trainer.worker_net(1)), clean_params);
  ExpectExactlyOnceApplies(trainer, options.num_servers, kIters);
}

// ------------------------------------------------------- failure detector --

// Only the KV path reconciles a replayed clock, so the trainer refuses
// failure recovery over peer-to-peer layers at construction instead of
// failing after the restart.
TEST(RecoveryTest, RejectsRingPlan) {
  // A restarted worker would abort on its peers' next-iteration hops.
  TrainerOptions options = RecoveryOptions();
  options.crash = CrashPlan{/*worker=*/1, /*iter=*/5, /*layers_before_crash=*/2};
  options.fc_policy = PlanPolicy::kRingAllreduce;
  EXPECT_DEATH(PoseidonTrainer(TinyMlpFactory(), options),
               "failure recovery covers KV-path layers only.*planned Ring");
}

TEST(RecoveryTest, RejectsSfbPlan) {
  // A restarted worker would wait forever for the SFs its peers sent to the
  // fenced mailbox.
  TrainerOptions options = RecoveryOptions();
  options.crash = CrashPlan{/*worker=*/1, /*iter=*/5, /*layers_before_crash=*/2};
  options.fc_policy = PlanPolicy::kSfb;
  EXPECT_DEATH(PoseidonTrainer(TinyMlpFactory(), options),
               "failure recovery covers KV-path layers only.*planned SFB");
}

TEST(FailureDetectorTest, SuspectsSilentWorkerOncePerEpisode) {
  MessageBus bus(2);
  FailureDetectorOptions options;
  options.enabled = true;
  options.heartbeat_interval_ms = 5;
  options.suspect_after_ms = 60;

  std::mutex mutex;
  std::condition_variable cv;
  int suspected_worker = -1;
  int callbacks = 0;
  FailureDetector detector(&bus, /*num_workers=*/2, options, [&](int w) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      suspected_worker = w;
      ++callbacks;
    }
    cv.notify_all();
  });
  detector.Start();
  HeartbeatTicker ticker0(0, &bus, options);
  HeartbeatTicker ticker1(1, &bus, options);

  // "A couple of suspicion deadlines elapsed" counted in completed detector
  // scans rather than wall-clock sleeps, so a stalled CI box can never
  // undercut the negative assertions below.
  const int64_t scans_per_deadline =
      options.suspect_after_ms / std::max(1, options.heartbeat_interval_ms / 2);
  auto await_deadlines = [&](int n) {
    return detector.AwaitScans(n * scans_per_deadline, /*timeout_ms=*/30000);
  };

  // Both beating: nobody suspected across a couple of deadlines.
  ASSERT_TRUE(await_deadlines(2));
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(callbacks, 0);
  }

  ticker1.Stop();  // worker 1 "dies"
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return callbacks > 0; }))
        << "silent worker never suspected";
    EXPECT_EQ(callbacks, 1);
    EXPECT_EQ(suspected_worker, 1);
  }
  EXPECT_TRUE(detector.suspected(1));
  EXPECT_FALSE(detector.suspected(0)) << "live worker wrongly suspected";

  // Exactly one callback per episode, even while the worker stays dead.
  ASSERT_TRUE(await_deadlines(2));
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(callbacks, 1);
  }

  // Recovery: resume beats, clear the suspicion; no further callbacks.
  ticker1.Resume();
  detector.NotifyRecovered(1);
  ASSERT_TRUE(await_deadlines(2));
  EXPECT_FALSE(detector.suspected(1));
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(callbacks, 1);
  }
  EXPECT_EQ(detector.suspicions(1), 1);
}

}  // namespace
}  // namespace poseidon

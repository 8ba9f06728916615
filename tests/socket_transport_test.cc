// The socket transport, tested at two levels in one process:
//
//  1. Transport-level pairs (tests/testing/socket_pair.h): two MessageBus +
//     SocketTransport instances over real loopback TCP / Unix sockets —
//     control records, data-path field and payload fidelity, receiver-side
//     send_ns restamping, record counters, Flush semantics, and the PR-4
//     sequencer properties (dedup, in-order release, retransmit-on-drop)
//     under the record-level lossy shim.
//
//  2. Cluster-level conformance: a full worker/server/shard cluster whose
//     members run as threads but talk exclusively over sockets
//     (tests/testing/socket_cluster.h) must follow a bitwise-identical
//     parameter trajectory to the in-process CaptureTrajectory oracle, for
//     BSP and for sharded SSP s=0, clean and under socket weather; and a
//     cluster member refuses plans its sockets cannot carry.
//
// True fork/exec clusters are covered by tests/multiprocess_trajectory_test.cc
// through tools/poseidon_launch.
#include "src/transport/socket_transport.h"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/poseidon/cluster_node.h"
#include "src/transport/bus.h"
#include "src/transport/codec.h"
#include "src/transport/wire_format.h"
#include "tests/testing/harness.h"
#include "tests/testing/socket_cluster.h"
#include "tests/testing/socket_pair.h"

namespace poseidon {
namespace {

using testing::CaptureTrajectory;
using testing::ControlEvent;
using testing::RunSocketCluster;
using testing::SeedTrace;
using testing::SmallTrainerOptions;
using testing::SocketBusPair;
using testing::SocketClusterOptions;
using testing::SocketClusterRun;
using testing::Trajectory;

// A deterministic raw-float data message, node 0 -> node 1.
Message MakeDataMessage(int64_t iter) {
  Message m;
  m.type = MessageType::kGradPush;
  m.codec = WireCodec::kRawFloat;
  m.from = Address{0, kSyncerPortBase + 1};
  m.to = Address{1, kServerPort};
  m.layer = 1;
  m.worker = 0;
  m.iter = iter;
  std::vector<float> values;
  for (int i = 0; i < 5; ++i) {
    values.push_back(static_cast<float>(iter) + static_cast<float>(i) * 0.5f);
  }
  Payload slab = RawFloatCodec::Encode(values.data(),
                                       static_cast<int64_t>(values.size()));
  m.chunks.push_back(WireChunk{iter * 8, slab.View()});
  return m;
}

// --------------------------------------------------- transport-level tests --

TEST(SocketTransportTest, ControlRecordsIncludingSelfDelivery) {
  SocketBusPair pair(/*unix_sockets=*/false);
  ASSERT_TRUE(pair.transport(0).SendControl(1, 41, {1, 2, 3}).ok());
  ASSERT_TRUE(pair.transport(1).SendControl(0, 42).ok());
  // To self: delivered inline, no socket round trip.
  ASSERT_TRUE(pair.transport(0).SendControl(0, 43, {9}).ok());

  ASSERT_TRUE(pair.AwaitControl(1, 1));
  ASSERT_TRUE(pair.AwaitControl(0, 2));
  const auto at1 = pair.control(1);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(at1[0].src, 0);
  EXPECT_EQ(at1[0].opcode, 41);
  EXPECT_EQ(at1[0].body, (std::vector<uint8_t>{1, 2, 3}));
  for (const ControlEvent& event : pair.control(0)) {
    if (event.opcode == 42) {
      EXPECT_EQ(event.src, 1);
      EXPECT_TRUE(event.body.empty());
    } else {
      EXPECT_EQ(event.opcode, 43);
      EXPECT_EQ(event.src, 0);
      EXPECT_EQ(event.body, std::vector<uint8_t>{9});
    }
  }
}

TEST(SocketTransportTest, DataPathPreservesEveryFieldAndPayloadBit) {
  SocketBusPair pair(/*unix_sockets=*/false);
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});

  const Message sent = MakeDataMessage(3);
  ASSERT_TRUE(pair.bus(0).Send(sent).ok());

  std::optional<Message> got = mailbox->Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(static_cast<int>(got->type), static_cast<int>(sent.type));
  EXPECT_EQ(static_cast<int>(got->codec), static_cast<int>(sent.codec));
  EXPECT_TRUE(got->from == sent.from);
  EXPECT_TRUE(got->to == sent.to);
  EXPECT_EQ(got->layer, sent.layer);
  EXPECT_EQ(got->worker, sent.worker);
  EXPECT_EQ(got->iter, sent.iter);
  EXPECT_EQ(got->step, sent.step);
  EXPECT_EQ(got->seq, 0) << "first message of the stream";
  ASSERT_EQ(got->chunks.size(), sent.chunks.size());
  EXPECT_EQ(got->chunks[0].offset, sent.chunks[0].offset);
  ASSERT_EQ(got->chunks[0].view.size(), sent.chunks[0].view.size());
  EXPECT_EQ(std::memcmp(got->chunks[0].view.data(), sent.chunks[0].view.data(),
                        static_cast<size_t>(sent.chunks[0].view.size()) * 4),
            0);
  // Without receiver-side link stats the stamp stays zero: a sender stamp
  // must never leak across (steady clocks of two processes are unrelated).
  EXPECT_EQ(got->send_ns, 0);

  EXPECT_GE(pair.transport(0).records_sent(), 1);
  EXPECT_GE(pair.transport(1).records_received(), 1);
  EXPECT_GE(pair.transport(0).bytes_sent(),
            sent.WireBytes() + kSocketRecordHeaderBytes);
  EXPECT_EQ(pair.transport(1).bytes_received(), pair.transport(0).bytes_sent());
}

TEST(SocketTransportTest, SendNsIsRestampedOnTheReceiversClock) {
  SocketBusPair pair(/*unix_sockets=*/false);
  pair.bus(1).EnableLinkStats();
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});
  ASSERT_TRUE(pair.bus(0).Send(MakeDataMessage(0)).ok());
  std::optional<Message> got = mailbox->Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_GT(got->send_ns, 0)
      << "ingress must restamp so latency is measured on one clock";
}

TEST(SocketTransportTest, UnixSocketsCarryTheSameFrames) {
  SocketBusPair pair(/*unix_sockets=*/true);
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});
  for (int64_t iter = 0; iter < 4; ++iter) {
    ASSERT_TRUE(pair.bus(0).Send(MakeDataMessage(iter)).ok());
  }
  for (int64_t iter = 0; iter < 4; ++iter) {
    std::optional<Message> got = mailbox->Pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->iter, iter) << "per-stream FIFO over AF_UNIX";
    EXPECT_EQ(got->seq, iter);
  }
}

TEST(SocketTransportTest, ShutdownRidesUnsequenced) {
  SocketBusPair pair(/*unix_sockets=*/false);
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});
  Message m = MakeDataMessage(0);
  m.type = MessageType::kShutdown;
  m.chunks.clear();
  ASSERT_TRUE(pair.bus(0).Send(m).ok());
  std::optional<Message> got = mailbox->Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(static_cast<int>(got->type),
            static_cast<int>(MessageType::kShutdown));
  EXPECT_EQ(got->seq, -1) << "kShutdown is exempt from wire sequencing";
}

TEST(SocketTransportTest, LossyShimDeliversExactlyOnceInOrder) {
  // Real socket chaos: the shim drops (with retransmit), duplicates and
  // delays egress records. The receiving bus's reorder buffer must hand the
  // consumer every message exactly once, in stream order — the PR-4
  // sequencer properties over genuine socket weather.
  constexpr int kMessages = 300;
  FaultPlan shim;
  shim.seed = 7;
  shim.drop_prob = 0.15;
  shim.duplicate_prob = 0.10;
  shim.delay_prob = 0.20;
  SocketBusPair pair(/*unix_sockets=*/false, shim);
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});

  for (int64_t iter = 0; iter < kMessages; ++iter) {
    ASSERT_TRUE(pair.bus(0).Send(MakeDataMessage(iter)).ok());
  }
  for (int64_t iter = 0; iter < kMessages; ++iter) {
    std::optional<Message> got = mailbox->Pop();
    ASSERT_TRUE(got.has_value()) << "lost message " << iter;
    EXPECT_EQ(got->iter, iter) << "released out of order";
    EXPECT_EQ(got->seq, iter);
    ASSERT_EQ(got->chunks.size(), 1u);
    const Message want = MakeDataMessage(iter);
    ASSERT_EQ(got->chunks[0].view.size(), want.chunks[0].view.size());
    EXPECT_EQ(std::memcmp(got->chunks[0].view.data(),
                          want.chunks[0].view.data(),
                          static_cast<size_t>(want.chunks[0].view.size()) * 4),
              0);
  }
  // Counter assertions only after a stream barrier: late duplicates and
  // retransmitted copies must have been processed by the receiver first.
  pair.Barrier(0, 1);

  const FaultCountersSnapshot shim_counters = pair.transport(0).ShimCounters();
  EXPECT_GT(shim_counters.drops, 0) << "shim never dropped — test is vacuous";
  EXPECT_GE(shim_counters.retransmits, shim_counters.drops)
      << "every dropped record must be retransmitted";
  EXPECT_GT(shim_counters.duplicates, 0);
  EXPECT_GT(shim_counters.delays, 0);
  const FaultCountersSnapshot wire = pair.bus(1).WireCounters();
  EXPECT_GT(wire.deduped, 0)
      << "duplicated records must be swallowed by the reorder buffer";
  EXPECT_FALSE(mailbox->TryPop().has_value()) << "a duplicate leaked through";
}

TEST(SocketTransportTest, MalformedDataRecordDoesNotCrashTheReceiver) {
  // A data record whose body is not a valid frame must surface as a Status
  // inside the poll thread (logged, connection preserved for the sender's
  // next valid record), never a crash. We can't inject raw bytes through the
  // public API, so exercise the bus half directly: DeliverWire on garbage.
  SocketBusPair pair(/*unix_sockets=*/false);
  const std::vector<uint8_t> garbage(48, 0xEE);
  EXPECT_FALSE(
      pair.bus(1)
          .DeliverWire(garbage.data(), static_cast<int64_t>(garbage.size()))
          .ok());
}

// ---------------------------------------------- cluster-level conformance --

// Exact-trajectory comparison with a payload that explains the divergence.
void ExpectSameTrajectory(const Trajectory& got, const Trajectory& want) {
  ASSERT_EQ(got.mean_losses.size(), want.mean_losses.size());
  for (size_t i = 0; i < want.mean_losses.size(); ++i) {
    EXPECT_EQ(got.mean_losses[i], want.mean_losses[i])
        << "mean loss diverged at iteration " << i;
  }
  ASSERT_EQ(got.final_params.size(), want.final_params.size());
  int mismatches = 0;
  for (size_t i = 0; i < want.final_params.size(); ++i) {
    if (std::memcmp(&got.final_params[i], &want.final_params[i], 4) != 0) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << "final parameters differ in " << mismatches
                           << " of " << want.final_params.size() << " floats";
}

Trajectory Oracle(const SocketClusterOptions& options) {
  return CaptureTrajectory(
      SmallTrainerOptions(options.workers, options.servers, options.shards,
                          options.staleness, options.policy),
      options.iterations, options.hidden_layers);
}

TEST(SocketClusterConformanceTest, TcpBspMatchesInProcessTrajectoryBitwise) {
  SocketClusterOptions options;  // 2 workers, 2 servers, 2 shards, BSP dense
  const SocketClusterRun run = RunSocketCluster(options);
  ExpectSameTrajectory(run.trajectory, Oracle(options));
}

TEST(SocketClusterConformanceTest, ShardedSspS0MatchesInProcessTrajectory) {
  SocketClusterOptions options;
  options.shards = 4;
  options.staleness = 0;  // SSP with s=0 must stay bitwise BSP
  const SocketClusterRun run = RunSocketCluster(options);
  ExpectSameTrajectory(run.trajectory, Oracle(options));
}

TEST(SocketClusterConformanceTest, UnixColocatedClusterMatchesTrajectory) {
  SocketClusterOptions options;
  options.unix_sockets = true;
  options.colocate = true;  // worker n and server n share bus node n
  const SocketClusterRun run = RunSocketCluster(options);
  ExpectSameTrajectory(run.trajectory, Oracle(options));
}

TEST(SocketClusterConformanceTest, BatchedEgressMatchesTrajectory) {
  SocketClusterOptions options;
  options.batch_egress = true;  // PR-3 batcher cutting real batch frames
  const SocketClusterRun run = RunSocketCluster(options);
  ExpectSameTrajectory(run.trajectory, Oracle(options));
}

TEST(SocketClusterConformanceTest, SocketWeatherNeverChangesTheTrajectory) {
  // The paper's determinism claim over a lossy wire: drops, duplicates and
  // delays at the record layer must be invisible to training.
  SocketClusterOptions clean;
  const Trajectory oracle = Oracle(clean);
  for (uint64_t seed : testing::ChaosSeeds(2)) {
    SCOPED_TRACE(SeedTrace(seed));
    SocketClusterOptions lossy = clean;
    lossy.shim.seed = seed;
    lossy.shim.drop_prob = 0.05;
    lossy.shim.duplicate_prob = 0.05;
    lossy.shim.delay_prob = 0.10;
    const SocketClusterRun run = RunSocketCluster(lossy);
    ExpectSameTrajectory(run.trajectory, oracle);
    EXPECT_GT(run.shim.drops + run.shim.duplicates + run.shim.delays, 0)
        << "no weather was injected — the lossy run proved nothing";
    EXPECT_GE(run.shim.retransmits, run.shim.drops);
  }
}

// The wire format decodes no codec id past the sufficient-factor frame, so
// fp16/int8/top-k pushes would be rejected on the far side; and only the
// paper plan is resolved identically by every process. A member must refuse
// both at construction instead of ignoring them.
TEST(ClusterNodeDeathTest, RejectsPlansSocketsCannotCarry) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ClusterNodeConfig config;
  config.trainer = testing::SmallTrainerOptions(2, 2, 1);
  config.trainer.ps_compression = PlanCodecPolicy::kFp16;
  EXPECT_DEATH(ClusterNode{config}, "compressed pushes cannot cross processes");

  config.trainer.ps_compression = PlanCodecPolicy::kNone;
  config.trainer.plan_mode = TrainerPlanMode::kAuto;
  EXPECT_DEATH(ClusterNode{config}, "paper-mode plan");
}

}  // namespace
}  // namespace poseidon

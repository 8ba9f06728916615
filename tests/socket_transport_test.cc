// The socket transport, tested at two levels in one process:
//
//  1. Transport-level pairs (tests/testing/socket_pair.h): two MessageBus +
//     SocketTransport instances over real loopback TCP / Unix sockets —
//     control records, data-path field and payload fidelity, receiver-side
//     send_ns restamping, record counters, Flush semantics, record
//     reassembly against split and corrupt byte streams, and the sequencer
//     properties (dedup, in-order release, retransmit-on-drop, partition
//     parking) under the bus's fault fabric weathering socket frames.
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

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
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

// How long a test waits for one expected message: a lost message fails the
// test instead of hanging the binary.
constexpr std::chrono::seconds kPopDeadline(5);

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

  std::optional<Message> got = mailbox->PopFor(kPopDeadline);
  ASSERT_TRUE(got.has_value()) << "the message never arrived";
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
  std::optional<Message> got = mailbox->PopFor(kPopDeadline);
  ASSERT_TRUE(got.has_value()) << "the message never arrived";
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
    std::optional<Message> got = mailbox->PopFor(kPopDeadline);
    ASSERT_TRUE(got.has_value()) << "message " << iter << " never arrived";
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
  std::optional<Message> got = mailbox->PopFor(kPopDeadline);
  ASSERT_TRUE(got.has_value()) << "the shutdown never arrived";
  EXPECT_EQ(static_cast<int>(got->type),
            static_cast<int>(MessageType::kShutdown));
  EXPECT_EQ(got->seq, -1) << "kShutdown is exempt from wire sequencing";
}

TEST(SocketTransportTest, LossyShimDeliversExactlyOnceInOrder) {
  // Real socket chaos: the sending bus's fault fabric drops (with
  // retransmit), duplicates and delays the frames it ships. The receiving
  // bus's reorder buffer must hand the consumer every message exactly once,
  // in stream order — the sequencer properties over genuine socket weather.
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
    std::optional<Message> got = mailbox->PopFor(kPopDeadline);
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

  const FaultCountersSnapshot shim_counters = pair.bus(0).FaultCounts();
  EXPECT_GT(shim_counters.drops, 0) << "shim never dropped — test is vacuous";
  EXPECT_GE(shim_counters.retransmits, shim_counters.drops)
      << "every dropped record must be retransmitted";
  EXPECT_GT(shim_counters.duplicates, 0);
  EXPECT_GT(shim_counters.delays, 0);
  const FaultCountersSnapshot wire = pair.bus(1).FaultCounts();
  EXPECT_GT(wire.deduped, 0)
      << "duplicated records must be swallowed by the reorder buffer";
  EXPECT_FALSE(mailbox->TryPop().has_value()) << "a duplicate leaked through";
}

TEST(SocketTransportTest, PartitionParksSocketFramesUntilTheHeal) {
  // The fault fabric composes with an attached transport (enabled after
  // AttachTransport here; ClusterNode enables it before): a partition parks
  // frames bound for the socket, and on heal the parked frames replay while
  // fresh ones overtake them. The receiving bus must still hand the consumer
  // every message exactly once and in per-stream order.
  SocketBusPair pair(/*unix_sockets=*/false);
  pair.bus(0).EnableFaultInjection(FaultPlan{});  // partitions only
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});
  pair.bus(0).Partition(0, 1);

  constexpr int kPerStream = 60;
  constexpr int kStreams = 2;
  std::thread sender([&pair] {
    for (int64_t iter = 0; iter < kPerStream; ++iter) {
      for (int stream = 0; stream < kStreams; ++stream) {
        Message m = MakeDataMessage(iter);
        m.from.port = kSyncerPortBase + stream;
        EXPECT_TRUE(pair.bus(0).Send(std::move(m)).ok());
      }
    }
  });
  ASSERT_TRUE(pair.bus(0).AwaitPartitionHolds(kPerStream / 2, /*timeout_ms=*/20000))
      << "partitioned frames never reached the fabric";
  EXPECT_FALSE(mailbox->TryPop().has_value()) << "a frame crossed the partition";
  pair.bus(0).HealPartitions();
  sender.join();

  int64_t next[kStreams] = {0, 0};
  for (int i = 0; i < kPerStream * kStreams; ++i) {
    std::optional<Message> got = mailbox->PopFor(std::chrono::seconds(20));
    ASSERT_TRUE(got.has_value()) << "lost message " << i;
    const int stream = got->from.port - kSyncerPortBase;
    ASSERT_GE(stream, 0);
    ASSERT_LT(stream, kStreams);
    EXPECT_EQ(got->iter, next[stream]) << "stream " << stream << " released out of order";
    EXPECT_EQ(got->seq, next[stream]);
    ++next[stream];
  }
  pair.Barrier(0, 1);
  EXPECT_FALSE(mailbox->TryPop().has_value()) << "a message arrived twice";
  EXPECT_GE(pair.bus(0).FaultCounts().partition_holds, kPerStream / 2);
}

// ------------------------------------------------ raw-stream reassembly ----
// A raw TCP client stands in for a peer process, so the poll thread's record
// reassembly sees exactly the bytes a test chooses: records split at any
// byte, and headers a real peer would never write.

// One stream record: [u32 body bytes][u8 version][u8 kind][u16 src] + body.
std::vector<uint8_t> RawRecord(uint8_t kind, const std::vector<uint8_t>& body) {
  std::vector<uint8_t> record(kSocketRecordHeaderBytes);
  const uint32_t len = static_cast<uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) {
    record[static_cast<size_t>(i)] = static_cast<uint8_t>(len >> (8 * i));
  }
  record[4] = kSocketRecordVersion;
  record[5] = kind;
  record[6] = 0;  // src process 0
  record[7] = 0;
  record.insert(record.end(), body.begin(), body.end());
  return record;
}

// A kData record carrying MakeDataMessage(iter), stamped as the bus would:
// one stream, seq == iter.
std::vector<uint8_t> ValidDataRecord(int64_t iter) {
  Message m = MakeDataMessage(iter);
  m.seq = iter;
  return RawRecord(static_cast<uint8_t>(SocketRecordKind::kData), EncodeMessageFrame(m));
}

int ConnectRaw(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  CHECK_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  CHECK_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  CHECK_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

// Writes `bytes` in seeded random pieces of 1..40 bytes, pausing between
// pieces so the receiver's reads see the splits. Stops quietly once the
// receiver has dropped the connection.
void WriteSplit(int fd, const std::vector<uint8_t>& bytes, Rng& rng) {
  size_t at = 0;
  while (at < bytes.size()) {
    const size_t piece = 1 + static_cast<size_t>(
                                 rng.NextBounded(std::min<uint64_t>(bytes.size() - at, 40)));
    if (send(fd, bytes.data() + at, piece, MSG_NOSIGNAL) != static_cast<ssize_t>(piece)) {
      return;
    }
    at += piece;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

// True once the receiver has closed the connection (it never writes on an
// accepted connection, so any readability is EOF or a reset).
bool AwaitDropped(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  if (poll(&p, 1, timeout_ms) <= 0) {
    return false;
  }
  uint8_t byte = 0;
  return recv(fd, &byte, 1, 0) <= 0;
}

TEST(SocketTransportTest, RecordReassemblySurvivesSplitAndCorruptStreams) {
  SocketBusPair pair(/*unix_sockets=*/false);
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});
  const int port = pair.transport(1).listen_port();
  int64_t next_iter = 0;  // the one stream's next sequence number
  int64_t records = 0;    // records the receiver must have parsed
  // Pops the next `count` records of the stream; false if one never comes.
  auto delivered = [&](int count) {
    for (int i = 0; i < count; ++i, ++next_iter) {
      std::optional<Message> got = mailbox->PopFor(std::chrono::seconds(10));
      if (!got.has_value()) {
        ADD_FAILURE() << "lost record " << next_iter;
        return false;
      }
      EXPECT_EQ(got->iter, next_iter) << "delivered out of order";
      EXPECT_EQ(got->seq, next_iter);
    }
    return true;
  };

  for (uint64_t seed : testing::ChaosSeeds(2)) {
    SCOPED_TRACE(SeedTrace(seed));
    Rng rng(seed);
    // Valid records split at random byte boundaries, with one data record
    // whose body is not a frame among them: it is refused by DeliverWire and
    // logged, and the connection carries on.
    constexpr int kValid = 24;
    std::vector<uint8_t> stream;
    for (int i = 0; i < kValid; ++i) {
      if (i == kValid / 2) {
        const std::vector<uint8_t> garbage = RawRecord(
            static_cast<uint8_t>(SocketRecordKind::kData), std::vector<uint8_t>(48, 0xEE));
        stream.insert(stream.end(), garbage.begin(), garbage.end());
      }
      const std::vector<uint8_t> record = ValidDataRecord(next_iter + i);
      stream.insert(stream.end(), record.begin(), record.end());
    }
    const int fd = ConnectRaw(port);
    WriteSplit(fd, stream, rng);
    ASSERT_TRUE(delivered(kValid));
    records += kValid + 1;
    close(fd);

    // Each corruption: three valid records, the bad one, then a valid record
    // the receiver must never reach because it drops the connection first.
    const struct {
      const char* what;
      size_t byte;
      uint8_t value;
    } corruptions[] = {{"length", 3, 0xFF},  // u32 length over max_record_bytes
                       {"version", 4, kSocketRecordVersion + 1},
                       {"kind", 5, 0x7F}};
    for (const auto& corruption : corruptions) {
      SCOPED_TRACE(corruption.what);
      std::vector<uint8_t> bytes;
      for (int i = 0; i < 3; ++i) {
        const std::vector<uint8_t> record = ValidDataRecord(next_iter + i);
        bytes.insert(bytes.end(), record.begin(), record.end());
      }
      std::vector<uint8_t> bad = ValidDataRecord(next_iter + 3);
      bad[corruption.byte] = corruption.value;
      bytes.insert(bytes.end(), bad.begin(), bad.end());
      const std::vector<uint8_t> after = ValidDataRecord(next_iter + 3);
      bytes.insert(bytes.end(), after.begin(), after.end());

      const int bad_fd = ConnectRaw(port);
      WriteSplit(bad_fd, bytes, rng);
      ASSERT_TRUE(delivered(3));
      records += 3;
      EXPECT_TRUE(AwaitDropped(bad_fd, /*timeout_ms=*/10000))
          << "the connection survived a corrupt " << corruption.what;
      // The poll thread delivers, then drops: nothing past the bad header.
      EXPECT_FALSE(mailbox->TryPop().has_value())
          << "a record behind the corrupt one was delivered";
      close(bad_fd);
    }
  }
  EXPECT_EQ(pair.transport(1).records_received(), records);
  pair.transport(1).Stop();  // returns: the poll thread survived all of it
}

TEST(SocketTransportTest, MalformedDataRecordDoesNotCrashTheReceiver) {
  // A data record whose body is not a valid frame must surface as a Status
  // inside the poll thread (logged, connection preserved for the sender's
  // next valid record), never a crash. This drives the bus half directly;
  // RecordReassemblySurvivesSplitAndCorruptStreams sends such a record
  // through a live socket.
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
  // delays of socket frames — single messages, and whole egress batches —
  // must be invisible to training.
  SocketClusterOptions clean;
  const Trajectory oracle = Oracle(clean);
  for (uint64_t seed : testing::ChaosSeeds(2)) {
    for (bool batch_egress : {false, true}) {
      SCOPED_TRACE(SeedTrace(seed) + (batch_egress ? " batched" : " unbatched"));
      SocketClusterOptions lossy = clean;
      lossy.batch_egress = batch_egress;
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
}

// A member whose Run fails after its shards started must still return and
// destruct: process 0 of 2 hosts worker 0 and server 0, and process 1's
// port never listens, so ConnectAll fails with the local shard serving.
TEST(ClusterNodeTest, FailedRunStillTearsDown) {
  const ReservedTcpPort self_port;
  const ReservedTcpPort silent_peer;  // bound, never listening
  ClusterNodeConfig config;
  config.trainer = SmallTrainerOptions(/*workers=*/2, /*servers=*/2, /*shards=*/1);
  config.trainer.fc_policy = PlanPolicy::kDense;
  config.transport.self = 0;
  config.transport.processes.resize(2);
  config.transport.processes[0].port = self_port.port();
  config.transport.processes[1].port = silent_peer.port();
  config.transport.node_owner = {0, 1};
  config.transport.connect_timeout_ms = 200;

  // On the heap and on a detached thread, so a member that never finishes
  // tearing down fails this test instead of hanging the binary.
  struct Outcome {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    Status status;
  };
  const auto outcome = std::make_shared<Outcome>();
  std::thread([config, outcome] {
    Status status;
    {
      ClusterNode member(config);
      status = member.Run();
    }
    std::lock_guard<std::mutex> lock(outcome->mutex);
    outcome->status = status;
    outcome->done = true;
    outcome->cv.notify_all();
  }).detach();
  std::unique_lock<std::mutex> lock(outcome->mutex);
  ASSERT_TRUE(outcome->cv.wait_for(lock, std::chrono::seconds(20),
                                   [&] { return outcome->done; }))
      << "the member never finished Run and its destructor";
  EXPECT_EQ(outcome->status.code(), StatusCode::kUnavailable) << outcome->status.ToString();
}

// The wire format decodes no codec id past the sufficient-factor frame, so
// int8/top-k pushes and their fp16 replies would be rejected on the far side;
// and only the paper plan is resolved identically by every process. A member
// must refuse both at construction instead of ignoring them.
TEST(ClusterNodeDeathTest, RejectsPlansSocketsCannotCarry) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ClusterNodeConfig config;
  config.trainer = testing::SmallTrainerOptions(2, 2, 1);
  config.trainer.ps_compression = PlanCodecPolicy::kInt8;
  EXPECT_DEATH(ClusterNode{config}, "compressed pushes cannot cross processes");

  config.trainer.ps_compression = PlanCodecPolicy::kNone;
  config.trainer.plan_mode = TrainerPlanMode::kAuto;
  EXPECT_DEATH(ClusterNode{config}, "paper-mode plan");
}

}  // namespace
}  // namespace poseidon

// Unit tests for the transport fault fabric: deterministic fault decisions,
// the sequencer/reorder correctness layer, and bus-level delivery under
// drops, duplicates, delays, partitions and endpoint death — on both
// carriers. One fabric (MessageBus::EnableFaultInjection) weathers each
// in-process delivery and each frame bound for a socket transport; the
// SocketBackend tests at the bottom re-prove the dedup / in-order /
// retransmit-on-drop properties over real loopback sockets.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <vector>

#include "src/transport/bus.h"
#include "src/transport/fault_injector.h"
#include "src/transport/sequencer.h"
#include "tests/testing/harness.h"
#include "tests/testing/socket_pair.h"

namespace poseidon {
namespace {

// How long a socket test waits for one expected message: a lost message
// fails the test instead of hanging the binary.
constexpr std::chrono::seconds kPopDeadline(5);

Message MakeMessage(int src, int dst, int64_t seq = -1, int layer = 0) {
  Message m;
  m.type = MessageType::kGradPush;
  m.from = Address{src, kSyncerPortBase};
  m.to = Address{dst, kServerPort};
  m.layer = layer;
  m.worker = src;
  m.iter = 0;
  m.seq = seq;
  Payload payload = Payload::Allocate(4);
  m.chunks.push_back({0, payload.View()});
  return m;
}

TEST(FaultInjectorTest, DecisionsAreDeterministicInSeedStreamSeqAttempt) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_prob = 0.3;
  plan.duplicate_prob = 0.3;
  plan.delay_prob = 0.3;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int64_t seq = 0; seq < 200; ++seq) {
    Message m = MakeMessage(0, 1, seq);
    for (int attempt = 0; attempt < 3; ++attempt) {
      const FaultDecision da = a.Decide(m, attempt);
      const FaultDecision db = b.Decide(m, attempt);
      EXPECT_EQ(da.drop, db.drop);
      EXPECT_EQ(da.duplicate, db.duplicate);
      EXPECT_EQ(da.delay_us, db.delay_us);
    }
  }
  // A different seed must give a different fault pattern.
  plan.seed = 43;
  FaultInjector c(plan);
  int differing = 0;
  for (int64_t seq = 0; seq < 200; ++seq) {
    Message m = MakeMessage(0, 1, seq);
    const FaultDecision da = a.Decide(m, 0);
    const FaultDecision dc = c.Decide(m, 0);
    if (da.drop != dc.drop || da.duplicate != dc.duplicate ||
        da.delay_us != dc.delay_us) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, ZeroProbabilitiesInjectNothing) {
  FaultPlan plan;  // all probabilities zero
  FaultInjector injector(plan);
  for (int64_t seq = 0; seq < 50; ++seq) {
    const FaultDecision d = injector.Decide(MakeMessage(0, 1, seq), 0);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.delay_us, 0);
  }
}

TEST(FaultInjectorTest, RetransmitCapForcesDeliveryEventually) {
  FaultPlan plan;
  plan.drop_prob = 1.0;  // every roll says drop...
  plan.max_transmissions = 4;
  FaultInjector injector(plan);
  const Message m = MakeMessage(0, 1, 7);
  EXPECT_TRUE(injector.Decide(m, 0).drop);
  // ...but the cap forces attempt max_transmissions - 1 through.
  EXPECT_FALSE(injector.Decide(m, plan.max_transmissions - 1).drop);
}

TEST(ReorderBufferTest, RestoresSequenceOrderAndDropsDuplicates) {
  FaultCounters counters;
  ReorderBuffer buffer(&counters);
  std::vector<Message> out;

  buffer.Admit(MakeMessage(0, 1, /*seq=*/1), &out);
  EXPECT_TRUE(out.empty());  // gap: seq 0 missing
  EXPECT_EQ(buffer.buffered(), 1);

  buffer.Admit(MakeMessage(0, 1, /*seq=*/1), &out);  // duplicate of parked
  EXPECT_TRUE(out.empty());

  buffer.Admit(MakeMessage(0, 1, /*seq=*/0), &out);  // fills the gap
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 0);
  EXPECT_EQ(out[1].seq, 1);
  EXPECT_EQ(buffer.buffered(), 0);

  out.clear();
  buffer.Admit(MakeMessage(0, 1, /*seq=*/0), &out);  // duplicate of released
  EXPECT_TRUE(out.empty());

  const FaultCountersSnapshot snap = counters.Snapshot();
  EXPECT_EQ(snap.deduped, 2);
  EXPECT_EQ(snap.reordered, 1);
}

TEST(ReorderBufferTest, StreamsAreIndependent) {
  FaultCounters counters;
  ReorderBuffer buffer(&counters);
  std::vector<Message> out;
  // Stream (0 -> 1) is gapped; stream (2 -> 1) must still flow.
  buffer.Admit(MakeMessage(0, 1, /*seq=*/5), &out);
  EXPECT_TRUE(out.empty());
  buffer.Admit(MakeMessage(2, 1, /*seq=*/0), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].from.node, 2);
}

TEST(ReorderBufferTest, UnsequencedMessagesBypass) {
  FaultCounters counters;
  ReorderBuffer buffer(&counters);
  std::vector<Message> out;
  buffer.Admit(MakeMessage(0, 1, /*seq=*/-1), &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(StreamSequencerTest, PerStreamMonotoneFromZero) {
  StreamSequencer sequencer;
  const Address a{0, kSyncerPortBase};
  const Address b{1, kServerPort};
  const Address c{1, kServerPort + 1};
  EXPECT_EQ(sequencer.NextSeq(a, b), 0);
  EXPECT_EQ(sequencer.NextSeq(a, b), 1);
  EXPECT_EQ(sequencer.NextSeq(a, c), 0);  // distinct stream
  EXPECT_EQ(sequencer.NextSeq(a, b), 2);
}

// ------------------------------------------------------------ bus-level ----

TEST(FaultyBusTest, DuplicatesAreInjectedAndDeduplicated) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  FaultPlan plan;
  plan.seed = 5;
  plan.duplicate_prob = 1.0;
  bus.EnableFaultInjection(plan);

  const int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(bus.Send(MakeMessage(0, 1, /*seq=*/-1, /*layer=*/i)).ok());
  }
  bus.FlushEgress();
  const FaultCountersSnapshot snap = bus.FaultCounts();
  EXPECT_EQ(snap.duplicates, kMessages);
  EXPECT_EQ(snap.deduped, kMessages);
  // Exactly one copy of each, in send order.
  for (int i = 0; i < kMessages; ++i) {
    auto received = mailbox->TryPop();
    ASSERT_TRUE(received.has_value()) << "message " << i << " missing";
    EXPECT_EQ(received->layer, i);
    EXPECT_EQ(received->seq, i);  // the bus sequenced the stream
  }
  EXPECT_FALSE(mailbox->TryPop().has_value()) << "a duplicate leaked through";
}

TEST(FaultyBusTest, DropsAreRetransmittedUntilDelivered) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_prob = 0.5;
  plan.retransmit_timeout_us = 50;
  bus.EnableFaultInjection(plan);

  const int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(bus.Send(MakeMessage(0, 1, /*seq=*/-1, /*layer=*/i)).ok());
  }
  bus.FlushEgress();
  const FaultCountersSnapshot snap = bus.FaultCounts();
  EXPECT_GT(snap.drops, 0);
  EXPECT_EQ(snap.retransmits, snap.drops);  // every loss was retried
  for (int i = 0; i < kMessages; ++i) {
    auto received = mailbox->TryPop();
    ASSERT_TRUE(received.has_value()) << "message " << i << " lost for good";
    EXPECT_EQ(received->layer, i) << "stream order broken";
  }
}

TEST(FaultyBusTest, DelayedStreamStillArrivesInOrder) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  FaultPlan plan;
  plan.seed = 23;
  plan.delay_prob = 0.7;
  plan.delay_min_us = 10;
  plan.delay_max_us = 2000;
  bus.EnableFaultInjection(plan);

  const int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(bus.Send(MakeMessage(0, 1, /*seq=*/-1, /*layer=*/i)).ok());
  }
  bus.FlushEgress();
  EXPECT_GT(bus.FaultCounts().delays, 0);
  for (int i = 0; i < kMessages; ++i) {
    auto received = mailbox->TryPop();
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(received->layer, i) << "per-stream FIFO violated";
  }
}

TEST(FaultyBusTest, PartitionParksTrafficAndHealReplays) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  FaultPlan plan;  // no probabilistic faults; partitions only
  bus.EnableFaultInjection(plan);

  bus.Partition(0, 1);
  EXPECT_TRUE(bus.Send(MakeMessage(0, 1)).ok());
  EXPECT_TRUE(bus.Send(MakeMessage(0, 1)).ok());
  bus.FlushEgress();
  EXPECT_FALSE(mailbox->TryPop().has_value()) << "partitioned traffic leaked";
  EXPECT_EQ(bus.FaultCounts().partition_holds, 2);

  bus.HealPartitions();
  bus.FlushEgress();
  EXPECT_TRUE(mailbox->TryPop().has_value());
  EXPECT_TRUE(mailbox->TryPop().has_value());
}

TEST(FaultyBusTest, ShutdownBypassesTheFaultFabric) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  FaultPlan plan;
  plan.seed = 3;
  plan.drop_prob = 0.9;
  plan.delay_prob = 0.9;
  plan.delay_max_us = 1000000;
  bus.EnableFaultInjection(plan);
  Message shutdown;
  shutdown.type = MessageType::kShutdown;
  shutdown.from = Address{0, kSyncerPortBase};
  shutdown.to = Address{1, kServerPort};
  EXPECT_TRUE(bus.Send(std::move(shutdown)).ok());
  // The carrier commits it directly: no weather applied.
  bus.FlushEgress();
  auto received = mailbox->TryPop();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->type, MessageType::kShutdown);
  EXPECT_EQ(bus.FaultCounts().drops, 0);
  EXPECT_EQ(bus.FaultCounts().delays, 0);
}

// ------------------------------------------------------- socket backend ----
// The same properties as the FaultyBusTest suite, but injected on the frames
// the sending bus ships to its socket transport and repaired by the
// receiving bus's wire reorder buffer. Each test pops every message (blocking: delivery is
// eventual), then uses a stream barrier before reading counters so late
// duplicates and retransmissions have definitely been processed.

TEST(SocketBackendFaultTest, DuplicatesAreInjectedAndDeduplicated) {
  FaultPlan shim;
  shim.seed = 5;
  shim.duplicate_prob = 1.0;
  testing::SocketBusPair pair(/*unix_sockets=*/false, shim);
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});

  const int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(pair.bus(0).Send(MakeMessage(0, 1, /*seq=*/-1, /*layer=*/i)).ok());
  }
  for (int i = 0; i < kMessages; ++i) {
    std::optional<Message> received = mailbox->PopFor(kPopDeadline);
    ASSERT_TRUE(received.has_value()) << "message " << i << " missing";
    EXPECT_EQ(received->layer, i);
    EXPECT_EQ(received->seq, i);  // the bus sequenced the wire stream
  }
  pair.Barrier(0, 1);
  const FaultCountersSnapshot shim_counters = pair.bus(0).FaultCounts();
  EXPECT_EQ(shim_counters.duplicates, kMessages);
  EXPECT_EQ(pair.bus(1).FaultCounts().deduped, kMessages);
  EXPECT_FALSE(mailbox->TryPop().has_value()) << "a duplicate leaked through";
}

TEST(SocketBackendFaultTest, DropsAreRetransmittedUntilDelivered) {
  FaultPlan shim;
  shim.seed = 11;
  shim.drop_prob = 0.5;
  shim.retransmit_timeout_us = 50;
  testing::SocketBusPair pair(/*unix_sockets=*/false, shim);
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});

  const int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(pair.bus(0).Send(MakeMessage(0, 1, /*seq=*/-1, /*layer=*/i)).ok());
  }
  for (int i = 0; i < kMessages; ++i) {
    std::optional<Message> received = mailbox->PopFor(kPopDeadline);
    ASSERT_TRUE(received.has_value()) << "message " << i << " lost for good";
    EXPECT_EQ(received->layer, i) << "stream order broken";
  }
  pair.Barrier(0, 1);
  const FaultCountersSnapshot shim_counters = pair.bus(0).FaultCounts();
  EXPECT_GT(shim_counters.drops, 0);
  EXPECT_GE(shim_counters.retransmits, shim_counters.drops);
}

TEST(SocketBackendFaultTest, DelayedStreamStillArrivesInOrder) {
  FaultPlan shim;
  shim.seed = 23;
  shim.delay_prob = 0.7;
  shim.delay_min_us = 10;
  shim.delay_max_us = 2000;
  testing::SocketBusPair pair(/*unix_sockets=*/false, shim);
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});

  const int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(pair.bus(0).Send(MakeMessage(0, 1, /*seq=*/-1, /*layer=*/i)).ok());
  }
  for (int i = 0; i < kMessages; ++i) {
    std::optional<Message> received = mailbox->PopFor(kPopDeadline);
    ASSERT_TRUE(received.has_value()) << "message " << i << " never arrived";
    EXPECT_EQ(received->layer, i) << "per-stream FIFO violated";
  }
  pair.Barrier(0, 1);
  EXPECT_GT(pair.bus(0).FaultCounts().delays, 0);
}

TEST(SocketBackendFaultTest, FlushEgressDrainsHeldFramesBeforeTheTransport) {
  // Every duplicate lags far behind its original, so the copies still wait
  // on the sending bus's fault pump when the consumer has the whole stream.
  // FlushEgress (inside Barrier) must hand them to the transport before
  // draining it: the barrier's control record then arrives behind them all.
  FaultPlan shim;
  shim.seed = 5;
  shim.duplicate_prob = 1.0;
  shim.duplicate_lag_us = 200000;
  testing::SocketBusPair pair(/*unix_sockets=*/false, shim);
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});

  const int kMessages = 10;
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(pair.bus(0).Send(MakeMessage(0, 1, /*seq=*/-1, /*layer=*/i)).ok());
  }
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(mailbox->PopFor(kPopDeadline).has_value())
        << "message " << i << " missing";
  }
  pair.Barrier(0, 1);
  EXPECT_EQ(pair.bus(1).FaultCounts().deduped, kMessages)
      << "the barrier overtook duplicates still held on the fault pump";
}

TEST(FaultyBusTest, CloseEndpointsWakesReceiversAndAllowsReRegistration) {
  MessageBus bus(2);
  auto old_mailbox = bus.Register(Address{1, kSyncerPortBase + 3});
  bus.CloseEndpoints(1, kSyncerPortBase);
  EXPECT_FALSE(old_mailbox->Pop().has_value()) << "closed mailbox should drain";
  auto fresh = bus.Register(Address{1, kSyncerPortBase + 3});
  EXPECT_NE(fresh.get(), old_mailbox.get()) << "restart must get a fresh mailbox";
  // Shard-port mailboxes (below kSyncerPortBase) must survive a worker-side
  // close: the colocated server process did not die.
  auto shard = bus.Register(Address{1, kServerPort});
  bus.CloseEndpoints(1, kSyncerPortBase);
  EXPECT_FALSE(shard->closed());
  // ... and so must endpoints above the bound (the coordinator's monitor
  // mailbox when the dead worker shares its node).
  auto monitor = bus.Register(Address{1, kMonitorPort});
  bus.CloseEndpoints(1, kSyncerPortBase, kMonitorPort);
  EXPECT_FALSE(monitor->closed());
}

}  // namespace
}  // namespace poseidon

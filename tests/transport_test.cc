// Tests for the in-process message bus, egress batcher and rate limiter.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>

#include "src/transport/bus.h"
#include "src/transport/rate_limiter.h"

namespace poseidon {
namespace {

Message MakeChunkMessage(int src, int dst, int port, int floats, int64_t iter = 0) {
  Message m;
  m.type = MessageType::kGradPush;
  m.from = Address{src, kSyncerPortBase};
  m.to = Address{dst, port};
  m.layer = 0;
  m.worker = src;
  m.iter = iter;
  m.codec = WireCodec::kRawFloat;
  Payload payload = Payload::Allocate(floats);
  for (int64_t i = 0; i < payload.size(); ++i) {
    payload.data()[i] = 1.0f;
  }
  m.chunks.push_back({0, payload.View()});
  return m;
}

TEST(PayloadTest, AllocatedSlabsAre64ByteAligned) {
  // The SIMD wire kernels (src/simd) stream 8-lane blocks out of payload
  // slabs; Payload::kAlignment guarantees block 0 never straddles a cache
  // line. Odd sizes must not disturb the base alignment.
  for (int64_t floats : {1, 7, 8, 9, 31, 32, 33, 1000, 4096}) {
    Payload payload = Payload::Allocate(floats);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(payload.data()) %
                  static_cast<uintptr_t>(Payload::kAlignment),
              0u)
        << "slab of " << floats << " floats is misaligned";
  }
}

TEST(PayloadTest, FromVectorSlabsAre64ByteAligned) {
  std::vector<float> values(37, 1.5f);
  Payload payload = Payload::FromVector(values);
  ASSERT_EQ(payload.size(), 37);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(payload.data()) %
                static_cast<uintptr_t>(Payload::kAlignment),
            0u);
  for (int64_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(payload.data()[i], 1.5f);
  }
}

TEST(BusTest, DeliversToRegisteredMailbox) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 4)).ok());
  auto received = mailbox->Pop();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->worker, 0);
  EXPECT_EQ(received->chunks[0].view.size(), 4);
}

TEST(BusTest, UnknownDestinationIsNotFound) {
  MessageBus bus(2);
  const Status status = bus.Send(MakeChunkMessage(0, 1, 999, 4));
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(BusTest, TrafficAccountingSkipsLocal) {
  MessageBus bus(2);
  bus.Register(Address{0, kServerPort});
  bus.Register(Address{1, kServerPort});
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 0, kServerPort, 100)).ok());  // local
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 100)).ok());  // remote
  bus.FlushEgress();
  EXPECT_EQ(bus.TxBytes(1), 0);
  const int64_t remote = bus.TxBytes(0);
  EXPECT_GT(remote, 400);  // 100 floats + headers
  EXPECT_EQ(bus.TxMessages(0), 1);
  EXPECT_EQ(bus.TxEntries(0), 1);
  bus.ResetTraffic();
  EXPECT_EQ(bus.TxBytes(0), 0);
  EXPECT_EQ(bus.TxMessages(0), 0);
}

TEST(BusTest, RegisterIsIdempotent) {
  MessageBus bus(1);
  auto a = bus.Register(Address{0, 5});
  auto b = bus.Register(Address{0, 5});
  EXPECT_EQ(a.get(), b.get());
}

TEST(BusTest, CloseAllWakesReceivers) {
  MessageBus bus(1);
  auto mailbox = bus.Register(Address{0, kServerPort});
  std::thread waiter([&] { EXPECT_FALSE(mailbox->Pop().has_value()); });
  bus.CloseAll();
  waiter.join();
}

TEST(BusTest, SharedPayloadNotCopiedPerReceiver) {
  MessageBus bus(3);
  auto m1 = bus.Register(Address{1, kServerPort});
  auto m2 = bus.Register(Address{2, kServerPort});
  Message base = MakeChunkMessage(0, 1, kServerPort, 8);
  Message copy = base;
  copy.to = Address{2, kServerPort};
  EXPECT_TRUE(bus.Send(base).ok());
  EXPECT_TRUE(bus.Send(copy).ok());
  auto r1 = m1->Pop();
  auto r2 = m2->Pop();
  // Both receivers' views alias the same slab: a broadcast is zero-copy.
  EXPECT_EQ(r1->chunks[0].view.slab_id(), r2->chunks[0].view.slab_id());
}

TEST(MessageTest, WireBytesCountsPayloads) {
  Message m = MakeChunkMessage(0, 1, kServerPort, 100);
  EXPECT_GE(m.WireBytes(), 400);
  EXPECT_LT(m.WireBytes(), 500);
  EXPECT_EQ(m.WireBytes(), kWireFrameBytes + m.PayloadBytes());
}

double SecondsUntil(RateLimiter::Clock::time_point when) {
  return std::chrono::duration<double>(when - RateLimiter::Clock::now()).count();
}

TEST(RateLimiterTest, ThrottlesToConfiguredRate) {
  RateLimiter limiter(1e6, /*burst_bytes=*/1e4);  // 1 MB/s
  const auto start = RateLimiter::Clock::now();
  // ~50 ms at 1 MB/s (minus the initial burst); Reserve itself returns at once.
  const auto due = limiter.Reserve(50000);
  EXPECT_LT(std::chrono::duration<double>(RateLimiter::Clock::now() - start).count(), 0.01);
  const double wait = std::chrono::duration<double>(due - start).count();
  EXPECT_GT(wait, 0.025);
  EXPECT_LT(wait, 0.5);
  // The debt carries over: the next frame leaves after the first one's.
  EXPECT_GE(limiter.Reserve(1000), due);
}

TEST(RateLimiterTest, SmallSendsWithinBurstAreFree) {
  RateLimiter limiter(1e6, /*burst_bytes=*/1e5);
  EXPECT_LE(SecondsUntil(limiter.Reserve(1000)), 0.0);
}

TEST(BusTest, EgressLimitSlowsRemoteSends) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  bus.SetEgressLimit(0, 1e6);  // 1 MB/s
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 100000)).ok());  // ~400 KB
  ASSERT_TRUE(mailbox->Pop().has_value());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GT(elapsed, 0.1) << "delivery outran the node's egress limit";
}

// The emulated NIC drains on its own carrier: a send that takes the wire
// 0.14 s at the limit returns long before it is delivered.
TEST(BusTest, ThrottledSendReturnsBeforeTheNicDrains) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  bus.SetEgressLimit(0, 1e6);  // 1 MB/s
  // A first small send starts node 0's carrier thread outside the timing.
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 4)).ok());
  ASSERT_TRUE(mailbox->Pop().has_value());
  Message big = MakeChunkMessage(0, 1, kServerPort, 100000);  // ~400 KB
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(bus.Send(std::move(big)).ok());
  const double send_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_TRUE(mailbox->Pop().has_value());
  const double deliver_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(send_s, 0.02) << "Send waited on the emulated NIC";
  EXPECT_GE(deliver_s, 0.1) << "delivery outran the node's egress limit";
}

// Regression: one node's throttled egress must not stall sends or delivery
// from other nodes — each node has its own queue and carrier.
TEST(BusTest, ThrottledSenderDoesNotBlockOtherNodes) {
  MessageBus bus(3);
  auto mailbox = bus.Register(Address{2, kServerPort});
  bus.SetEgressLimit(0, 1e6);  // ~0.5 s for the big message below

  // ~800 KB through a 1 MB/s limit: in flight well past the probe below.
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 2, kServerPort, 200000)).ok());
  // Wait (condition variable, not a sleep) until node 0's carrier has taken
  // the message off its queue and waits on the limit.
  ASSERT_TRUE(bus.AwaitEgressDepth(0, 0, /*timeout_ms=*/5000));

  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(bus.Send(MakeChunkMessage(1, 2, kServerPort, 100)).ok());
  std::optional<Message> received = mailbox->Pop();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->from.node, 1) << "node 0's throttled frame arrived first";
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(elapsed, 0.5) << "node 1's send stalled behind node 0's throttled egress";
  ASSERT_TRUE(mailbox->Pop().has_value());
}

// SetEgressLimit while the carrier waits on the old limit must be safe (the
// carrier holds a shared_ptr snapshot, not a raw pointer into the bus), and
// the waiting message still arrives.
TEST(BusTest, ResetLimitDuringBlockedSendIsSafe) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  bus.SetEgressLimit(0, 2e5);
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 100000)).ok());
  // The carrier took the ~400 KB message with the 200 KB/s limit (~0.7 s).
  ASSERT_TRUE(bus.AwaitEgressDepth(0, 0, /*timeout_ms=*/5000));
  bus.SetEgressLimit(0, 0.0);  // drop the limiter under the waiting carrier
  ASSERT_TRUE(mailbox->Pop().has_value());
}

// ------------------------------------------------------------- batching ----

TEST(BatchingTest, CoalescesSameDestinationSameIter) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  EgressBatchOptions options;
  options.max_batch_messages = 4;
  options.flush_interval_us = 200000;  // count threshold is the trigger
  bus.EnableBatching(options);

  for (int i = 0; i < 4; ++i) {
    Message m = MakeChunkMessage(0, 1, kServerPort, 16, /*iter=*/7);
    m.layer = i;
    EXPECT_TRUE(bus.Send(std::move(m)).ok());
  }
  bus.FlushEgress();
  EXPECT_EQ(bus.TxMessages(0), 1) << "4 same-(dst, iter) messages should be one frame";
  EXPECT_EQ(bus.TxEntries(0), 4);
  // All four delivered, in send order.
  for (int i = 0; i < 4; ++i) {
    auto received = mailbox->Pop();
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(received->layer, i);
  }
}

TEST(BatchingTest, BatchedFrameIsCheaperThanUnbatched) {
  // Framing arithmetic: a batch pays kWireFrameBytes once plus a small
  // per-entry header, vs a full frame per message unbatched.
  MessageBus unbatched(2);
  unbatched.Register(Address{1, kServerPort});
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(unbatched.Send(MakeChunkMessage(0, 1, kServerPort, 16)).ok());
  }
  unbatched.FlushEgress();

  MessageBus batched(2);
  batched.Register(Address{1, kServerPort});
  EgressBatchOptions options;
  options.max_batch_messages = 8;
  batched.EnableBatching(options);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(batched.Send(MakeChunkMessage(0, 1, kServerPort, 16)).ok());
  }
  batched.FlushEgress();

  EXPECT_EQ(unbatched.TxMessages(0), 8);
  EXPECT_EQ(batched.TxMessages(0), 1);
  EXPECT_LT(batched.TxBytes(0), unbatched.TxBytes(0));
  EXPECT_EQ(batched.TxEntries(0), unbatched.TxEntries(0));
}

TEST(BatchingTest, IterationBoundaryCutsBatch) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  EgressBatchOptions options;
  options.max_batch_messages = 100;
  bus.EnableBatching(options);

  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 4, /*iter=*/0)).ok());
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 4, /*iter=*/0)).ok());
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 4, /*iter=*/1)).ok());
  bus.FlushEgress();
  EXPECT_EQ(bus.TxMessages(0), 2);  // one frame per iteration
  // FIFO across the boundary.
  EXPECT_EQ(mailbox->Pop()->iter, 0);
  EXPECT_EQ(mailbox->Pop()->iter, 0);
  EXPECT_EQ(mailbox->Pop()->iter, 1);
}

TEST(BatchingTest, TimerFlushGuaranteesProgress) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  EgressBatchOptions options;
  options.max_batch_messages = 1000;  // never reached
  options.flush_interval_us = 2000;
  bus.EnableBatching(options);

  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 4)).ok());
  // No explicit flush: the carrier must deliver within the interval.
  auto received = mailbox->Pop();
  ASSERT_TRUE(received.has_value());
}

TEST(BatchingTest, ShutdownForcesFlush) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  EgressBatchOptions options;
  options.max_batch_messages = 1000;
  options.flush_interval_us = 60000000;  // effectively never
  bus.EnableBatching(options);

  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 4, /*iter=*/3)).ok());
  Message shutdown;
  shutdown.type = MessageType::kShutdown;
  shutdown.from = Address{0, kSyncerPortBase};
  shutdown.to = Address{1, kServerPort};
  shutdown.iter = 3;
  EXPECT_TRUE(bus.Send(std::move(shutdown)).ok());

  // The push must arrive before the shutdown (per-destination FIFO).
  auto first = mailbox->Pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, MessageType::kGradPush);
  auto second = mailbox->Pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, MessageType::kShutdown);
}

TEST(BatchingTest, LocalTrafficBypassesBatcher) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{0, kServerPort});
  EgressBatchOptions options;
  options.max_batch_messages = 1000;
  options.flush_interval_us = 60000000;
  bus.EnableBatching(options);
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 0, kServerPort, 4)).ok());
  EXPECT_TRUE(mailbox->TryPop().has_value()) << "local send should deliver inline";
  EXPECT_EQ(bus.TxBytes(0), 0);
}

// A message whose mailbox closed after Send routed to it (CloseAll leaves
// the address registered) is lost when the carrier delivers it, batched or
// not: every such loss counts as a dropped reply, a shutdown excepted.
TEST(BatchingTest, ClosedMailboxLossesAreCounted) {
  for (const bool batching : {false, true}) {
    SCOPED_TRACE(batching ? "batched" : "unbatched");
    MessageBus bus(2);
    auto mailbox = bus.Register(Address{1, kServerPort});
    if (batching) {
      EgressBatchOptions options;
      options.max_batch_messages = 1000;
      options.flush_interval_us = 60000000;  // the shutdown below cuts the batch
      bus.EnableBatching(options);
    }
    mailbox->Close();
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 4, /*iter=*/5)).ok());
    }
    Message shutdown;
    shutdown.type = MessageType::kShutdown;
    shutdown.from = Address{0, kSyncerPortBase};
    shutdown.to = Address{1, kServerPort};
    shutdown.iter = 5;
    EXPECT_TRUE(bus.Send(std::move(shutdown)).ok());
    bus.FlushEgress();
    EXPECT_EQ(bus.TxEntries(0), 4);
    EXPECT_EQ(bus.FaultCounts().dropped_replies, 3);
  }
}

// One node's throttled egress must not delay another node's batched sends:
// each node has its own carrier.
TEST(BatchingTest, ThrottledNodeDoesNotStallOtherNodesBatches) {
  MessageBus bus(3);
  auto mailbox = bus.Register(Address{2, kServerPort});
  EgressBatchOptions options;
  options.max_batch_messages = 2;
  bus.EnableBatching(options);
  bus.SetEgressLimit(0, 1e6);  // node 0 crawls (~0.4 s for its batch)

  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 2, kServerPort, 50000)).ok());  // slow batch
  }
  // Carrier 0 has taken its batch and waits on the limit.
  ASSERT_TRUE(bus.AwaitEgressDepth(0, 0, /*timeout_ms=*/5000));

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(bus.Send(MakeChunkMessage(1, 2, kServerPort, 16)).ok());
  }
  // Node 1's two-message batch must arrive promptly.
  int node1_seen = 0;
  while (node1_seen < 2) {
    auto received = mailbox->Pop();
    ASSERT_TRUE(received.has_value());
    if (received->from.node == 1) {
      ++node1_seen;
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(elapsed, 0.5) << "node 1's batch stalled behind node 0's throttled carrier";
}

}  // namespace
}  // namespace poseidon
